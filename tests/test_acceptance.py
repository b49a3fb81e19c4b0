"""Acceptance suite: one test per release criterion, pinned tolerances.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line (bypassing pytest's
capture so the lines always show) and then asserts. Run with

    pytest tests/test_acceptance.py -v
"""

import itertools
import math
import time

import numpy as np

from taskaff import affinity, graphs, grouping, learners, planted, transfer
from tests.conftest import (ACCEPTANCE_RESULTS, block_task_set, gradient_check, make_eval,
                            make_log, sigma, sigma_tilde, two_block_graph)


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_RESULTS.append(line)
    print(line, flush=True)


def test_lemma_equivalence_closed_form_vs_pipeline():
    """Pipeline theta with the closed-form learner == analytic theta, 1e-8 rel."""
    start = time.monotonic()
    cfg = planted.PlantedConfig(num_tasks=10, num_groups=2, feature_dim=8,
                                num_nodes=250, observed=200, within_sep=0.2,
                                between_sep=3.0, label_bound=2.0, noise_std=0.2,
                                seed=101)
    inst = planted.generate(cfg)
    tasks, feats = planted.to_task_set(inst)  # theory view: eval on train rows
    plan = affinity.SamplingPlan(num_tasks=10, subset_size=4, num_subsets=100,
                                 seed=102, min_pair_coverage=1)
    subsets = affinity.sample_subsets(plan)
    spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
    evals = affinity.collect_evaluations(tasks, subsets, spec, base_seed=103,
                                         features=feats)
    pipe = affinity.estimate_affinity(evals, 10)
    theory = planted.theta_closed_form(inst, subsets)
    rel = np.abs(-pipe.theta - theory.theta) / np.abs(theory.theta)
    elapsed = time.monotonic() - start
    ok = bool(rel.max() < 1e-8 and elapsed < 10.0)
    report("lemma-equivalence", ok,
           f"max rel diff {rel.max():.2e}, {elapsed:.1f}s")
    assert rel.max() < 1e-8
    assert elapsed < 10.0


def test_block_structure_and_spectral_recovery():
    """Sampled theta is block-structured and clusterable in >= 9/10 seeds."""
    start = time.monotonic()
    t, c, d, n_nodes, m, alpha, n_sub = 20, 4, 10, 600, 500, 5, 400
    a_sep, b_sep = 0.5, 6.0

    # separation margin: the no-structure (single group) fluctuation floor,
    # lifted to squared-distance units by alpha^2 * m, must be beaten 10x
    floor_cfg = planted.PlantedConfig(num_tasks=t, num_groups=1, feature_dim=d,
                                      num_nodes=n_nodes, observed=m,
                                      within_sep=a_sep, between_sep=b_sep,
                                      label_bound=2.0, noise_std=0.2, seed=200)
    floor_inst = planted.generate(floor_cfg)
    floor_plan = affinity.SamplingPlan(num_tasks=t, subset_size=alpha,
                                       num_subsets=n_sub, seed=201,
                                       min_pair_coverage=1)
    floor_theta = planted.theta_closed_form(floor_inst,
                                            affinity.sample_subsets(floor_plan))
    floor_pop = planted.population_theta(floor_inst, alpha)
    fluct = float(np.abs(floor_theta.theta - floor_pop.theta).max())
    margin = (b_sep**2 - a_sep**2) / (alpha**2 * m * fluct)

    gaps_pos, ari_hits = 0, 0
    for seed in range(10):
        cfg = planted.PlantedConfig(num_tasks=t, num_groups=c, feature_dim=d,
                                    num_nodes=n_nodes, observed=m,
                                    within_sep=a_sep, between_sep=b_sep,
                                    label_bound=2.0, noise_std=0.2, seed=seed)
        inst = planted.generate(cfg)
        plan = affinity.SamplingPlan(num_tasks=t, subset_size=alpha,
                                     num_subsets=n_sub, seed=300 + seed,
                                     min_pair_coverage=1)
        theta = planted.theta_closed_form(inst, affinity.sample_subsets(plan))
        _, global_gap = planted.verify_block_structure(theta, inst.group_of)
        gaps_pos += global_gap > 0
        sim = grouping.minmax_rescale(-theta.theta)
        labels = grouping.spectral_cluster(sim, c, seed=seed)
        ari_hits += grouping.adjusted_rand_index(labels, inst.group_of) >= 0.99
    elapsed = time.monotonic() - start
    ok = bool(margin >= 10 and gaps_pos >= 9 and ari_hits >= 9 and elapsed < 120)
    report("block-structure", ok,
           f"gap>0 in {gaps_pos}/10, ARI>=0.99 in {ari_hits}/10, "
           f"margin {margin:.0f}x, {elapsed:.1f}s")
    assert margin >= 10
    assert gaps_pos >= 9
    assert ari_hits >= 9
    assert elapsed < 120


def test_concentration_of_sampled_theta():
    """Deviation from the population average shrinks with n, under the bound."""
    b_bound = 1.0
    hoeffding = 4 * b_bound**2 * math.sqrt(math.log(100.0) / (2 * 50_000))
    decreasing, bounded = 0, 0
    for seed in range(10):
        cfg = planted.PlantedConfig(num_tasks=6, num_groups=2, feature_dim=5,
                                    num_nodes=80, observed=60, within_sep=0.2,
                                    between_sep=1.5, label_bound=b_bound,
                                    noise_std=0.1, seed=seed)
        inst = planted.generate(cfg)
        pop = planted.population_theta(inst, 3).theta
        plan = affinity.SamplingPlan(num_tasks=6, subset_size=3,
                                     num_subsets=50_000, seed=400 + seed)
        subsets = affinity.sample_subsets(plan)
        devs = [float(np.abs(planted.theta_closed_form(inst, subsets[:n]).theta
                             - pop).max())
                for n in (500, 5_000, 50_000)]
        decreasing += devs[0] > devs[1] > devs[2]
        bounded += devs[2] <= hoeffding
    ok = bool(decreasing >= 8 and bounded == 10)
    report("concentration", ok,
           f"decreasing in {decreasing}/10, bound {hoeffding:.4f} held {bounded}/10")
    assert decreasing >= 8
    assert bounded == 10


def test_negative_transfer_prediction_f1():
    """Masked-affinity logistic predictors reach macro F1 >= 0.8 held out."""
    start = time.monotonic()
    t = 50
    cfg = planted.PlantedConfig(num_tasks=t, num_groups=5, feature_dim=12,
                                num_nodes=400, observed=300, within_sep=0.2,
                                between_sep=8.0, label_bound=4.0, noise_std=0.4,
                                seed=500)
    inst = planted.generate(cfg)
    tasks, feats = planted.to_task_set(inst, holdout_frac=0.25)
    spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
    plan = affinity.SamplingPlan(num_tasks=t, subset_size=5, num_subsets=20 * t,
                                 seed=501, min_pair_coverage=1)
    train_subsets = affinity.sample_subsets(plan)
    held_plan = affinity.SamplingPlan(num_tasks=t, subset_size=5, num_subsets=250,
                                      seed=502)
    train_set = set(train_subsets)
    held_subsets = [s for s in affinity.sample_subsets(held_plan)
                    if s not in train_set]
    train_evals = affinity.collect_evaluations(tasks, train_subsets, spec,
                                               base_seed=503, features=feats)
    held_evals = affinity.collect_evaluations(tasks, held_subsets, spec,
                                              base_seed=504, features=feats)
    stl_evals = affinity.collect_evaluations(tasks, [(i,) for i in range(t)],
                                             spec, base_seed=505, features=feats)
    aff = affinity.estimate_affinity(train_evals, t)
    train_ex = transfer.build_examples(train_evals, stl_evals.scores[:, 0], aff)
    held_ex = transfer.build_examples(held_evals, stl_evals.scores[:, 0], aff)
    models = transfer.fit_all(train_ex, t, l2=1e-4, epochs=1500, lr=0.5, seed=506)
    macro, detail = transfer.evaluate_f1(models, held_ex)
    elapsed = time.monotonic() - start
    ok = bool(macro >= 0.8 and elapsed < 300)
    report("negative-transfer-f1", ok,
           f"macro F1 {macro:.3f}, excluded {len(detail['excluded'])}, {elapsed:.1f}s")
    assert macro >= 0.8
    assert elapsed < 300


def test_grouping_beats_single_group():
    """Grouped training objective >= naive all-task objective in >= 9/10 seeds."""
    wins = 0
    t, c = 20, 4
    for seed in range(10):
        cfg = planted.PlantedConfig(num_tasks=t, num_groups=c, feature_dim=10,
                                    num_nodes=300, observed=250, within_sep=0.3,
                                    between_sep=6.0, label_bound=2.0,
                                    noise_std=0.3, seed=seed)
        inst = planted.generate(cfg)
        tasks, feats = planted.to_task_set(inst, holdout_frac=0.25)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        plan = affinity.SamplingPlan(num_tasks=t, subset_size=5, num_subsets=200,
                                     seed=600 + seed, min_pair_coverage=1)
        evals = affinity.collect_evaluations(tasks,
                                             affinity.sample_subsets(plan), spec,
                                             base_seed=601, features=feats)
        aff = affinity.estimate_affinity(evals, t)
        cm = grouping.build_cluster_matrix(aff)
        labels = grouping.spectral_cluster(cm, c, seed=seed)
        groups = grouping.derive_groups(labels, t)
        models = grouping.train_groups(tasks, groups, spec, seed=602,
                                       features=feats)
        _, obj_grouped = grouping.evaluate_grouping(models, tasks, "negative-mse")
        naive = grouping.train_groups(tasks, [list(range(t))], spec, seed=602,
                                      features=feats)
        _, obj_naive = grouping.evaluate_grouping(naive, tasks, "negative-mse")
        wins += obj_grouped >= obj_naive
    ok = bool(wins >= 9)
    report("grouping-benefit", ok, f"grouped >= naive in {wins}/10 seeds")
    assert wins >= 9


def test_ppr_within_group_similarity():
    """Within-group PPR cosine similarity beats between-group in 10/10 seeds."""
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = two_block_graph(rng)
        tasks = block_task_set(g, rng)
        within, between = graphs.ppr_group_similarity(g, tasks, [[0, 1], [2, 3]])
        hits += within > between
    ok = bool(hits == 10)
    report("ppr-similarity", ok, f"within > between in {hits}/10 seeds")
    assert hits == 10


def test_unit_oracles():
    """Projection, decomposition, gradient, clustering, aggregation oracles."""
    rng = np.random.default_rng(700)

    # projection idempotence within 1e-8
    cfg = planted.PlantedConfig(num_tasks=8, num_groups=2, feature_dim=6,
                                num_nodes=120, observed=100, within_sep=0.3,
                                between_sep=3.0, label_bound=2.0, noise_std=0.2,
                                seed=701)
    inst = planted.generate(cfg)
    full, sig = sigma(inst), sigma_tilde(inst)
    idem = max(float(np.abs(full @ full - full).max()),
               float(np.abs(sig @ sig - sig).max()))
    ok_idem = idem < 1e-8

    # squared-loss decomposition within 1e-8, residual term subset-free
    rows = inst.observed_rows
    y_obs = inst.labels[:, rows]
    eye = np.eye(rows.size)
    ok_sep = True
    residuals = {}
    for subset in itertools.combinations(range(8), 3):
        ybar = y_obs[list(subset)].mean(axis=0)
        for i in subset:
            lhs = np.sum((sig @ ybar - y_obs[i]) ** 2)
            proj = np.sum((sig @ (ybar - y_obs[i])) ** 2)
            resid = np.sum(((eye - sig) @ y_obs[i]) ** 2)
            ok_sep &= abs(lhs - (proj + resid)) < 1e-8
            residuals.setdefault(i, set()).add(round(resid, 12))
    ok_sep &= all(len(v) == 1 for v in residuals.values())

    # gradient check below 1e-4
    x = rng.standard_normal((12, 4))
    masks = [np.arange(0, 8), np.arange(4, 12)]
    labels = [(rng.random(12) > 0.5).astype(float) for _ in range(2)]
    spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=6,
                                hidden_layers=2)
    grad_err = gradient_check(spec, x, masks, labels, seed=702)
    ok_grad = grad_err < 1e-4

    # spectral recovery of exact block matrices: ARI exactly 1
    ok_blocks = True
    for sizes in ([5, 5], [4, 6, 5], [3, 3, 3, 3]):
        n = sum(sizes)
        truth = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
        a = (truth[:, None] == truth[None, :]).astype(float)
        labels_sc = grouping.spectral_cluster(a, len(sizes), seed=703)
        ok_blocks &= grouping.adjusted_rand_index(labels_sc, truth) == 1.0

    # affinity aggregation equals the regroup-and-average oracle exactly
    plan = affinity.SamplingPlan(num_tasks=7, subset_size=3, num_subsets=60,
                                 seed=704)
    subsets = affinity.sample_subsets(plan)
    evals = [make_eval(s, {i: float(rng.standard_normal()) for i in s}) for s in subsets]
    aff = affinity.estimate_affinity(make_log(evals), 7)
    buckets = {}
    for ev in evals:
        for i in ev.subset:
            for j in ev.subset:
                buckets.setdefault((i, j), []).append(ev.scores[i])
    ok_agg = all(aff.theta[i, j] == math.fsum(vals) / len(vals)
                 for (i, j), vals in buckets.items())

    ok = bool(ok_idem and ok_sep and ok_grad and ok_blocks and ok_agg)
    report("unit-oracles", ok,
           f"idempotence {idem:.1e}, grad err {grad_err:.1e}, "
           f"eq-sep {ok_sep}, blocks {ok_blocks}, aggregation {ok_agg}")
    assert ok_idem
    assert ok_sep
    assert ok_grad
    assert ok_blocks
    assert ok_agg

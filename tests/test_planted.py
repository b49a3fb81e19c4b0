import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from taskaff import affinity, grouping, learners, planted
from taskaff.errors import InvalidInputError, ParseError, TaskAffError
from tests.conftest import random_diffusion, sigma, sigma_tilde


def quick_cfg(**kw):
    base = dict(num_tasks=6, num_groups=2, feature_dim=4, num_nodes=60, observed=50,
                within_sep=0.2, between_sep=2.0, label_bound=1.0, noise_std=0.1,
                seed=0)
    base.update(kw)
    return planted.PlantedConfig(**base)


class TestGenerate:
    def test_single_group_all_within(self):
        inst = planted.generate(quick_cfg(num_groups=1, within_sep=0.4))
        sig = sigma(inst)
        for i, j in itertools.combinations(range(6), 2):
            d = np.linalg.norm(sig @ (inst.labels[i] - inst.labels[j]))
            assert d <= 0.4 + 1e-9

    def test_zero_within_sep_identical_projections(self):
        inst = planted.generate(quick_cfg(within_sep=0.0, noise_std=0.05))
        sig = sigma(inst)
        for i, j in itertools.combinations(range(6), 2):
            if inst.group_of[i] == inst.group_of[j]:
                d = np.linalg.norm(sig @ (inst.labels[i] - inst.labels[j]))
                assert d <= 1e-9

    def test_separation_assumption_holds_at_scale(self):
        cfg = planted.PlantedConfig(num_tasks=20, num_groups=4, feature_dim=10,
                                    num_nodes=600, observed=500, within_sep=0.5,
                                    between_sep=6.0, label_bound=2.0,
                                    noise_std=0.2, seed=1)
        inst = planted.generate(cfg)
        sig = sigma(inst)
        # direct norm verification of both separation bounds
        for i, j in itertools.combinations(range(20), 2):
            d = np.linalg.norm(sig @ (inst.labels[i] - inst.labels[j]))
            if inst.group_of[i] == inst.group_of[j]:
                assert d <= 0.5 + 1e-9
            else:
                assert d >= 6.0 - 1e-9

    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_separations_match_pairwise_loop(self, groups):
        inst = planted.generate(quick_cfg(num_tasks=9, num_groups=groups,
                                          within_sep=0.3, seed=groups))
        sig = sigma(inst)
        # the per-pair projection loop the vectorized version replaced
        max_within, min_between = 0.0, np.inf
        for i, j in itertools.combinations(range(9), 2):
            d = float(np.linalg.norm(sig @ (inst.labels[i] - inst.labels[j])))
            if inst.group_of[i] == inst.group_of[j]:
                max_within = max(max_within, d)
            else:
                min_between = min(min_between, d)
        got = inst.separations
        assert got[0] == pytest.approx(max_within, rel=1e-12, abs=1e-12)
        if groups == 1:
            assert got[1] == min_between == np.inf
        else:
            assert got[1] == pytest.approx(min_between, rel=1e-12, abs=1e-12)

    def test_generate_primes_the_separations(self):
        inst = planted.generate(quick_cfg(num_tasks=9, num_groups=3, within_sep=0.3, seed=4))
        assert "separations" in vars(inst)
        fresh = dataclasses.replace(inst)  # no cached sigma or separations
        assert "separations" not in vars(fresh)
        assert inst.separations == fresh.separations

    def test_label_bound_respected(self):
        inst = planted.generate(quick_cfg(noise_std=0.4, label_bound=0.9))
        assert np.abs(inst.labels).max() <= 0.9 + 1e-12

    def test_projection_idempotence(self, small_instance):
        inst = small_instance
        sig = sigma(inst)
        assert np.abs(sig @ sig - sig).max() < 1e-8
        st = sigma_tilde(inst)
        assert np.abs(st @ st - st).max() < 1e-8

    def test_impossible_targets_raise(self):
        # bound so tight that clipping always destroys the separations
        cfg = quick_cfg(between_sep=50.0, label_bound=0.05, noise_std=0.0)
        with pytest.raises(TaskAffError) as err:
            planted.generate(cfg)
        achieved = re.fullmatch(r"separation targets unreachable in \d+ tries "
                                r"\(achieved within=(.+), between=(.+)\)", str(err.value))
        assert float(achieved.group(2)) < 50.0

    def test_groups_cover_tasks_evenly(self):
        inst = planted.generate(quick_cfg(num_tasks=7, num_groups=3,
                                          feature_dim=5))
        sizes = np.bincount(inst.group_of)
        assert sizes.sum() == 7 and sizes.max() - sizes.min() <= 1

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            quick_cfg(within_sep=2.0, between_sep=1.0)
        with pytest.raises(InvalidInputError):
            quick_cfg(observed=100, num_nodes=50)
        with pytest.raises(InvalidInputError):
            planted.generate(quick_cfg(num_groups=5, feature_dim=3))


class TestThetaClosedForm:
    def test_singleton_diagonal_is_projection_residual(self, small_instance):
        inst = small_instance
        subsets = [(i,) for i in range(6)]
        # pairs are uncovered, so aggregate by hand through the public API
        with pytest.raises(TaskAffError, match="never co-sampled"):
            planted.theta_closed_form(inst, subsets)
        rows = inst.observed_rows
        m = rows.size
        eye = np.eye(m)
        sig = sigma_tilde(inst)
        for i in range(6):
            y = inst.labels[i][rows]
            fitted = sig @ y
            expected = np.sum(((eye - sig) @ y) ** 2) / m
            got = np.sum((fitted - y) ** 2) / m
            assert got == pytest.approx(expected, abs=1e-10)

    def test_matches_sampling_pipeline(self, small_instance):
        # the Lemma equivalence at small scale: formula == pipeline
        inst = small_instance
        tasks, feats = planted.to_task_set(inst)
        plan = affinity.SamplingPlan(num_tasks=6, subset_size=3, num_subsets=50,
                                     seed=3, min_pair_coverage=1)
        subsets = affinity.sample_subsets(plan)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        evals = affinity.collect_evaluations(tasks, subsets, spec, 0,
                                             features=feats)
        pipe = affinity.estimate_affinity(evals, 6)
        theory = planted.theta_closed_form(inst, subsets)
        rel = np.abs(-pipe.theta - theory.theta) / np.abs(theory.theta)
        assert rel.max() < 1e-8
        np.testing.assert_array_equal(pipe.counts, theory.counts)

    def test_in_subspace_labels_zero_within_theta(self):
        # observe every node so the restricted projector equals the full one;
        # with no perturbation or noise, within-group residual differences vanish
        cfg = quick_cfg(num_nodes=50, observed=50, within_sep=0.0, noise_std=0.0)
        inst = planted.generate(cfg)
        sig = sigma_tilde(inst)
        theta = planted.population_theta(inst, 3)
        for i in range(6):
            for j in range(6):
                if inst.group_of[i] == inst.group_of[j]:
                    # fitted mean lies exactly on the shared centroid: the
                    # only loss left is the (zero) off-subspace residual
                    same_subsets = [s for s in itertools.combinations(range(6), 3)
                                    if i in s and j in s
                                    and all(inst.group_of[k] == inst.group_of[i]
                                            for k in s)]
                    for s in same_subsets:
                        rows = inst.observed_rows
                        ybar = inst.labels[list(s)][:, rows].mean(axis=0)
                        val = np.sum((sig @ ybar
                                      - inst.labels[i][rows]) ** 2) / rows.size
                        assert val < 1e-16

    def test_uncovered_pair_raises(self, small_instance):
        # of the 15 pairs i < j of 6 tasks, (0, 1), (0, 2), (1, 2), (0, 3) and
        # (1, 3) are covered; the diagonal is not a pair
        with pytest.raises(TaskAffError, match=r"^task pairs never co-sampled: 10 pairs "
                                               r"uncovered, first \(0, 4\)$"):
            planted.theta_closed_form(small_instance, [(0, 1, 2), (0, 1, 3)])


def _theta_by_subset_loop(inst, subsets):
    """The theory before the shared kernel: per-subset sigma_tilde losses
    regrouped into a dict of lists and averaged with math.fsum."""
    rows = inst.observed_rows
    t, m = inst.config.num_tasks, rows.size
    y_obs = inst.labels[:, rows]
    projected = y_obs @ sigma_tilde(inst).T
    values = {}
    counts = np.zeros((t, t), dtype=np.int64)
    for subset in subsets:
        members = list(subset)
        fitted = projected[members].mean(axis=0)
        for i in members:
            loss = float(np.sum((fitted - y_obs[i]) ** 2)) / m
            for j in members:
                values.setdefault((i, j), []).append(loss)
                counts[i, j] += 1
    theta = np.zeros((t, t))
    for (i, j), vals in values.items():
        theta[i, j] = math.fsum(vals) / len(vals)
    return theta, counts


class TestSharedKernelTheory:
    @pytest.mark.parametrize("alpha, num_subsets", [(2, 80), (3, 300), (5, 60)])
    def test_matches_subset_loop_oracle(self, small_instance, alpha, num_subsets):
        plan = affinity.SamplingPlan(num_tasks=6, subset_size=alpha,
                                     num_subsets=num_subsets, seed=alpha,
                                     min_pair_coverage=1)
        subsets = affinity.sample_subsets(plan)
        got = planted.theta_closed_form(small_instance, subsets)
        theta, counts = _theta_by_subset_loop(small_instance, subsets)
        np.testing.assert_array_equal(got.counts, counts)
        np.testing.assert_allclose(got.theta, theta, rtol=1e-12, atol=0)

    def test_population_matches_subset_loop_oracle(self, small_instance):
        theta, _ = _theta_by_subset_loop(small_instance, itertools.combinations(range(6), 4))
        np.testing.assert_allclose(planted.population_theta(small_instance, 4).theta, theta,
                                   rtol=1e-12, atol=0)

    def test_ragged_subsets_rejected(self, small_instance):
        with pytest.raises(InvalidInputError):
            planted.theta_closed_form(small_instance, [(0, 1, 2), (3, 4)])

    @pytest.fixture(scope="class")
    def paper_scale_peak(self):
        """Traced peak of theta_closed_form at T=100, m=1500 and 8,000 subsets
        of 10 with pair coverage 1, verify-theory's plan on the benchmark."""
        import tracemalloc
        rng = np.random.default_rng(3)
        cfg = planted.PlantedConfig(num_tasks=100, num_groups=10, feature_dim=20,
                                    num_nodes=1500, observed=1500)
        x = rng.standard_normal((1500, 20))  # the design of P = I, every row observed
        inst = planted.PlantedInstance(
            config=cfg, design=x, observed_design=x,
            observed_rows=np.arange(1500), labels=rng.standard_normal((100, 1500)),
            group_of=np.repeat(np.arange(10), 10))
        plan = affinity.SamplingPlan(num_tasks=100, subset_size=10, num_subsets=8000,
                                     seed=4, min_pair_coverage=1)
        subsets = affinity.sample_subsets(plan)
        tracemalloc.start()
        try:
            planted.theta_closed_form(inst, subsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"peak {peak / 2**20:.1f} MiB")
        return peak

    def test_memory_bounded_at_paper_scale(self, paper_scale_peak):
        # unchunked scoring would hold 8000 x 10 x 1500 doubles (960 MB) at once
        assert paper_scale_peak < 96 * 2**20, f"peak {paper_scale_peak / 2**20:.1f} MiB"

    def test_aggregation_holds_no_pair_value_array(self, paper_scale_peak):
        # the 800,000 (subset, i, j) entries of the log, as an int64 key array, its
        # sort order and a float64 value array, take 18.3 MiB; the scores and the
        # subsets themselves take 1.2 MiB
        assert paper_scale_peak < 12 * 2**20, f"peak {paper_scale_peak / 2**20:.1f} MiB"


class TestPopulationTheta:
    def test_alpha_equals_t(self, small_instance):
        inst = small_instance
        pop = planted.population_theta(inst, 6)
        single = planted.theta_closed_form(inst, [tuple(range(6))])
        np.testing.assert_allclose(pop.theta, single.theta, rtol=1e-15)

    def test_counts_are_binomial(self, small_instance):
        pop = planted.population_theta(small_instance, 3)
        assert pop.counts[0, 0] == math.comb(5, 2)   # subsets containing one task
        assert pop.counts[0, 1] == math.comb(4, 1)   # subsets containing a pair

    def test_enumeration_bound(self, small_instance):
        with pytest.raises(InvalidInputError):
            cfg = quick_cfg(num_tasks=64, num_groups=2, feature_dim=4)
            inst = planted.generate(cfg)
            planted.population_theta(inst, 20)

    def test_duplicate_label_tasks_symmetric_theta(self):
        # two tasks with identical labels are exchangeable in theta-bar
        cfg = quick_cfg(within_sep=0.0, noise_std=0.0)
        inst = planted.generate(cfg)
        pop = planted.population_theta(inst, 3).theta
        # tasks 0-2 share one centroid exactly, 3-5 the other
        for i, j in [(0, 1), (1, 2), (3, 4)]:
            swap = np.arange(6)
            swap[i], swap[j] = j, i
            np.testing.assert_allclose(pop[np.ix_(swap, swap)], pop, atol=1e-12)

    def test_sampled_theta_concentrates(self, small_instance):
        inst = small_instance
        pop = planted.population_theta(inst, 3).theta
        plan = affinity.SamplingPlan(num_tasks=6, subset_size=3, num_subsets=50_000,
                                     seed=0)
        subsets = affinity.sample_subsets(plan)
        dev = np.abs(planted.theta_closed_form(inst, subsets).theta - pop).max()
        bound = 4 * 1.0**2 * math.sqrt(math.log(100.0) / (2 * 50_000))
        assert dev <= bound


class TestVerifyBlockStructure:
    def test_exact_two_block_gap(self):
        theta = np.full((4, 4), 0.9)
        theta[:2, :2] = 0.1
        theta[2:, 2:] = 0.1
        aff = affinity.AffinityMatrix(theta, np.ones((4, 4), dtype=np.int64))
        gaps, global_gap = planted.verify_block_structure(aff, [0, 0, 1, 1])
        np.testing.assert_allclose(gaps, 0.8)
        assert global_gap == pytest.approx(0.8)
        assert global_gap > 0

    def test_single_group_rejected(self):
        aff = affinity.AffinityMatrix(np.eye(3), np.ones((3, 3), dtype=np.int64))
        with pytest.raises(InvalidInputError):
            planted.verify_block_structure(aff, [0, 0, 0])

    def test_gap_positive_over_seeds(self):
        hits = 0
        for seed in range(10):
            cfg = planted.PlantedConfig(num_tasks=20, num_groups=4, feature_dim=10,
                                        num_nodes=200, observed=150, within_sep=0.4,
                                        between_sep=5.0, label_bound=2.0,
                                        noise_std=0.2, seed=seed)
            inst = planted.generate(cfg)
            plan = affinity.SamplingPlan(num_tasks=20, subset_size=5,
                                         num_subsets=400, seed=50 + seed,
                                         min_pair_coverage=1)
            theta = planted.theta_closed_form(inst, affinity.sample_subsets(plan))
            hits += planted.verify_block_structure(theta, inst.group_of)[1] > 0
        assert hits >= 9

    def test_gap_monotone_in_between_sep(self):
        # sweep three separations per seed; majority must be non-decreasing
        wins = 0
        for seed in range(10):
            gaps = []
            for bsep in (2.0, 4.0, 8.0):
                cfg = quick_cfg(num_tasks=8, num_groups=2, feature_dim=5,
                                num_nodes=80, observed=70, within_sep=0.3,
                                between_sep=bsep, label_bound=2.0,
                                noise_std=0.1, seed=seed)
                inst = planted.generate(cfg)
                pop = planted.population_theta(inst, 3)
                gaps.append(planted.verify_block_structure(pop, inst.group_of)[1])
            wins += gaps[0] <= gaps[1] <= gaps[2]
        assert wins >= 6

    def test_spectral_recovery_from_population(self, small_instance):
        inst = small_instance
        pop = planted.population_theta(inst, 3)
        sim = grouping.minmax_rescale(-pop.theta)
        labels = grouping.spectral_cluster(sim, 2, seed=9)
        assert grouping.adjusted_rand_index(labels, inst.group_of) == 1.0


class TestTaskView:
    def test_theory_view_masks_alias_observed_rows(self, small_instance):
        tasks, feats = planted.to_task_set(small_instance)
        np.testing.assert_array_equal(tasks.train_mask[0], small_instance.observed_rows)
        np.testing.assert_array_equal(tasks.val_mask[0], small_instance.observed_rows)
        assert feats.shape == (60, 4)
        rows = small_instance.observed_rows
        assert np.array_equal(feats[rows], small_instance.observed_design)
        assert not np.delete(feats, rows, axis=0).any()

    def test_holdout_split_disjoint_and_deterministic(self, small_instance):
        a, _ = planted.to_task_set(small_instance, holdout_frac=0.2)
        b, _ = planted.to_task_set(small_instance, holdout_frac=0.2)
        np.testing.assert_array_equal(a.train_mask[0], b.train_mask[0])
        tr, va, te = (set(a.train_mask[0]), set(a.val_mask[0]), set(a.test_mask[0]))
        assert not (tr & va) and not (tr & te) and not (va & te)
        assert tr | va | te == set(small_instance.observed_rows.tolist())


class TestPersistence:
    def test_instance_roundtrip(self, tmp_path, small_instance):
        planted.save_instance(small_instance, tmp_path / "inst")
        loaded = planted.load_instance(tmp_path / "inst")
        np.testing.assert_allclose(loaded.design, small_instance.design, rtol=1e-15)
        np.testing.assert_allclose(loaded.labels, small_instance.labels, rtol=1e-15)
        np.testing.assert_array_equal(loaded.observed_rows, small_instance.observed_rows)
        np.testing.assert_array_equal(loaded.group_of, small_instance.group_of)
        np.testing.assert_allclose(sigma_tilde(loaded), sigma_tilde(small_instance),
                                   atol=1e-10)

    def test_diffusion_roundtrip_exact(self, tmp_path, small_instance):
        # the diffused designs, the only form of P the readers use, come back bit for bit
        planted.save_instance(small_instance, tmp_path / "inst")
        loaded = planted.load_instance(tmp_path / "inst")
        assert sorted(p.name for p in (tmp_path / "inst").iterdir()) == \
            ["instance.npz", "meta.json"]
        with np.load(tmp_path / "inst" / "instance.npz") as npz:
            assert sorted(npz.files) == ["design", "labels", "observed_design"]
        for name in ("design", "observed_design", "labels"):
            assert np.array_equal(getattr(loaded, name), getattr(small_instance, name))
        _, design = planted.to_task_set(loaded)
        assert np.array_equal(design, planted.to_task_set(small_instance)[1])

    def test_dense_pg_csv_directory_refused(self, tmp_path, small_instance):
        inst = tmp_path / "inst"
        planted.save_instance(small_instance, inst)
        n = small_instance.config.num_nodes
        np.savetxt(inst / "pg.csv", np.eye(n), delimiter=",", fmt="%.17g")
        (inst / "instance.npz").unlink()
        with pytest.raises(InvalidInputError, match="re-run generate"):
            planted.load_instance(inst)

    @pytest.mark.parametrize("row", [-1, 60])
    def test_observed_row_outside_the_nodes_refused(self, tmp_path, small_instance, row):
        # -1 would silently put a row of the observed design on node N-1
        import json

        planted.save_instance(small_instance, tmp_path / "inst")
        meta_path = tmp_path / "inst" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["observed_rows"][0] = row
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="an observed row lies outside 0..59"):
            planted.load_instance(tmp_path / "inst")

    def test_load_holds_no_n_by_n_array(self, tmp_path):
        # load_instance + to_task_set at N = 1,200: a dense N x N float array
        # (11 MiB) does not fit under the bound
        import tracemalloc
        rng = np.random.default_rng(5)
        n, m, d, t = 1200, 900, 20, 10
        cfg = planted.PlantedConfig(num_tasks=t, num_groups=2, feature_dim=d,
                                    num_nodes=n, observed=m)
        planted.save_instance(planted.PlantedInstance(
            config=cfg, design=rng.standard_normal((n, d)),
            observed_design=rng.standard_normal((m, d)),
            observed_rows=np.sort(rng.choice(n, size=m, replace=False)),
            labels=rng.standard_normal((t, n)), group_of=np.repeat([0, 1], t // 2)),
            tmp_path / "inst")
        tracemalloc.start()
        try:
            tasks, features = planted.to_task_set(planted.load_instance(tmp_path / "inst"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert features.shape == (n, d) and tasks.num_tasks == t
        assert peak < n * n * 8 // 4, f"peak {peak / 2**20:.1f} MiB"


def test_designs_are_p_x_and_its_observed_block():
    # seed 0 of quick_cfg is accepted on the first draw, so one replay of the
    # stream gives X, P and the observed rows
    cfg = quick_cfg()
    inst = planted.generate(cfg)
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((cfg.num_nodes, cfg.feature_dim))
    p = random_diffusion(rng, cfg.num_nodes)
    rows = np.sort(rng.choice(cfg.num_nodes, size=cfg.observed, replace=False))
    assert np.array_equal(inst.observed_rows, rows)
    assert _near(inst.design, p @ x)
    assert _near(inst.observed_design, p[np.ix_(rows, rows)] @ x[rows])


def _dense_diffusion(rng, n):
    # P as one (n, n) draw scaled in float, the form the row-block draw replaces
    p_edge = min(1.0, 2.0 * math.log(max(n, 2)) / n)
    upper = np.triu(rng.random((n, n)) < p_edge, k=1)
    p = (upper | upper.T).astype(float)
    deg = p.sum(axis=1)
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    p *= inv_sqrt[:, None]
    p *= inv_sqrt[None, :]
    p *= 0.5
    p[np.diag_indices(n)] += 1.0
    return p


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _near(a, b):
    # generate sums each row's neighbours, where a dense product P @ X runs
    # a GEMM: the two round differently, within 1e-13 of the largest entry
    return a.shape == b.shape and np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


@pytest.mark.parametrize("seed", [1, 2])
def test_generate_across_row_blocks_is_bitwise_the_dense_draw(seed, monkeypatch):
    # N = 600 holds two full blocks of DRAW_ROWS = 256 and a partial one; both
    # seeds are accepted on the first draw, so one replay of the stream gives X,
    # P and the observed rows
    n, m, d = 600, 450, 6
    assert n > planted.DRAW_ROWS and n % planted.DRAW_ROWS
    cfg = quick_cfg(num_tasks=8, feature_dim=d, num_nodes=n, observed=m, within_sep=0.3,
                    between_sep=5.0, label_bound=2.0, noise_std=0.25, seed=seed)
    inst = planted.generate(cfg)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    p = _dense_diffusion(rng, n)
    rows = np.sort(rng.choice(n, size=m, replace=False))
    replay = np.random.default_rng(seed)
    replay.standard_normal((n, d))
    assert _same_bits(random_diffusion(replay, n), p)
    assert _same_bits(inst.observed_rows, rows)
    assert _near(inst.design, p @ x)
    assert _near(inst.observed_design, p[np.ix_(rows, rows)] @ x[rows])
    # one block spanning every row is the dense draw; the rest of the stream
    # (labels) and the separations follow it bit for bit
    monkeypatch.setattr(planted, "DRAW_ROWS", n)
    dense = planted.generate(cfg)
    for name in ("design", "observed_design", "observed_rows", "labels", "group_of"):
        assert _same_bits(getattr(inst, name), getattr(dense, name)), name
    assert inst.separations == dense.separations
    assert inst.separations == pytest.approx(dataclasses.replace(
        inst, design=p @ x, observed_design=p[np.ix_(rows, rows)] @ x[rows]).separations,
        rel=1e-13, abs=0)


@pytest.mark.parametrize("kw, design, observed_design", [
    ({}, "33be8ef2f21d61a2def7b91766537eb6375eb743bd9212f88e75469c6b640781",
     "b87e98278d4325ea0844e179c83a4a2cb33d95da7d4c3a614fbb95d643164c40"),
    (dict(num_tasks=8, feature_dim=6, num_nodes=600, observed=450, within_sep=0.3,
          between_sep=5.0, label_bound=2.0, noise_std=0.25, seed=1),
     "ca05e073bb840465294eb6b46acd542491d20b13e78ecb5e42fc2f5d72c9a78d",
     "db305e804b28c5c8828ed55109c1b9d0396a65fba5e24722e66b774f65db3723"),
])
def test_generate_designs_keep_their_bytes(kw, design, observed_design):
    # Both designs come from the random stream, sqrt, division and in-order
    # neighbour sums, with no LAPACK call, so their bytes do not depend on
    # the BLAS build; both configs are accepted on their first draw, so no QR
    # decides a retry. N = 600 spans three DRAW_ROWS blocks. The labels go
    # through QR and are not pinned.
    inst = planted.generate(quick_cfg(**kw))
    assert [hashlib.sha256(a.tobytes()).hexdigest()
            for a in (inst.design, inst.observed_design)] == [design, observed_design]


def test_generate_memory_bounded_at_paper_scale():
    # the benchmark's instance, N = 2,000: one float N x N array (the diffusion
    # P, its hat matrix or a full-size uniform draw) does not fit under 0.5 N x N
    # doubles
    import tracemalloc
    n = 2000
    cfg = planted.PlantedConfig(num_tasks=100, num_groups=10, feature_dim=20, num_nodes=n,
                                observed=1500, seed=7)
    tracemalloc.start()
    try:
        planted.generate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"peak {peak / 2**20:.1f} MiB = {peak / (n * n * 8):.2f} N^2 doubles")
    assert peak < 0.5 * n * n * 8, f"peak {peak / 2**20:.1f} MiB"


def test_generate_retry_frees_the_failed_draw(monkeypatch):
    # two draws that miss an unreachable target at N = 1,200: the first
    # draw's N x N sigma, kept alive into the second, would put the peak near
    # 2.2 N x N doubles
    import tracemalloc
    n = 1200
    cfg = planted.PlantedConfig(num_tasks=8, num_groups=2, feature_dim=6, num_nodes=n,
                                observed=900, between_sep=50.0, label_bound=0.05)
    monkeypatch.setattr(planted, "MAX_GENERATION_RETRIES", 2)
    tracemalloc.start()
    try:
        with pytest.raises(TaskAffError, match="^separation targets unreachable"):
            planted.generate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8, f"peak {peak / 2**20:.1f} MiB"

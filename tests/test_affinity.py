import csv
import itertools
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaff import affinity, learners, planted
from taskaff.errors import InvalidInputError, ParseError, TaskAffError
from tests.conftest import (all_pairs_regroup, cut_evals, make_eval, make_log, records,
                            sigma_tilde)


class TestSampleSubsets:
    def test_alpha_equals_t_single_subset(self):
        plan = affinity.SamplingPlan(num_tasks=5, subset_size=5, num_subsets=7, seed=0)
        subsets = affinity.sample_subsets(plan)
        assert all(s == (0, 1, 2, 3, 4) for s in subsets)

    def test_deterministic_under_seed(self):
        plan = affinity.SamplingPlan(num_tasks=9, subset_size=3, num_subsets=50, seed=4)
        assert affinity.sample_subsets(plan) == affinity.sample_subsets(plan)

    def test_pair_frequencies_uniform(self):
        plan = affinity.SamplingPlan(num_tasks=4, subset_size=2, num_subsets=6000, seed=1)
        subsets = affinity.sample_subsets(plan)
        freqs = {pair: 0 for pair in itertools.combinations(range(4), 2)}
        for s in subsets:
            freqs[s] += 1
        for pair, count in freqs.items():
            assert abs(count / 6000 - 1 / 6) < 0.02, pair

    def test_coverage_guard_appends(self):
        plan = affinity.SamplingPlan(num_tasks=4, subset_size=2, num_subsets=5,
                                     seed=2, min_pair_coverage=1)
        subsets = affinity.sample_subsets(plan)
        assert len(subsets) >= 5
        assert set(subsets) == set(itertools.combinations(range(4), 2))

    def test_coverage_cap_raises(self):
        # 2 subsets can never cover the pairs of 40 tasks within the 10x cap
        plan = affinity.SamplingPlan(num_tasks=40, subset_size=2, num_subsets=2,
                                     seed=3, min_pair_coverage=1)
        # 20 distinct pairs at most are drawn, so at least 760 of 780 stay uncovered
        with pytest.raises(TaskAffError, match=r"^pair coverage 1 unreachable within 20 "
                                               r"subsets: 7[6-9]\d pairs uncovered, first "
                                               r"\(\d+, \d+\)$"):
            affinity.sample_subsets(plan)

    def test_plan_validation(self):
        with pytest.raises(InvalidInputError):
            affinity.SamplingPlan(num_tasks=5, subset_size=1, num_subsets=3)
        with pytest.raises(InvalidInputError):
            affinity.SamplingPlan(num_tasks=5, subset_size=6, num_subsets=3)


def _ix_sample_subsets(plan):
    """sample_subsets with the coverage counted by one np.ix_ add per subset."""
    rng = np.random.default_rng(plan.seed)
    t, alpha = plan.num_tasks, plan.subset_size

    def draw():
        return tuple(sorted(rng.choice(t, size=alpha, replace=False).tolist()))

    subsets = [draw() for _ in range(plan.num_subsets)]
    if plan.min_pair_coverage > 0:
        cover = np.zeros((t, t), dtype=np.int64)
        for s in subsets:
            idx = np.array(s)
            cover[np.ix_(idx, idx)] += 1
        cap = affinity.COVERAGE_CAP_FACTOR * plan.num_subsets

        def uncovered():
            short = np.argwhere(np.triu(cover < plan.min_pair_coverage, k=1))
            return [(int(i), int(j)) for i, j in short]

        while uncovered() and len(subsets) < cap:
            s = draw()
            subsets.append(s)
            idx = np.array(s)
            cover[np.ix_(idx, idx)] += 1
        missing = uncovered()
        if missing:
            raise TaskAffError(f"pair coverage {plan.min_pair_coverage} unreachable within "
                               f"{cap} subsets: {len(missing)} pairs uncovered, "
                               f"first {missing[0]}")
    return subsets


class TestSampleSubsetsOracle:
    """The bincount coverage count against a per-subset np.ix_ count."""

    @pytest.mark.parametrize("t,alpha,n,cover,seed,extra", [
        (12, 3, 40, 0, 5, False),    # no coverage guard
        (12, 3, 40, 1, 6, True),     # extra draws past num_subsets
        (9, 4, 10, 3, 7, True),      # a higher coverage target
        (20, 10, 200, 1, 8, False),  # covered by the initial draws
    ])
    def test_same_subsets_as_ix_count(self, t, alpha, n, cover, seed, extra):
        plan = affinity.SamplingPlan(num_tasks=t, subset_size=alpha, num_subsets=n,
                                     seed=seed, min_pair_coverage=cover)
        got = affinity.sample_subsets(plan)
        assert got == _ix_sample_subsets(plan)
        assert all(type(s) is tuple and all(type(i) is int for i in s) for s in got)
        assert (len(got) > n) == extra

    def test_same_coverage_error_as_ix_count(self):
        plan = affinity.SamplingPlan(num_tasks=30, subset_size=3, num_subsets=4,
                                     seed=9, min_pair_coverage=1)
        with pytest.raises(TaskAffError) as want:
            _ix_sample_subsets(plan)
        with pytest.raises(TaskAffError) as got:
            affinity.sample_subsets(plan)
        assert str(got.value) == str(want.value)


class TestCollectEvaluations:
    def test_singleton_matches_stl_score(self, small_instance):
        tasks, feats = planted.to_task_set(small_instance)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        evals = affinity.collect_evaluations(tasks, [(3,)], spec, base_seed=5,
                                             features=feats)
        model = learners.train_subset(None, tasks, [3], spec, seed=5, features=feats)
        expected = learners.evaluate(model, tasks, 3, "val", "negative-mse")
        assert evals.scores[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_mlp_subset_k_trains_with_base_seed_xor_k(self, small_instance):
        # a base seed past 2**63 is a valid numpy seed; int64 XOR overflowed on it
        tasks, feats = planted.to_task_set(small_instance)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=4, epochs=5,
                                    metric="negative-mse")
        base = 2**64 + 5
        evals = affinity.collect_evaluations(tasks, [(0, 1), (2, 4)], spec, base_seed=base,
                                             features=feats, indices=[3, 8])
        for row, (k, subset) in enumerate(((3, (0, 1)), (8, (2, 4)))):
            model = learners.train_subset(None, tasks, subset, spec, seed=base ^ k,
                                          features=feats)
            assert evals.scores[row].tolist() == [
                learners.evaluate(model, tasks, i, "val", "negative-mse") for i in subset]

    def test_identical_subsets_identical_scores(self, small_instance):
        tasks, feats = planted.to_task_set(small_instance)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        evals = affinity.collect_evaluations(tasks, [(0, 1)] * 3, spec,
                                             base_seed=1, features=feats)
        evals = records(evals)
        assert evals[0].scores == evals[1].scores == evals[2].scores

    def test_scores_match_projection_oracle(self, small_instance):
        # every pipeline score equals the closed-form projected loss
        inst = small_instance
        tasks, feats = planted.to_task_set(inst)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        plan = affinity.SamplingPlan(num_tasks=6, subset_size=3, num_subsets=40, seed=6)
        subsets = affinity.sample_subsets(plan)
        evals = affinity.collect_evaluations(tasks, subsets, spec, base_seed=2,
                                             features=feats)
        rows = inst.observed_rows
        y_obs = inst.labels[:, rows]
        sig = sigma_tilde(inst)
        for ev in records(evals):
            ybar = y_obs[list(ev.subset)].mean(axis=0)
            for i in ev.subset:
                oracle = -np.sum((sig @ ybar - y_obs[i]) ** 2) / rows.size
                assert ev.scores[i] == pytest.approx(oracle, rel=1e-9)


class TestEstimateAffinity:
    def test_single_eval_pair(self):
        aff = affinity.estimate_affinity(
            make_log([make_eval((1, 2), {1: 0.5, 2: 0.7})]), num_tasks=3)
        assert aff.theta[1, 2] == 0.5
        assert aff.theta[2, 1] == 0.7
        assert aff.theta[1, 1] == 0.5
        assert aff.theta[2, 2] == 0.7

    def test_two_eval_mean(self):
        evals = [make_eval((1, 2), {1: 0.4, 2: 0.0}),
                 make_eval((1, 2), {1: 0.6, 2: 1.0})]
        aff = affinity.estimate_affinity(make_log(evals), num_tasks=3)
        assert aff.theta[1, 2] == pytest.approx(0.5)

    def test_imputation_uses_diagonal(self):
        evals = [make_eval((0, 1), {0: 0.2, 1: 0.4}),
                 make_eval((2, 3), {2: 0.8, 3: 0.6})]
        aff = affinity.estimate_affinity(make_log(evals), num_tasks=4)
        assert aff.imputed[0, 2]
        assert aff.theta[0, 2] == aff.theta[0, 0]
        assert not aff.imputed[0, 1]

    def test_counts_identity(self):
        rng = np.random.default_rng(5)
        plan = affinity.SamplingPlan(num_tasks=7, subset_size=3, num_subsets=60, seed=0)
        subsets = affinity.sample_subsets(plan)
        evals = [make_eval(s, {i: float(rng.random()) for i in s}) for s in subsets]
        aff = affinity.estimate_affinity(make_log(evals), 7)
        for i in range(7):
            n_i = sum(1 for s in subsets if i in s)
            off_diag = aff.counts[i].sum() - aff.counts[i, i]
            assert off_diag == (3 - 1) * n_i
        np.testing.assert_array_equal(aff.counts, aff.counts.T)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_regroup_and_average_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        t = 6
        plan = affinity.SamplingPlan(num_tasks=t, subset_size=3,
                                     num_subsets=25, seed=seed)
        subsets = affinity.sample_subsets(plan)
        evals = [make_eval(s, {i: float(rng.standard_normal()) for i in s})
                 for s in subsets]
        aff = affinity.estimate_affinity(make_log(evals), t)
        # independent regroup: collect values per (i, j), exact mean via fsum
        buckets = {}
        for ev in evals:
            for i in ev.subset:
                for j in ev.subset:
                    buckets.setdefault((i, j), []).append(ev.scores[i])
        for (i, j), vals in buckets.items():
            assert aff.theta[i, j] == math.fsum(vals) / len(vals)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        t = 6
        plan = affinity.SamplingPlan(num_tasks=t, subset_size=3, num_subsets=30, seed=3)
        subsets = affinity.sample_subsets(plan)
        scores = {s: {i: float(rng.random()) for i in s} for s in set(subsets)}
        evals = [make_eval(s, dict(scores[s])) for s in subsets]
        aff = affinity.estimate_affinity(make_log(evals), t)
        perm = np.array([3, 5, 0, 1, 4, 2])
        permuted_evals = [
            make_eval(tuple(sorted(perm[list(s)])),
                      {int(perm[i]): scores[s][i] for i in s})
            for s in subsets
        ]
        aff_p = affinity.estimate_affinity(make_log(permuted_evals), t)
        np.testing.assert_array_equal(aff_p.theta[np.ix_(perm, perm)], aff.theta)

    def test_mixed_metrics_rejected(self, tmp_path):
        # a log is read as the run's metric, so a row of another is refused
        csv_path = tmp_path / "evals.csv"
        affinity.save_eval_log(make_log([make_eval((0, 1), {0: 0.1, 1: 0.2})]), csv_path,
                               "f1", 0)
        affinity.save_eval_log(make_log([make_eval((0, 1), {0: 0.1, 1: 0.2})]), csv_path,
                               "negative-mse", 0, indices=[1], append=True)
        for metric, line in (("f1", 4), ("negative-mse", 2)):
            with pytest.raises(ParseError, match=f"^line {line}: "):
                affinity.load_eval_log(csv_path, [[0, 1], [0, 1]], metric)

    def test_task_id_out_of_range(self):
        with pytest.raises(InvalidInputError):
            affinity.estimate_affinity(make_log([make_eval((0, 5), {0: 0.0, 5: 0.0})]), 3)


class TestConvergenceTrace:
    def _random_evals(self, rng, t=5, alpha=3, n=40):
        plan = affinity.SamplingPlan(num_tasks=t, subset_size=alpha,
                                     num_subsets=n, seed=int(rng.integers(1e6)))
        return make_log([make_eval(s, {i: float(rng.random()) for i in s})
                         for s in affinity.sample_subsets(plan)])

    def test_full_prefix_distance_zero(self):
        rng = np.random.default_rng(0)
        evals = self._random_evals(rng)
        assert affinity.convergence_trace(evals, 5, [len(evals)])[1] == [0.0]

    def test_constant_scores_zero_everywhere(self):
        plan = affinity.SamplingPlan(num_tasks=5, subset_size=3, num_subsets=30, seed=2)
        evals = make_log([make_eval(s, {i: 0.75 for i in s})
                          for s in affinity.sample_subsets(plan)])
        assert affinity.convergence_trace(evals, 5, [5, 15, 30])[1] == [0.0, 0.0, 0.0]

    def test_distance_shrinks_with_prefix_monte_carlo(self, small_instance):
        # deterministic learner: larger prefixes approximate the full-log
        # affinity better in at least 8/10 seeds
        inst = small_instance
        tasks, feats = planted.to_task_set(inst)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        hits = 0
        for seed in range(10):
            plan = affinity.SamplingPlan(num_tasks=6, subset_size=3,
                                         num_subsets=120, seed=seed)
            subsets = affinity.sample_subsets(plan)
            evals = affinity.collect_evaluations(tasks, subsets, spec, seed,
                                                 features=feats)
            d_small, d_big = affinity.convergence_trace(evals, 6, [12, 60])[1]
            hits += d_big < d_small
        assert hits >= 8

    @pytest.mark.parametrize("last", [299, 300])
    def test_matches_prefix_estimates_from_one_regroup(self, monkeypatch, last):
        # the trace reads prefixes off one regroup, the whole log's included;
        # theta and each prefix must equal an estimate_affinity of that log
        # itself, bit for bit
        rng = np.random.default_rng(7)
        log = self._random_evals(rng, t=8, alpha=3, n=300)
        full = affinity.estimate_affinity(log, 8)
        checkpoints = [1, 7, 40, 41, 150, last]
        expected = [float(np.max(np.abs(affinity.estimate_affinity(affinity.EvalLog(
            log.subsets[:c], log.scores[:c]), 8).theta - full.theta)))
            for c in checkpoints]
        calls, regroup = [], affinity._regroup
        monkeypatch.setattr(affinity, "_regroup", lambda *a: calls.append(a[3]) or regroup(*a))
        aff, trace = affinity.convergence_trace(log, 8, checkpoints)
        assert trace == expected
        assert calls == [sorted({*checkpoints, 300})]
        np.testing.assert_array_equal(aff.theta.view(np.int64), full.theta.view(np.int64))
        np.testing.assert_array_equal(aff.counts, full.counts)

    def test_checkpoint_validation(self):
        rng = np.random.default_rng(1)
        evals = self._random_evals(rng, n=10)
        for checkpoints in ([4, 4], [4, 99], [0]):
            with pytest.raises(InvalidInputError):
                affinity.convergence_trace(evals, 5, checkpoints)
        with pytest.raises(InvalidInputError):
            affinity.convergence_trace(affinity.EvalLog(np.empty((0, 3)), np.empty((0, 3))), 5, [])


class TestRegroup:
    def test_prefixes_match_list_fsum_reference_bitwise(self):
        # each prefix's theta and counts against per-pair Python lists of the
        # prefix's scores, in subset order, each averaged with fsum
        rng = np.random.default_rng(11)
        t, alpha, n = 9, 4, 200
        subsets = affinity.subset_array(affinity.sample_subsets(affinity.SamplingPlan(
            num_tasks=t, subset_size=alpha, num_subsets=n, seed=5)), t)
        scores = rng.standard_normal((n, alpha)) * 10.0 ** rng.integers(-8, 8, (n, alpha))
        prefixes = [1, 2, 17, 64, 199, 200]
        for c, (theta, counts) in zip(prefixes,
                                      affinity._regroup(subsets, scores, t, prefixes)):
            buckets = {}
            for row, vals in zip(subsets[:c].tolist(), scores[:c].tolist()):
                for i, f in zip(row, vals):
                    for j in row:
                        buckets.setdefault((i, j), []).append(f)
            expected, expected_counts = np.zeros((t, t)), np.zeros((t, t), dtype=np.int64)
            for (i, j), vals in buckets.items():
                expected[i, j] = math.fsum(vals) / len(vals)
                expected_counts[i, j] = len(vals)
            assert theta.tobytes() == expected.tobytes(), c
            assert np.array_equal(counts, expected_counts), c

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_the_all_pairs_version(self, seed):
        # task 11 is never sampled; scores span 16 orders of magnitude, so a
        # sum in any other grouping than fsum's would show
        rng = np.random.default_rng(seed)
        t, alpha, n = 12, 5, 300
        subsets = affinity.subset_array(affinity.sample_subsets(affinity.SamplingPlan(
            num_tasks=t - 1, subset_size=alpha, num_subsets=n, seed=seed)), t)
        scores = rng.standard_normal((n, alpha)) * 10.0 ** rng.integers(-8, 8, (n, alpha))
        prefixes = [1, 3, 40, 151, 299, 300]
        got = affinity._regroup(subsets, scores, t, prefixes)
        want = list(all_pairs_regroup(subsets, scores, t, prefixes))
        assert len(got) == len(want) == len(prefixes)
        for c, new, old in zip(prefixes, got, want):
            for a, b in zip(new, old):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), c
        assert not got[-1][1][t - 1].any() and not got[-1][1][:, t - 1].any()

    def test_memory_bounded_at_paper_scale(self):
        # verify-theory's log: 8,000 subsets of 10 at T = 100, 800,000 pair
        # values (6.1 MiB as doubles). Holding them all as Python floats at
        # once takes about seven times that; the bound is four times.
        import tracemalloc
        plan = affinity.SamplingPlan(num_tasks=100, subset_size=10, num_subsets=8000,
                                     seed=4, min_pair_coverage=1)
        subsets = affinity.subset_array(affinity.sample_subsets(plan), 100)
        scores = np.random.default_rng(0).standard_normal(subsets.shape)
        tracemalloc.start()
        try:
            (theta, counts), = affinity._regroup(subsets, scores, 100, [8000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = counts.sum() * 8
        print(f"peak {peak / 2**20:.1f} MiB = {peak / values:.2f} x the pair values")
        assert counts.sum() == 800_000 and peak < 4 * values, f"peak {peak / 2**20:.1f} MiB"


class TestProbes:
    def test_planted_cross_task_breaks_monotonicity(self, small_instance):
        # the paper's f_i(S) is not monotone: along a chain that first adds a
        # same-group task, then a cross-group one, the target's score drops
        inst = small_instance
        tasks, feats = planted.to_task_set(inst)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        target, ally, rival = 0, 1, 5  # groups: {0,1,2}, {3,4,5}
        chain = [(target,), (target, ally), (target, ally, rival)]
        # one call per subset: a log holds subsets of one size
        score = [records(affinity.collect_evaluations(tasks, [s], spec, 0,
                                                      features=feats))[0].scores[target]
                 for s in chain]
        assert score[2] < score[1]


class TestExhaustiveMatchesPopulation:
    def test_pipeline_theta_equals_population_average(self, small_instance):
        # exhaustive sampling + closed-form learner reproduces the exact
        # population affinity (negated: pipeline is performance-oriented)
        inst = small_instance
        tasks, feats = planted.to_task_set(inst)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        subsets = list(itertools.combinations(range(6), 3))
        evals = affinity.collect_evaluations(tasks, subsets, spec, 0,
                                             features=feats)
        aff = affinity.estimate_affinity(evals, 6)
        pop = planted.population_theta(inst, 3)
        np.testing.assert_allclose(-aff.theta, pop.theta, rtol=1e-12, atol=1e-15)


class TestLogPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        plan = affinity.SamplingPlan(num_tasks=5, subset_size=3, num_subsets=12, seed=1)
        evals = [make_eval(s, {i: float(rng.standard_normal()) for i in s})
                 for s in affinity.sample_subsets(plan)]
        affinity.save_eval_log(make_log(evals), tmp_path / "evals.csv", "negative-mse", 0)
        subsets = [ev.subset for ev in evals]
        loaded = records(affinity.EvalLog(subsets, affinity.load_eval_log(
            tmp_path / "evals.csv", subsets, "negative-mse")))
        assert len(loaded) == len(evals)
        for a, b in zip(evals, loaded):
            assert a.subset == b.subset
            assert a.scores == b.scores  # repr round-trips float64 exactly

    def test_seed_and_metric_columns_come_from_the_run(self, tmp_path):
        # subset k's rows carry the run's metric and base_seed ^ k, its
        # appended rows included
        log = make_log([make_eval((0, 1), {0: 0.5, 1: 0.25}),
                        make_eval((1, 2), {1: -1.5, 2: 3.0})])
        csv_path = tmp_path / "evals.csv"
        affinity.save_eval_log(log, csv_path, "f1", 2**40 + 5)
        affinity.save_eval_log(log, csv_path, "f1", 2**40 + 5, indices=[6, 3], append=True)
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subset_index", "task_id", "score", "metric", "seed"]
        assert [(k, metric, seed) for k, _, _, metric, seed in rows[1:]] == [
            (str(k), "f1", str((2**40 + 5) ^ k)) for k in (0, 0, 1, 1, 6, 6, 3, 3)]

    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        subsets = np.sort(np.array([rng.choice(40, size=4, replace=False)
                                    for _ in range(30)]), axis=1)
        scores = rng.standard_normal((30, 4)) * 10.0 ** rng.integers(-300, 300, (30, 4))
        log = affinity.EvalLog(subsets, scores)
        csv_path = tmp_path / "evals.csv"
        affinity.save_eval_log(log, csv_path, "f1", int(rng.integers(0, 2**62)))
        loaded = affinity.load_eval_log(csv_path, log.subsets, "f1")
        np.testing.assert_array_equal(loaded.view(np.int64), log.scores.view(np.int64))

    def test_missing_rows_read_as_nan_and_refused_by_the_log(self, tmp_path):
        # subset 1 has no rows, subset 2 one of its two: NaN marks each gap,
        # and an EvalLog refuses the first
        evals = [make_eval((0, 1), {0: 0.5, 1: 0.25}),
                 make_eval((1, 2), {1: -1.5, 2: 3.0}),
                 make_eval((0, 2), {0: 0.125, 2: 2.0})]
        csv_path, subsets = tmp_path / "evals.csv", [[0, 1], [1, 2], [0, 2]]
        affinity.save_eval_log(make_log(evals[:1]), csv_path, "negative-mse", 7)
        affinity.save_eval_log(make_log(evals[2:]), csv_path, "negative-mse", 7, indices=[2],
                               append=True)
        with open(csv_path, "a", encoding="utf-8", newline="") as fh:
            fh.write("5,0,1.0,negative-mse,2\r\n")  # a subset the log does not hold
        lines = csv_path.read_bytes().splitlines(keepends=True)
        csv_path.write_bytes(b"".join(lines[:4] + lines[5:]))  # subset 2's task 2
        scores = affinity.load_eval_log(csv_path, subsets, "negative-mse")
        np.testing.assert_array_equal(scores, [[0.5, 0.25], [np.nan, np.nan], [0.125, np.nan]])
        with pytest.raises(InvalidInputError,
                           match=r"^evaluation log holds no row for \(subset, task\) \(1, 1\)$"):
            affinity.EvalLog(subsets, scores)

    def test_cut_last_line_skipped_inner_one_refused(self, tmp_path):
        evals = [make_eval((0, 1), {0: 0.5, 1: 0.25}),
                 make_eval((1, 2), {1: -1.5, 2: 3.0})]
        csv_path, subsets = tmp_path / "evals.csv", [[0, 1], [1, 2]]
        affinity.save_eval_log(make_log(evals), csv_path, "negative-mse", 7)
        with open(csv_path, "a", encoding="utf-8", newline="") as fh:
            fh.write("2,0,0.12")  # an append cut short
        assert records(affinity.EvalLog(subsets, affinity.load_eval_log(
            csv_path, subsets, "negative-mse"))) == evals
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        csv_path.write_text("\n".join(lines[:2] + ["1,1,0.5,negative-mse,x"] + lines[2:]))
        with pytest.raises(ParseError, match="^line 3: malformed row "):
            affinity.load_eval_log(csv_path, subsets, "negative-mse")

    def test_ragged_log_rejected(self):
        with pytest.raises(InvalidInputError):
            affinity.EvalLog([(0, 1), (0, 1, 2)], [[0.0, 0.0], [0.0, 0.0, 0.0]])
        tasks = planted.to_task_set(planted.generate(planted.PlantedConfig(
            num_tasks=4, num_groups=2, feature_dim=3, num_nodes=30, observed=20)))[0]
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        with pytest.raises(InvalidInputError):
            affinity.collect_evaluations(tasks, [(0, 1), (1, 2, 3)], spec, 0,
                                         features=np.ones((30, 3)))

    def test_affinity_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        evals = [make_eval((0, 1), {0: rng.random(), 1: rng.random()})]
        aff = affinity.estimate_affinity(make_log(evals), 3)
        affinity.save_affinity(aff, tmp_path)
        loaded = affinity.load_affinity(tmp_path)
        np.testing.assert_allclose(loaded.theta, aff.theta, rtol=1e-15)
        np.testing.assert_array_equal(loaded.counts, aff.counts)
        np.testing.assert_array_equal(loaded.imputed, aff.imputed)
        sidecar = tmp_path / "affinity.json"
        assert json.loads(sidecar.read_text()) == {"imputed": np.argwhere(aff.imputed).tolist()}
        # an older affinity.json also holds an "orientation" key, which is ignored
        sidecar.write_text(json.dumps({"imputed": np.argwhere(aff.imputed).tolist(),
                                       "orientation": "performance"}))
        np.testing.assert_array_equal(affinity.load_affinity(tmp_path).theta, loaded.theta)


class TestRunLog:
    """affinity.run_log brings an affinity directory up to its plan, and every
    way of stopping a run resumes to the log a fresh run returns."""

    SPECS = {"linear": learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse"),
             "mlp": learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=4, epochs=15,
                                         metric="negative-mse")}
    PLAN = affinity.SamplingPlan(num_tasks=6, subset_size=3, num_subsets=12, seed=4)
    FINGERPRINT = {"learner": "l"}

    @pytest.fixture(scope="class")
    def dataset(self):
        inst = planted.generate(planted.PlantedConfig(
            num_tasks=6, num_groups=2, feature_dim=4, num_nodes=60, observed=50, seed=3))
        return planted.to_task_set(inst, holdout_frac=0.25)

    def run(self, aff_dir, learner, dataset, loads):
        def load_dataset():
            loads.append(aff_dir)
            return dataset
        return affinity.run_log(aff_dir, self.PLAN, self.SPECS[learner], self.FINGERPRINT,
                                load_dataset)

    def assert_same_log(self, got, want):
        np.testing.assert_array_equal(got.subsets, want.subsets)
        np.testing.assert_array_equal(got.scores.view(np.int64), want.scores.view(np.int64))

    @pytest.mark.parametrize("learner", sorted(SPECS))
    def test_every_rerun_returns_the_fresh_log(self, tmp_path, dataset, learner):
        fresh_dir, loads = tmp_path / "fresh", []
        fresh, aff = self.run(fresh_dir, learner, dataset, loads)
        tasks, features = dataset
        oracle = affinity.collect_evaluations(tasks, affinity.sample_subsets(self.PLAN),
                                              self.SPECS[learner], self.PLAN.seed,
                                              features=features)
        self.assert_same_log(fresh, oracle)
        np.testing.assert_array_equal(aff.theta, affinity.estimate_affinity(oracle, 6).theta)
        assert loads == [fresh_dir]
        files = {p.name: p.read_bytes() for p in fresh_dir.iterdir()}

        # Earlier versions also listed the done subsets in completed.idx and
        # rewrote evals.csv before it; a kill between the two left that file
        # whole behind a cut evals.csv, and they refused every resume of it.
        # A directory of theirs holds completed.idx, here cut to 5 lines.
        # evals.csv alone is the resume state, so both resume, and the stale
        # file is left as it is.
        whole, first5 = ("".join(f"{k}\n" for k in range(n)) for n in (len(fresh), 5))
        for name, committed, tail, idx in (("cut-mid-subset", 5, "", None),
                                           ("cut-row", 7, "7,1,-0.4", None),
                                           ("wedged", 5, "", whole),
                                           ("older-version", len(fresh), "", first5)):
            copy = tmp_path / name
            shutil.copytree(fresh_dir, copy)
            cut_evals(copy, committed, 2, tail)
            if idx is not None:
                (copy / "completed.idx").write_text(idx)
            loads.clear()
            self.assert_same_log(self.run(copy, learner, dataset, loads)[0], fresh)
            assert loads == ([] if committed == len(fresh) else [copy])
            assert {p.name: p.read_bytes() for p in copy.iterdir()} == (
                files if idx is None else {**files, "completed.idx": idx.encode()})

        def no_load():
            raise AssertionError("a complete log needs no dataset")

        log, _ = affinity.run_log(fresh_dir, self.PLAN, self.SPECS[learner],
                                  self.FINGERPRINT, no_load)
        self.assert_same_log(log, fresh)
        assert {p.name: p.read_bytes() for p in fresh_dir.iterdir()} == files
        opened, opened_aff = affinity.open_log(fresh_dir, {"learner": "l"}, "negative-mse")
        self.assert_same_log(opened, fresh)
        np.testing.assert_array_equal(opened_aff.theta, aff.theta)

    def test_mixed_train_masks_refused_before_any_file(self, tmp_path, dataset):
        tasks, features = dataset
        masks = list(tasks.train_mask)
        masks[2] = masks[2][:-1]
        mixed = (type(tasks)(tasks.num_nodes, tasks.labels, tuple(masks), tasks.val_mask,
                             tasks.test_mask), features)
        with pytest.raises(InvalidInputError, match="^closed-form-linear needs one train mask "
                           "and one val mask shared by every task; use --learner mlp$"):
            self.run(tmp_path / "aff", "linear", mixed, [])
        assert not (tmp_path / "aff").exists()

    def test_other_fingerprint_refused(self, tmp_path, dataset):
        self.run(tmp_path, "linear", dataset, [])
        with pytest.raises(TaskAffError, match="learner differ from this run; pass those of that run"):
            affinity.open_log(tmp_path, {"learner": "other"}, "negative-mse")

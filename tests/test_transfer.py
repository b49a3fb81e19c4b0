import re

import numpy as np
import pytest

from taskaff import affinity, transfer
from taskaff.errors import InvalidInputError, TrainingError
from taskaff.learners import _sigmoid
from tests.conftest import make_eval, make_log


def simple_aff(t=4):
    rng = np.random.default_rng(0)
    theta = rng.random((t, t))
    return affinity.AffinityMatrix(theta, np.ones((t, t), dtype=np.int64))


def dense(cols, values, t):
    """The compact rows as dense T-wide rows, zero outside their columns."""
    x = np.zeros((len(cols), t))
    x[np.arange(len(cols))[:, None], cols] = values
    return x


def fit_logistic(x, y, l2=transfer.DEFAULT_L2, epochs=2000, lr=0.5, seed=0):
    """One task's fit on dense rows, one gradient-descent loop per task: the
    oracle of the batched fit_all. Returns (weights, bias, degenerate)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(set(y.tolist())) < 2:
        return np.zeros(x.shape[1]), (50.0 if y[0] == 1 else -50.0), True
    w = np.random.default_rng(seed).normal(0.0, 0.01, size=x.shape[1])
    b = 0.0
    for epoch in range(epochs):
        p = _sigmoid(x @ w + b)
        w -= lr * (x.T @ (p - y) / x.shape[0] + l2 * w)
        b -= lr * float(np.mean(p - y))
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise TrainingError(f"logistic parameters became non-finite, epoch {epoch}")
    return w, b, False


def fit_loop(examples, t, seed=0, **kw):
    """fit_all as one fit_logistic per task, in ascending task order."""
    return {tid: fit_logistic(dense(cols, values, t), y, seed=seed ^ tid, **kw)
            for tid, (cols, values, y) in sorted(examples.items())}


class TestBuildExamples:
    def test_tie_is_non_negative_transfer(self):
        aff = simple_aff()
        evals = [make_eval((0, 1), {0: 0.5, 1: 0.3})]
        stl = [0.5, 0.4, 0.0, 0.0]
        ex = transfer.build_examples(make_log(evals), stl, aff)
        assert ex[0][2][0] == 0  # tie
        assert ex[1][2][0] == 1  # 0.3 < 0.4

    def test_singleton_always_label_zero(self):
        aff = simple_aff()
        evals = [make_eval((2,), {2: -1.0})]
        ex = transfer.build_examples(make_log(evals), [0.0, 0.0, -1.0, 0.0], aff)
        assert ex[2][2][0] == 0

    def test_features_masked_to_subset(self):
        aff = simple_aff(t=5)
        evals = [make_eval((1, 3), {1: 0.2, 3: 0.9})]
        ex = transfer.build_examples(make_log(evals), np.zeros(5), aff)
        cols, values = ex[1][0][0], ex[1][1][0]
        assert cols.tolist() == [1, 3]
        assert values[0] == aff.theta[1, 1]
        assert values[1] == aff.theta[1, 3]
        # zero outside the subset: weights on columns 0, 2 and 4 add nothing
        outside = transfer.LogisticModel(weights=np.array([1.0, 0, 1.0, 0, 1.0]), bias=0.0)
        assert outside.predict_proba(ex[1][0], ex[1][1])[0] == 0.5

    def test_missing_stl_score(self):
        # T = 4 references but 3 scores: the last task's is missing
        aff = simple_aff()
        with pytest.raises(InvalidInputError):
            transfer.build_examples(make_log([make_eval((0, 1), {0: 0.1, 1: 0.1})]),
                                    [0.0, 0.0, 0.0], aff)

    @staticmethod
    def loop_examples(log, stl_scores, aff):
        """build_examples as one dense T-vector per membership, in log order:
        {i: (subsets, the vectors at their subset's columns, labels, vectors)}."""
        by_task = {}
        for members, scores in zip(log.subsets.tolist(), log.scores.tolist()):
            for i, score in zip(members, scores):
                feats = np.zeros(aff.num_tasks)
                feats[members] = aff.theta[i, members]
                by_task.setdefault(i, []).append((members, feats[members],
                                                  int(score < stl_scores[i]), feats))
        return {i: tuple(map(np.array, zip(*rows))) for i, rows in sorted(by_task.items())}

    @pytest.mark.parametrize("alpha", [1, 4])
    def test_matches_per_membership_loop(self, alpha):
        rng = np.random.default_rng(3)
        t = 9
        aff = simple_aff(t)
        subsets = [tuple(sorted(rng.choice(t, size=alpha, replace=False).tolist()))
                   for _ in range(30)]
        # scores on a coarse grid, so some tie their reference
        evals = [make_eval(s, {i: float(rng.integers(-2, 3)) for i in s}) for s in subsets]
        stl = [float(rng.integers(-2, 3)) for _ in range(t)]
        log = make_log(evals)
        got = transfer.build_examples(log, stl, aff)
        want = self.loop_examples(log, stl, aff)
        assert list(got) == list(want)
        assert list(got) == sorted(got)  # ascending task ids
        for tid in want:
            assert type(tid) is int and len(got[tid]) == 3
            for g, w in zip(got[tid], want[tid][:3]):
                assert g.shape == w.shape and g.dtype.kind == w.dtype.kind
                assert np.array_equal(g, w)
            # scattered back, the compact rows are the dense masked rows
            assert np.array_equal(dense(got[tid][0], got[tid][1], t), want[tid][3])

    def test_stl_of_wrong_shape_refused(self):
        # the references are one score per task of theta, T = 6
        aff = simple_aff(t=6)
        log = make_log([make_eval((1, 4), {1: 0.0, 4: 0.0}),
                        make_eval((0, 5), {0: 0.0, 5: 0.0}),
                        make_eval((2, 3), {2: 0.0, 3: 0.0})])
        for stl, shape in ((np.zeros(5), "(5,)"), (np.zeros(7), "(7,)"),
                           (np.zeros((6, 1)), "(6, 1)"), (0.0, "()")):
            with pytest.raises(InvalidInputError, match="must be 6 scores") as info:
                transfer.build_examples(log, stl, aff)
            assert str(info.value).endswith(f"an array of shape {shape}")

    def test_label_counts_match_recount(self):
        rng = np.random.default_rng(1)
        t = 6
        aff = simple_aff(t)
        plan = affinity.SamplingPlan(num_tasks=t, subset_size=3, num_subsets=40, seed=2)
        subsets = affinity.sample_subsets(plan)
        evals = [make_eval(s, {i: float(rng.standard_normal()) for i in s})
                 for s in subsets]
        stl = [float(rng.standard_normal()) for _ in range(t)]
        ex = transfer.build_examples(make_log(evals), stl, aff)
        # independent recount straight off the log
        expected = sum(1 for ev in evals for i in ev.subset
                       if ev.scores[i] < stl[i])
        got = sum(int(y.sum()) for _, _, y in ex.values())
        assert got == expected
        assert sum(len(y) for _, _, y in ex.values()) == 3 * len(subsets)


def one_task(x, y):
    """Dense rows of one task (id 0) as compact rows over all their columns."""
    x = np.asarray(x, dtype=float)
    return {0: (np.tile(np.arange(x.shape[1]), (len(x), 1)), x, np.asarray(y))}


class TestFitLogistic:
    def test_separable_one_dimensional(self):
        x = np.array([[-1.0], [1.0], [-0.8], [0.9]])
        y = np.array([0, 1, 0, 1])
        ex = one_task(x, y)
        model = transfer.fit_all(ex, 1, l2=1e-4, epochs=4000, lr=1.0, seed=0)[0]
        assert np.array_equal((model.predict_proba(*ex[0][:2]) >= 0.5).astype(int), y)
        # decision boundary near zero
        boundary = -model.bias / model.weights[0]
        assert abs(boundary) < 0.4

    def test_single_class_degenerate(self):
        model = transfer.fit_all(one_task([[0.5], [1.5]], [1, 1]), 1)[0]
        assert model.predict_proba(np.array([[0]]), np.array([[123.0]]))[0] >= 0.5

    def test_matches_second_opinion_optimizer(self):
        # same regularized objective minimized by scipy; losses agree to 1e-4
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 5))
        w_true = rng.standard_normal(5)
        y = (x @ w_true + 0.3 * rng.standard_normal(200) > 0).astype(int)
        l2 = 1e-3
        model = transfer.fit_all(one_task(x, y), 5, l2=l2, epochs=20_000, lr=1.0, seed=0)[0]

        def objective(wb):
            w, b = wb[:-1], wb[-1]
            logits = x @ w + b
            nll = np.mean(np.logaddexp(0.0, logits) - y * logits)
            return nll + 0.5 * l2 * np.sum(w**2)

        from scipy.optimize import minimize

        res = minimize(objective, np.zeros(6), method="BFGS")
        ours = objective(np.concatenate([model.weights, [model.bias]]))
        assert ours - res.fun < 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(30)
        ex = one_task(v[:, None], (v > 0).astype(int))
        a = transfer.fit_all(ex, 1, seed=7)[0]
        b = transfer.fit_all(ex, 1, seed=7)[0]
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


class TestFitAllMatchesPerTaskLoop:
    """The batched fit against one gradient-descent loop per task, on dense
    rows: the same models up to the order of floating-point sums."""

    T = 9

    def examples(self, regime, seed=0):
        rng = np.random.default_rng(seed)
        plan = affinity.SamplingPlan(num_tasks=self.T, subset_size=3, num_subsets=60,
                                     seed=seed)
        log = make_log([make_eval(s, {i: float(rng.standard_normal()) for i in s})
                        for s in affinity.sample_subsets(plan)])
        medians = {i: float(np.median(log.scores[log.subsets == i])) for i in range(self.T)}
        # +inf labels every example 1 and -inf every example 0; a median splits
        one_class = {i: np.inf if i % 2 else -np.inf for i in range(self.T)}
        stl = {"single-class": one_class,
               "mixed": {i: medians[i] if i < self.T // 2 else one_class[i]
                         for i in range(self.T)},
               "two-class": medians}[regime]
        aff = affinity.AffinityMatrix(rng.standard_normal((self.T, self.T)),
                                      np.ones((self.T, self.T), dtype=np.int64))
        return transfer.build_examples(log, [stl[i] for i in range(self.T)], aff)

    @pytest.mark.parametrize("regime", ["single-class", "mixed", "two-class"])
    def test_weights_biases_and_probabilities(self, regime):
        ex = self.examples(regime)
        held = self.examples(regime, seed=1)
        settings = dict(l2=1e-3, epochs=300, lr=0.5)
        got = transfer.fit_all(ex, self.T, seed=11, **settings)
        want = fit_loop(ex, self.T, seed=11, **settings)
        two_class = [tid for tid, (_, _, y) in ex.items() if 0 < y.mean() < 1]
        assert len(two_class) == {"single-class": 0, "mixed": self.T // 2,
                                  "two-class": self.T}[regime]
        assert list(got) == list(want) == sorted(ex)
        for tid, (w, b, degenerate) in want.items():
            model = got[tid]
            assert (tid in two_class) is not degenerate
            assert type(model.bias) is float
            np.testing.assert_allclose(model.weights, w, rtol=1e-12, atol=0)
            np.testing.assert_allclose(model.bias, b, rtol=1e-12, atol=0)
            cols, values, _ = held[tid]
            np.testing.assert_allclose(model.predict_proba(cols, values),
                                       _sigmoid(dense(cols, values, self.T) @ w + b),
                                       rtol=1e-12, atol=0)

    def test_divergence_raises_at_the_loops_epoch(self):
        ex = self.examples("two-class")
        cols, values, y = ex[4]
        ex[4] = (cols, values * 1e200, y)  # only task 4 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError) as want:
                fit_loop(ex, self.T)
            with pytest.raises(TrainingError, match="of task 4 became non-finite") as got:
                transfer.fit_all(ex, self.T)
        epoch = re.search(r", epoch \d+$", str(want.value)).group()
        assert str(got.value).endswith(epoch)

    @pytest.mark.parametrize("setting", [{"epochs": 0}, {"lr": -1.0}, {"lr": 0.0},
                                         {"lr": np.inf}, {"lr": np.nan}, {"l2": -5.0},
                                         {"l2": np.inf}, {"l2": np.nan}])
    def test_settings_that_cannot_fit_refused(self, setting):
        with pytest.raises(InvalidInputError, match="^logistic settings need"):
            transfer.fit_all(self.examples("single-class"), self.T, **setting)


class TestEvaluateF1:
    def _examples(self, labels):
        y = np.array(labels)
        return np.zeros((y.size, 1), dtype=int), np.where(y, 1.0, -1.0)[:, None], y

    def _perfect_model(self):
        return transfer.LogisticModel(weights=np.array([10.0]), bias=0.0)

    def test_perfect_predictions(self):
        models = {0: self._perfect_model()}
        macro, detail = transfer.evaluate_f1(models, {0: self._examples([1, 0, 1])})
        assert macro == 1.0
        assert detail["excluded"] == []

    def test_all_negative_predictions(self):
        models = {0: transfer.LogisticModel(weights=np.zeros(1), bias=-10.0)}
        macro, _ = transfer.evaluate_f1(models, {0: self._examples([1, 1, 0])})
        assert macro == 0.0

    def test_tasks_without_positives_excluded(self):
        models = {0: self._perfect_model(), 1: self._perfect_model()}
        held = {0: self._examples([1, 0]), 1: self._examples([0, 0])}
        macro, detail = transfer.evaluate_f1(models, held)
        assert detail["excluded"] == [1]
        assert macro == 1.0

    def test_constant_baseline_and_nt_rate(self):
        # always predicting negative transfer: F1 = 2p / (2p + negatives), over
        # the tasks with a positive; the rate counts every held-out example
        models = {k: self._perfect_model() for k in range(3)}
        held = {0: self._examples([1, 0, 1]), 1: self._examples([0, 0]),
                2: self._examples([1, 0, 0, 0])}
        macro, detail = transfer.evaluate_f1(models, held)
        assert macro == 1.0
        assert detail["constant"] == pytest.approx((4 / 5 + 2 / 5) / 2, rel=1e-15)
        assert detail["nt_rate"] == 3 / 9

    def test_permuting_non_members_never_changes_prediction(self):
        rng = np.random.default_rng(5)
        t = 6
        weights = rng.standard_normal(t)
        cols, values = np.array([[0, 2]]), rng.random((1, 2))
        base = transfer.LogisticModel(weights=weights, bias=0.1).predict_proba(cols, values)[0]
        for _ in range(10):
            shuffled = weights.copy()  # the non-members' weights, in any order,
            idx = [1, 3, 4, 5]         # meet only zero features
            shuffled[idx] = shuffled[rng.permutation(idx)]
            model = transfer.LogisticModel(weights=shuffled, bias=0.1)
            assert model.predict_proba(cols, values)[0] == base


class TestPersistence:
    def test_examples_csv(self, tmp_path):
        aff = simple_aff()
        evals = [make_eval((0, 1), {0: 0.5, 1: 0.2})]
        ex = transfer.build_examples(make_log(evals), [0.6, 0.1, 0.0, 0.0], aff)
        models = transfer.fit_all(ex, aff.num_tasks, epochs=10)
        path = tmp_path / "examples.csv"
        transfer.save_examples(ex, path, models=models)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "target,subset_json,label,score"
        assert len(lines) == 3

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


def gradient(x, y, weights, bias, l2):
    """One task's gradient of its mean log loss plus l2/2 times its squared
    weights, on dense rows; the bias is unpenalized. Zero at fit_all's optimum."""
    resid = _sigmoid(x @ weights + bias) - y
    return np.append(x.T @ resid / len(y) + l2 * weights, np.mean(resid))


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
        model = transfer.fit_all(ex, 1, l2=1e-4)[0]
        assert np.array_equal((model.predict_proba(*ex[0][:2]) >= 0.5).astype(int), y)
        # decision boundary near zero
        boundary = -model.bias / model.weights[0]
        assert abs(boundary) < 0.4

    def test_single_class_degenerate(self):
        model = transfer.fit_all(one_task([[0.5], [1.5]], [1, 1]), 1, l2=1e-4)[0]
        assert model.predict_proba(np.array([[0]]), np.array([[123.0]]))[0] >= 0.5

    def test_matches_second_opinion_optimizer(self):
        # the same regularized objective minimized by scipy: ours is no higher
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 5))
        w_true = rng.standard_normal(5)
        y = (x @ w_true + 0.3 * rng.standard_normal(200) > 0).astype(int)
        l2 = 1e-3
        model = transfer.fit_all(one_task(x, y), 5, l2=l2)[0]

        def objective(wb):
            w, b = wb[:-1], wb[-1]
            logits = x @ w + b
            nll = np.mean(np.logaddexp(0.0, logits) - y * logits)
            return nll + 0.5 * l2 * np.sum(w**2)

        from scipy.optimize import minimize

        res = minimize(objective, np.zeros(6), method="BFGS")
        ours = objective(np.concatenate([model.weights, [model.bias]]))
        assert ours <= res.fun + 1e-9

    def test_overshooting_newton_step_is_halved(self):
        # separable, nearly unpenalized: full Newton steps creep toward large
        # weights, then one overshoots and raises the objective; found by a
        # seeded search over small integer problems
        x, y, l2 = np.array([[5.0], [5.0], [-6.0], [6.0]]), np.array([1, 1, 0, 1]), 1e-6
        rows, params, objectives = np.column_stack([x, np.ones(4)]), np.zeros(2), []
        for _ in range(20):
            logits = rows @ params
            objectives.append(np.mean(np.logaddexp(0.0, logits) - y * logits)
                              + 0.5 * l2 * params[0] ** 2)
            p = _sigmoid(logits)
            hess = rows.T @ (rows * (p * (1 - p))[:, None]) / 4 + np.diag([l2, 0.0])
            params = params - np.linalg.solve(hess, gradient(x, y, params[:1], params[1], l2))
        assert np.any(np.diff(objectives) > 0)
        model = transfer.fit_all(one_task(x, y), 1, l2=l2)[0]
        assert np.abs(gradient(x, y, model.weights, model.bias, l2)).max() <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(30)
        ex = one_task(v[:, None], (v > 0).astype(int))
        a = transfer.fit_all(ex, 1, l2=1e-4)[0]
        b = transfer.fit_all(ex, 1, l2=1e-4)[0]
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


class TestFitAllReachesTheOptimum:
    """The batched fit against each task's dense gradient: zero at the
    returned parameters of every two-class task."""

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
    def test_zero_gradient_constants_and_probabilities(self, regime):
        ex = self.examples(regime)
        held = self.examples(regime, seed=1)
        got = transfer.fit_all(ex, self.T, l2=1e-3)
        two_class = [tid for tid, (_, _, y) in ex.items() if 0 < y.mean() < 1]
        assert len(two_class) == {"single-class": 0, "mixed": self.T // 2,
                                  "two-class": self.T}[regime]
        assert list(got) == sorted(ex)
        for tid, (cols, values, y) in ex.items():
            model = got[tid]
            assert type(model.bias) is float and model.weights.shape == (self.T,)
            if tid in two_class:
                grad = gradient(dense(cols, values, self.T), y, model.weights, model.bias, 1e-3)
                assert np.abs(grad).max() <= 1e-8
            else:
                assert not model.weights.any() and model.bias == (50.0 if y[0] else -50.0)
            cols, values, _ = held[tid]
            np.testing.assert_allclose(
                model.predict_proba(cols, values),
                _sigmoid(dense(cols, values, self.T) @ model.weights + model.bias),
                rtol=1e-12, atol=0)

    @pytest.mark.parametrize("l2", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("scale", [0.01, 100.0])
    def test_separable_tasks_converge_together(self, l2, scale):
        # seeded separable tasks of 5 to 300 rows, fit in one batch, at feature
        # scales and penalties where full Newton steps can overshoot
        rng = np.random.default_rng(17)
        ex = {}
        for tid in range(10):
            x = rng.standard_normal((int(rng.integers(5, 300)), self.T)) * scale
            ex[tid] = one_task(x, (x @ rng.standard_normal(self.T) > 0).astype(int))[0]
        for tid, model in transfer.fit_all(ex, self.T, l2=l2).items():
            _, x, y = ex[tid]
            if 0 < y.mean() < 1:
                assert np.abs(gradient(x, y, model.weights, model.bias, l2)).max() <= 1e-8

    def test_iteration_cap_raises_naming_the_task(self, monkeypatch):
        # task 3 is the separable one of test_overshooting_newton_step_is_halved,
        # which takes more Newton steps than the cap allows; task 1's classes
        # overlap, and it converges within the cap
        rng = np.random.default_rng(2)
        v = rng.standard_normal(40)
        ex = {1: one_task(v[:, None], (v + rng.standard_normal(40) > 0).astype(int))[0],
              3: one_task([[5.0], [5.0], [-6.0], [6.0]], [1, 1, 0, 1])[0]}
        monkeypatch.setattr(transfer, "NEWTON_MAX_ITER", 12)
        with pytest.raises(TrainingError, match="^logistic fit of task 3 did not converge$"):
            transfer.fit_all(ex, 1, l2=1e-6)
        del ex[3]
        assert transfer.fit_all(ex, 1, l2=1e-6)[1].weights[0] > 0

    def test_singular_hessian_raises_naming_the_task(self):
        # task 2's separable features, scaled by 1e150, take every row's
        # p(1 - p) to 0 after one step, and with it the unpenalized bias row
        # of its Hessian; task 1 alone fits
        rng = np.random.default_rng(0)

        def task(target, scale, noise):
            others = [i for i in range(6) if i != target]
            cols = np.array([np.sort(np.r_[target, rng.choice(others, 2, replace=False)])
                             for _ in range(30)])
            values = rng.standard_normal((30, 3)) * scale
            return cols, values, (values.sum(axis=1) + noise * rng.standard_normal(30) > 0
                                  ).astype(int)

        ex = {2: task(2, 1e150, 0.0), 1: task(1, 1.0, 1.0)}
        with pytest.raises(TrainingError,
                           match="^logistic fit of task 2 has a singular Hessian$"):
            transfer.fit_all(ex, 6, l2=1e-2)
        del ex[2]
        assert set(transfer.fit_all(ex, 6, l2=1e-2)) == {1}

    @pytest.mark.parametrize("l2", [0.0, -5.0, np.inf, np.nan])
    def test_penalty_that_leaves_no_optimum_refused(self, l2):
        with pytest.raises(InvalidInputError, match="^fit_all needs 0 < l2 < inf"):
            transfer.fit_all(self.examples("single-class"), self.T, l2=l2)


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
        models = transfer.fit_all(ex, aff.num_tasks, l2=1e-4)
        path = tmp_path / "examples.csv"
        transfer.save_examples(ex, path, models=models)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "target,subset_json,label,score"
        assert len(lines) == 3

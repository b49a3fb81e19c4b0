import numpy as np
import pytest

from taskaff import affinity, transfer
from taskaff.errors import InvalidInputError
from tests.conftest import make_eval, make_log


def simple_aff(t=4):
    rng = np.random.default_rng(0)
    theta = rng.random((t, t))
    return affinity.AffinityMatrix(theta, np.ones((t, t), dtype=np.int64),
                                   "performance")


class TestBuildExamples:
    def test_tie_is_non_negative_transfer(self):
        aff = simple_aff()
        evals = [make_eval((0, 1), {0: 0.5, 1: 0.3})]
        stl = {0: 0.5, 1: 0.4}
        ex = transfer.build_examples(make_log(evals), stl, aff)
        assert ex[0][1][0] == 0  # tie
        assert ex[1][1][0] == 1  # 0.3 < 0.4

    def test_singleton_always_label_zero(self):
        aff = simple_aff()
        evals = [make_eval((2,), {2: -1.0})]
        ex = transfer.build_examples(make_log(evals), {2: -1.0}, aff)
        assert ex[2][1][0] == 0

    def test_features_masked_to_subset(self):
        aff = simple_aff(t=5)
        evals = [make_eval((1, 3), {1: 0.2, 3: 0.9})]
        ex = transfer.build_examples(make_log(evals), {1: 0.0, 3: 0.0}, aff)
        feats = ex[1][0][0]
        assert feats[0] == feats[2] == feats[4] == 0.0
        assert feats[1] == aff.theta[1, 1]
        assert feats[3] == aff.theta[1, 3]

    def test_missing_stl_score(self):
        aff = simple_aff()
        with pytest.raises(InvalidInputError):
            transfer.build_examples(make_log([make_eval((0, 1), {0: 0.1, 1: 0.1})]), {0: 0.0}, aff)

    @staticmethod
    def loop_examples(log, stl_scores, aff):
        """build_examples as one dense T-vector per membership, in log order."""
        missing = sorted(set(log.subsets.ravel().tolist()) - set(stl_scores))
        if missing:
            raise InvalidInputError(f"missing single-task reference score for task {missing[0]}")
        by_task = {}
        for members, scores in zip(log.subsets.tolist(), log.scores.tolist()):
            for i, score in zip(members, scores):
                feats = np.zeros(aff.num_tasks)
                feats[members] = aff.theta[i, members]
                by_task.setdefault(i, []).append((feats, int(score < stl_scores[i]), members))
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
        stl = {i: float(rng.integers(-2, 3)) for i in range(t)}
        log = make_log(evals)
        got = transfer.build_examples(log, stl, aff)
        want = self.loop_examples(log, stl, aff)
        assert list(got) == list(want)
        assert list(got) == sorted(got)  # ascending task ids
        for tid in want:
            assert type(tid) is int
            for g, w in zip(got[tid], want[tid]):
                assert g.shape == w.shape and g.dtype.kind == w.dtype.kind
                assert np.array_equal(g, w)

    def test_missing_stl_names_the_smallest_missing_task(self):
        aff = simple_aff(t=6)
        log = make_log([make_eval((1, 4), {1: 0.0, 4: 0.0}),
                        make_eval((0, 5), {0: 0.0, 5: 0.0}),
                        make_eval((2, 3), {2: 0.0, 3: 0.0})])
        stl = {1: 0.0, 4: 0.0, 0: 0.0, 2: 0.0}  # 5 is logged before 3, both missing
        for build in (transfer.build_examples, self.loop_examples):
            with pytest.raises(InvalidInputError, match="for task 3$"):
                build(log, stl, aff)

    def test_label_counts_match_recount(self):
        rng = np.random.default_rng(1)
        t = 6
        aff = simple_aff(t)
        plan = affinity.SamplingPlan(num_tasks=t, subset_size=3, num_subsets=40, seed=2)
        subsets = affinity.sample_subsets(plan)
        evals = [make_eval(s, {i: float(rng.standard_normal()) for i in s})
                 for s in subsets]
        stl = {i: float(rng.standard_normal()) for i in range(t)}
        ex = transfer.build_examples(make_log(evals), stl, aff)
        # independent recount straight off the log
        expected = sum(1 for ev in evals for i in ev.subset
                       if ev.scores[i] < stl[i])
        got = sum(int(y.sum()) for _, y, _ in ex.values())
        assert got == expected
        assert sum(len(y) for _, y, _ in ex.values()) == 3 * len(subsets)


class TestFitLogistic:
    def test_separable_one_dimensional(self):
        x = np.array([[-1.0], [1.0], [-0.8], [0.9]])
        y = np.array([0, 1, 0, 1])
        model = transfer.fit_logistic(x, y, l2=1e-4, epochs=4000, lr=1.0, seed=0)
        assert np.array_equal(model.predict(x).astype(int), y)
        # decision boundary near zero
        boundary = -model.bias / model.weights[0]
        assert abs(boundary) < 0.4

    def test_single_class_degenerate(self):
        model = transfer.fit_logistic(np.array([[0.5], [1.5]]), np.array([1, 1]))
        assert model.degenerate
        assert model.predict(np.array([[123.0]]))[0]

    def test_matches_second_opinion_optimizer(self):
        # same regularized objective minimized by scipy; losses agree to 1e-4
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 5))
        w_true = rng.standard_normal(5)
        y = (x @ w_true + 0.3 * rng.standard_normal(200) > 0).astype(int)
        l2 = 1e-3
        model = transfer.fit_logistic(x, y, l2=l2, epochs=20_000, lr=1.0, seed=0)

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
        x, y = v[:, None], (v > 0).astype(int)
        a = transfer.fit_logistic(x, y, seed=7)
        b = transfer.fit_logistic(x, y, seed=7)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


class TestEvaluateF1:
    def _examples(self, labels, target=0):
        y = np.array(labels)
        return np.where(y, 1.0, -1.0)[:, None], y, np.full((y.size, 1), target)

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
        held = {0: self._examples([1, 0], target=0),
                1: self._examples([0, 0], target=1)}
        macro, detail = transfer.evaluate_f1(models, held)
        assert detail["excluded"] == [1]
        assert macro == 1.0

    def test_permuting_non_members_never_changes_prediction(self):
        rng = np.random.default_rng(5)
        t = 6
        model = transfer.LogisticModel(weights=rng.standard_normal(t), bias=0.1)
        feats = np.zeros(t)
        members = [0, 2]
        feats[members] = rng.random(2)
        base = model.predict_proba(feats)[0]
        for _ in range(10):
            shuffled = feats.copy()  # non-members are all zero: any permutation
            idx = [1, 3, 4, 5]      # of them leaves the vector unchanged
            shuffled[idx] = shuffled[rng.permutation(idx)]
            assert model.predict_proba(shuffled)[0] == base


class TestPersistence:
    def test_examples_csv(self, tmp_path):
        aff = simple_aff()
        evals = [make_eval((0, 1), {0: 0.5, 1: 0.2})]
        ex = transfer.build_examples(make_log(evals), {0: 0.6, 1: 0.1}, aff)
        models = transfer.fit_all(ex, epochs=10)
        path = tmp_path / "examples.csv"
        transfer.save_examples(ex, path, models=models)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "target,subset_json,label,score"
        assert len(lines) == 3

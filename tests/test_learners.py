import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaff import affinity, learners, planted
from taskaff.errors import InvalidInputError
from taskaff.tasks import TaskSet
from tests.conftest import gradient_check, sigma_tilde


def toy_binary_tasks(rng, n=20, d=3, num_tasks=2, separable=True):
    """Linearly separable toy: labels from a random hyperplane per task."""
    x = rng.standard_normal((n, d))
    labels, trains, vals, tests = [], [], [], []
    for _ in range(num_tasks):
        w = rng.standard_normal(d)
        margin = x @ w
        if separable:
            margin = margin + np.sign(margin)  # push points off the boundary
        y = (margin > 0).astype(float)
        labels.append(y)
        trains.append(np.arange(n - 4))
        vals.append(np.array([n - 4, n - 3]))
        tests.append(np.array([n - 2, n - 1]))
    ts = TaskSet(n, tuple(labels), tuple(trains), tuple(vals), tuple(tests))
    return ts, x


class TestFitClosedForm:
    def test_square_invertible_interpolates(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((5, 5))
        y = rng.standard_normal(5)
        w = learners.fit_closed_form(z, [y], ridge=0.0)
        assert np.linalg.norm(z @ w - y) < 1e-8

    def test_identical_labels_match_single_fit(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        w_single = learners.fit_closed_form(z, [y])
        w_triple = learners.fit_closed_form(z, [y, y.copy(), y.copy()])
        np.testing.assert_allclose(w_triple, w_single, atol=1e-12)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((40, 5))
        ys = [rng.standard_normal(40) for _ in range(2)]
        w_cf = learners.fit_closed_form(z, ys)
        # plain gradient descent on || Z w - ybar ||^2 / m
        ybar = np.mean(ys, axis=0)
        w = np.zeros(5)
        lr = 0.9 / np.linalg.eigvalsh(z.T @ z / 40).max()
        for _ in range(20_000):
            w -= lr * (z.T @ (z @ w - ybar)) / 40
        assert np.linalg.norm(w - w_cf) < 1e-6

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((25, 4))
        ys = [rng.standard_normal(25) for _ in range(3)]
        w = learners.fit_closed_form(z, ys)
        residual = z @ w - np.mean(ys, axis=0)
        assert np.abs(z.T @ residual).max() < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            learners.fit_closed_form(np.zeros((4, 2)), [np.zeros(5)])

    def test_ridge_shrinks(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        w0 = learners.fit_closed_form(z, [y], ridge=0.0)
        w1 = learners.fit_closed_form(z, [y], ridge=100.0)
        assert np.linalg.norm(w1) < np.linalg.norm(w0)


class TestTrainSubset:
    def test_singleton_equals_single_task_fit(self, small_instance):
        tasks, feats = planted.to_task_set(small_instance)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        model = learners.train_subset(None, tasks, [2], spec, seed=0, features=feats)
        mask = tasks.train_mask[2]
        w = learners.fit_closed_form(feats[mask], [tasks.labels[2][mask]])
        np.testing.assert_allclose(model.weights, w, atol=1e-12)

    def test_mlp_deterministic_bit_identical(self):
        rng = np.random.default_rng(5)
        ts, x = toy_binary_tasks(rng)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=8,
                                    epochs=50, learning_rate=0.1)
        a = learners.train_subset(None, ts, [0, 1], spec, seed=9, features=x)
        b = learners.train_subset(None, ts, [0, 1], spec, seed=9, features=x)
        assert len(a.layers) == len(b.layers) == 2
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_subset_order_does_not_matter(self):
        rng = np.random.default_rng(6)
        ts, x = toy_binary_tasks(rng)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=8,
                                    epochs=40, learning_rate=0.1)
        a = learners.train_subset(None, ts, [1, 0], spec, seed=3, features=x)
        b = learners.train_subset(None, ts, [0, 1], spec, seed=3, features=x)
        for tid in (0, 1):
            fa = learners.evaluate(a, ts, tid, "val", "negative-cross-entropy")
            fb = learners.evaluate(b, ts, tid, "val", "negative-cross-entropy")
            assert fa == fb

    def test_separable_toy_reaches_low_loss(self):
        rng = np.random.default_rng(7)
        ts, x = toy_binary_tasks(rng, n=20, num_tasks=2, separable=True)
        # reference solver: scipy BFGS drives each task's logistic loss low,
        # confirming the toy is actually separable
        from scipy.optimize import minimize

        for tid in (0, 1):
            mask = ts.train_mask[tid]
            z, y = x[mask], ts.labels[tid][mask]

            def nll(w):
                logits = z @ w[:-1] + w[-1]
                return float(np.mean(np.logaddexp(0.0, logits) - y * logits))

            res = minimize(nll, np.zeros(z.shape[1] + 1), method="BFGS")
            assert res.fun < 0.1
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=16,
                                    epochs=500, learning_rate=0.5)
        model = learners.train_subset(None, ts, [0, 1], spec, seed=1, features=x)
        union = np.unique(np.concatenate([ts.train_mask[0], ts.train_mask[1]]))
        losses = []
        for tid in (0, 1):
            raw = model.raw_scores(ts.train_mask[tid], tid)
            y = ts.labels[tid][ts.train_mask[tid]]
            p = np.clip(1 / (1 + np.exp(-raw)), 1e-12, 1 - 1e-12)
            losses.append(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert np.mean(losses) < 0.1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(15)
        ts, x = toy_binary_tasks(rng)
        labels = tuple(y * 10.0 for y in ts.labels)  # regression targets
        ts_mse = TaskSet(ts.num_nodes, labels, ts.train_mask, ts.val_mask,
                         ts.test_mask)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=8,
                                    epochs=200, learning_rate=1e4,
                                    metric="negative-mse")
        from taskaff.errors import TrainingError

        with pytest.raises(TrainingError) as err:
            learners.train_subset(None, ts_mse, [0, 1], spec, seed=0, features=x)
        assert err.value.epoch is not None

    def test_small_lr_loss_monotone_flag(self):
        rng = np.random.default_rng(16)
        ts, x = toy_binary_tasks(rng)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=8,
                                    epochs=100, learning_rate=0.01)
        model = learners.train_subset(None, ts, [0, 1], spec, seed=0, features=x)
        assert model.monotone_loss

    def test_linear_kind_requires_shared_masks(self):
        rng = np.random.default_rng(8)
        ts, x = toy_binary_tasks(rng)
        shifted = TaskSet(ts.num_nodes, ts.labels,
                          (ts.train_mask[0], ts.train_mask[1][:-1]),
                          ts.val_mask, ts.test_mask)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        with pytest.raises(InvalidInputError):
            learners.train_subset(None, shifted, [0, 1], spec, seed=0, features=x)


def _reference_train(tasks, subset, spec, seed, x):
    """The per-task head loop the vectorized kernel replaced, kept as oracle."""
    rng = np.random.default_rng(seed)
    encoder, fan_in = [], x.shape[1]
    for _ in range(spec.hidden_layers):
        w = rng.normal(0.0, np.sqrt(2.0 / max(fan_in, 1)), size=(fan_in, spec.hidden_width))
        encoder.append([w, np.zeros(spec.hidden_width)])
        fan_in = spec.hidden_width
    heads = {tid: [rng.normal(0.0, np.sqrt(1.0 / max(fan_in, 1)), size=fan_in), 0.0]
             for tid in subset}
    union = np.unique(np.concatenate([tasks.train_mask[tid] for tid in subset]))
    pos_of = {node: k for k, node in enumerate(union)}
    task_rows = {tid: np.array([pos_of[v] for v in tasks.train_mask[tid]], dtype=np.int64)
                 for tid in subset}
    task_labels = {tid: tasks.labels[tid][tasks.train_mask[tid]] for tid in subset}
    xu = x[union]
    loss_kind = spec.train_loss_kind()
    prev_loss, monotone = np.inf, True
    for _ in range(spec.epochs):
        acts, pre, h = [xu], [], xu
        for w, b in encoder:
            a = h @ w + b
            pre.append(a)
            h = np.maximum(a, 0.0)
            acts.append(h)
        n_tasks, top = len(task_rows), acts[-1]
        d_top = np.zeros_like(top)
        g_heads, total = {}, 0.0
        for tid, rows in task_rows.items():
            w, b = heads[tid]
            y = task_labels[tid]
            out = top[rows] @ w + b
            if loss_kind == "bce":
                p = learners._sigmoid(out)
                pc = np.clip(p, 1e-12, 1.0 - 1e-12)
                total += -float(np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
                d_out = (p - y) / (rows.size * n_tasks)
            else:
                diff = out - y
                total += float(np.mean(diff**2))
                d_out = 2.0 * diff / (rows.size * n_tasks)
            g_heads[tid] = [top[rows].T @ d_out, float(d_out.sum())]
            d_top[rows] += np.outer(d_out, w)
        loss = total / n_tasks
        g_encoder, d_h = [], d_top
        for layer in range(len(encoder) - 1, -1, -1):
            d_a = d_h * (pre[layer] > 0.0)
            g_encoder.insert(0, [acts[layer].T @ d_a, d_a.sum(axis=0)])
            d_h = d_a @ encoder[layer][0].T
        if monotone and loss > prev_loss + 1e-12:
            monotone = False
        prev_loss = loss
        for layer, (gw, gb) in zip(encoder, g_encoder):
            layer[0] -= spec.learning_rate * gw
            layer[1] -= spec.learning_rate * gb
        for tid, (gw, gb) in g_heads.items():
            heads[tid][0] -= spec.learning_rate * gw
            heads[tid][1] -= spec.learning_rate * gb
    return encoder, heads, monotone


class TestVectorizedKernel:
    @pytest.mark.parametrize("hidden_layers", [0, 1, 2])
    @pytest.mark.parametrize("metric", ["negative-cross-entropy", "negative-mse"])
    def test_matches_per_task_loop(self, hidden_layers, metric):
        # overlapping train masks of unequal sizes; one task shares no row
        rng = np.random.default_rng(20 + hidden_layers)
        n = 40
        x = rng.standard_normal((n, 5))
        trains = (np.arange(0, 20), np.arange(10, 35), np.arange(0, 35, 4),
                  np.array([35]))
        if metric == "negative-mse":
            labels = tuple(rng.standard_normal(n) for _ in trains)
        else:
            labels = tuple((rng.random(n) > 0.5).astype(float) for _ in trains)
        val, test = np.arange(36, 38), np.arange(38, 40)
        ts = TaskSet(n, labels, trains, (val,) * 4, (test,) * 4)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=7,
                                    hidden_layers=hidden_layers, epochs=60,
                                    learning_rate=0.2, metric=metric)
        model = learners.train_subset(None, ts, [3, 0, 1, 2], spec, seed=5, features=x)
        encoder, heads, monotone = _reference_train(ts, (0, 1, 2, 3), spec, 5, x)
        assert len(model.layers) == hidden_layers + 1
        for (w, b), (rw, rb) in zip(model.layers, encoder):
            np.testing.assert_allclose(w, rw, rtol=0, atol=1e-10)
            np.testing.assert_allclose(b, rb, rtol=0, atol=1e-10)
        head_w, head_b = model.layers[-1]
        for tid in range(4):  # column k is the head of task subset[k] = k
            np.testing.assert_allclose(head_w[:, tid], heads[tid][0], rtol=0, atol=1e-10)
            assert head_b[tid] == pytest.approx(heads[tid][1], rel=0, abs=1e-10)
        assert model.monotone_loss == monotone

    def test_empty_train_mask_rejected(self):
        rng = np.random.default_rng(21)
        ts, x = toy_binary_tasks(rng)
        empty = TaskSet(ts.num_nodes, ts.labels,
                        (ts.train_mask[0], np.array([], dtype=np.int64)),
                        ts.val_mask, ts.test_mask)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=4, epochs=5)
        with pytest.raises(InvalidInputError):
            learners.train_subset(None, empty, [0, 1], spec, seed=0, features=x)


class TestEvaluate:
    def test_head_column_k_scores_task_subset_k(self):
        rng = np.random.default_rng(8)
        ts, x = toy_binary_tasks(rng, num_tasks=3)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=4, epochs=5)
        model = learners.train_subset(None, ts, [2, 0], spec, seed=0, features=x)
        (w1, b1), (w2, b2) = model.layers
        rows = ts.val_mask[2]
        expect = np.maximum(x[rows] @ w1 + b1, 0.0) @ w2[:, 1] + b2[1]  # subset (0, 2)
        np.testing.assert_allclose(model.raw_scores(rows, 2), expect, rtol=0, atol=1e-12)
        with pytest.raises(InvalidInputError, match="no head for task 1"):
            learners.evaluate(model, ts, 1, "val", "negative-cross-entropy")

    def test_perfect_predictor_f1(self):
        rng = np.random.default_rng(9)
        ts, x = toy_binary_tasks(rng, n=30, num_tasks=1)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=16,
                                    epochs=800, learning_rate=0.5, metric="f1")
        model = learners.train_subset(None, ts, [0], spec, seed=2, features=x)
        # training set is separable; check train-mask predictions are perfect
        raw = model.raw_scores(ts.train_mask[0], 0)
        y = ts.labels[0][ts.train_mask[0]]
        assert learners.f1_score(y == 1, raw > 0) == 1.0

    def test_perfect_linear_predictor_f1_metric(self):
        # weights that reproduce the labels give F1 exactly 1.0 through evaluate
        y = np.zeros(10)
        y[::2] = 1.0
        ts = TaskSet(10, (y,), (np.arange(2),), (np.arange(2, 10),), (np.array([]),))
        feats = np.stack([2.0 * y - 1.0], axis=1)  # +1 on positives, -1 else
        model = learners.MtlModel(kind="closed-form-linear", subset=(0,),
                                  features=feats, weights=np.array([5.0]))
        assert learners.evaluate(model, ts, 0, "val", "f1") == 1.0

    def test_constant_half_probability_cross_entropy(self):
        y = np.zeros(12)
        y[:6] = 1.0
        ts = TaskSet(12, (y,), (np.arange(4),), (np.arange(4, 12),), (np.array([]),))
        model = learners.MtlModel(
            kind="shared-encoder-mlp", subset=(0,),
            features=np.ones((12, 2)), layers=[[np.zeros((2, 1)), np.zeros(1)]],
        )
        got = learners.evaluate(model, ts, 0, "val", "negative-cross-entropy")
        assert got == pytest.approx(-np.log(2.0), abs=1e-12)

    def test_fitted_linear_matches_dense_oracle(self, small_instance):
        inst = small_instance
        tasks, feats = planted.to_task_set(inst)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        subset = (0, 2, 4)
        model = learners.train_subset(None, tasks, subset, spec, seed=0, features=feats)
        rows = inst.observed_rows
        m = rows.size
        y_obs = inst.labels[:, rows]
        ybar = y_obs[list(subset)].mean(axis=0)
        sig = sigma_tilde(inst)
        for tid in subset:
            expected = -np.sum((sig @ ybar - y_obs[tid]) ** 2) / m
            got = learners.evaluate(model, tasks, tid, "val", "negative-mse")
            assert got == pytest.approx(expected, rel=1e-9)

    def test_empty_mask_rejected(self):
        y = np.zeros(5)
        ts = TaskSet(5, (y,), (np.arange(2),), (np.array([2]),), (np.array([], dtype=int),))
        model = learners.MtlModel(kind="closed-form-linear", subset=(0,),
                                  features=np.ones((5, 1)), weights=np.zeros(1))
        with pytest.raises(InvalidInputError):
            learners.evaluate(model, ts, 0, "test", "negative-mse")

    def test_eq_sep_decomposition(self, small_instance):
        # squared loss splits into projected-difference plus residual parts
        inst = small_instance
        rows = inst.observed_rows
        y_obs = inst.labels[:, rows]
        sig = sigma_tilde(inst)
        for subset in [(0, 1, 2), (1, 3, 5), (0, 4)]:
            ybar = y_obs[list(subset)].mean(axis=0)
            for i in subset:
                lhs = np.sum((sig @ ybar - y_obs[i]) ** 2)
                rhs = (np.sum((sig @ (ybar - y_obs[i])) ** 2)
                       + np.sum(((np.eye(rows.size) - sig) @ y_obs[i]) ** 2))
                assert lhs == pytest.approx(rhs, abs=1e-8)


class TestGradientCheck:
    def _toy(self, rng, n=10, d=3, num_tasks=2):
        x = rng.standard_normal((n, d))
        masks = [np.arange(0, 6), np.arange(4, 10)]
        labels = [(rng.random(n) > 0.5).astype(float) for _ in range(num_tasks)]
        return x, masks, labels

    def test_zero_weight_network_smooth_point(self):
        rng = np.random.default_rng(10)
        x, masks, labels = self._toy(rng)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=4)
        err = gradient_check(spec, x, masks, labels, seed=0,
                                      zero_weights=True)
        assert err < 1e-6

    def test_random_init_two_tasks(self):
        rng = np.random.default_rng(11)
        x, masks, labels = self._toy(rng)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=6,
                                    hidden_layers=2)
        err = gradient_check(spec, x, masks, labels, seed=1)
        assert err < 1e-4

    def test_no_hidden_layer_matches_logistic_gradient(self):
        # encoder-free net is plain logistic regression: grad = X^T (p - y) / m
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3))
        mask = np.arange(8)
        y = (rng.random(8) > 0.5).astype(float)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_layers=0)
        layers = learners._init_params(np.random.default_rng(3), 3, spec, 1)
        _, grads = learners._forward_backward(
            layers, learners._batch(x, [mask], [y]), "bce")
        (w, b), = layers
        (g_w, g_b), = grads
        p = 1 / (1 + np.exp(-(x @ w[:, 0] + b[0])))
        np.testing.assert_allclose(g_w[:, 0], x.T @ (p - y) / 8, atol=1e-12)
        assert g_b[0] == pytest.approx(np.mean(p - y), abs=1e-12)

    def test_mse_loss_gradients(self):
        rng = np.random.default_rng(13)
        x, masks, _ = self._toy(rng)
        labels = [rng.standard_normal(10) for _ in range(2)]
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=5,
                                    metric="negative-mse")
        err = gradient_check(spec, x, masks, labels, seed=2)
        assert err < 1e-4


class TestF1:
    def test_all_negative_with_positives_present(self):
        assert learners.f1_score(np.array([1, 0, 1]), np.array([0, 0, 0])) == 0.0

    def test_perfect(self):
        assert learners.f1_score(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_confusion_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        y_true = rng.random(n) > 0.5
        y_pred = rng.random(n) > 0.5
        tp = np.sum(y_true & y_pred)
        fp = np.sum(~y_true & y_pred)
        fn = np.sum(y_true & ~y_pred)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        expected = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert learners.f1_score(y_true, y_pred) == pytest.approx(expected, abs=1e-12)


def _shared_mask_tasks(rng, masks, n=90, d=6, t=7):
    """Binary tasks over one feature matrix with a shared train mask.

    masks: "aliased" (every mask is all rows, the theory view), "holdout"
    (shared disjoint train/val/test) or "per-task-val" (shared train, a
    different val mask for every task).
    """
    x = rng.standard_normal((n, d))
    labels = tuple((x @ rng.standard_normal(d) + rng.standard_normal(n) > 0).astype(float)
                   for _ in range(t))
    if masks == "aliased":
        rows = np.arange(n)
        return TaskSet(n, labels, (rows,) * t, (rows,) * t, (rows,) * t,
                       aliased_masks=True), x
    perm = rng.permutation(n)
    train, rest = np.sort(perm[:60]), perm[60:]
    if masks == "holdout":
        vals = (np.sort(rest[:15]),) * t
    else:
        vals = tuple(np.sort(rng.choice(rest, size=10 + k, replace=False)) for k in range(t))
    tests = tuple(np.setdiff1d(rest, v) for v in vals)
    return TaskSet(n, labels, (train,) * t, vals, tests), x


class TestClosedFormScores:
    """The batched linear kernel against one fit_closed_form + evaluate per subset."""

    @pytest.mark.parametrize("masks", ["aliased", "holdout"])
    @pytest.mark.parametrize("metric", learners.METRICS)
    @pytest.mark.parametrize("ridge", [0.0, 0.3])
    def test_matches_per_subset_fit(self, masks, metric, ridge):
        rng = np.random.default_rng(40)
        tasks, x = _shared_mask_tasks(rng, masks)
        subsets = np.array(list(itertools.combinations(range(7), 3)))
        got = learners.closed_form_scores(x, tasks, subsets, ridge, metric)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric=metric, ridge=ridge)
        for k, subset in enumerate(subsets.tolist()):
            model = learners.train_subset(None, tasks, subset, spec, seed=0, features=x)
            want = [learners.evaluate(model, tasks, i, "val", metric) for i in subset]
            np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=0)

    def test_planted_holdout_matches_per_subset_fit(self, small_instance):
        # real-valued labels, and the holdout split the pipeline uses
        for holdout in (0.0, 0.25):
            tasks, feats = planted.to_task_set(small_instance, holdout_frac=holdout)
            subsets = np.array(list(itertools.combinations(range(6), 4)))
            got = learners.closed_form_scores(feats, tasks, subsets)
            spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
            for k, subset in enumerate(subsets.tolist()):
                model = learners.train_subset(None, tasks, subset, spec, seed=0, features=feats)
                want = [learners.evaluate(model, tasks, i, "val", "negative-mse")
                        for i in subset]
                np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dim", [6, 16])
    @pytest.mark.parametrize("holdout", [0.0, 0.25])
    @pytest.mark.parametrize("alpha", [1, 3])
    def test_noise_free_planted_matches_per_subset_fit(self, holdout, alpha, dim):
        # With 49 of 50 nodes observed the labels nearly lie in the design's span:
        # at d=6 val MSEs go down to 3e-8, where a Gram expansion
        # ||f||^2 - 2 f.y + ||y||^2 misses this tolerance. At holdout 0.25 the 13
        # val rows are fewer than d + T = 14 (d=6) and fewer than d (d=16).
        cfg = planted.PlantedConfig(num_tasks=8, num_groups=2, feature_dim=dim, num_nodes=50,
                                    observed=49, within_sep=0.2, between_sep=2.0,
                                    label_bound=5.0, noise_std=0.0, seed=14)
        tasks, feats = planted.to_task_set(planted.generate(cfg), holdout_frac=holdout)
        assert (tasks.val_mask[0].size < dim + 8) == (holdout > 0)
        subsets = np.array(list(itertools.combinations(range(8), alpha)))
        got = learners.closed_form_scores(feats, tasks, subsets)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        for k, subset in enumerate(subsets.tolist()):
            model = learners.train_subset(None, tasks, subset, spec, seed=0, features=feats)
            want = [learners.evaluate(model, tasks, i, "val", "negative-mse") for i in subset]
            np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("call", ["check_shared_masks", "closed_form_scores",
                                      "train_subset", "collect_evaluations"])
    @pytest.mark.parametrize("masks", ["train", "per-task-val"])
    def test_masks_not_shared_by_every_task_refused(self, masks, call):
        # one task's train mask differs, or every task has its own val mask;
        # the set is refused even for subsets whose members share their masks
        rng = np.random.default_rng(41)
        if masks == "train":
            tasks, x = _shared_mask_tasks(rng, "holdout")
            other = tasks.train_mask[0][:-1]
            tasks = TaskSet(tasks.num_nodes, tasks.labels,
                            tasks.train_mask[:2] + (other,) + tasks.train_mask[3:],
                            tasks.val_mask, tasks.test_mask)
        else:
            tasks, x = _shared_mask_tasks(rng, masks)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        calls = {
            "check_shared_masks": lambda: learners.check_shared_masks(tasks),
            "closed_form_scores": lambda: learners.closed_form_scores(x, tasks, [(0, 1), (3, 4)]),
            "train_subset": lambda: learners.train_subset(None, tasks, (0, 1), spec, 0,
                                                          features=x),
            "collect_evaluations": lambda: affinity.collect_evaluations(tasks, [(0, 1)], spec,
                                                                        0, features=x),
        }
        with pytest.raises(InvalidInputError, match="^closed-form-linear needs one train mask "
                           "and one val mask shared by every task; use --learner mlp$"):
            calls[call]()

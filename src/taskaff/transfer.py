"""Negative-transfer prediction from masked affinity features.

For a target task i and a subset S containing it, the feature vector is the
i-th affinity row masked to S (zero outside S); the label says whether
training i jointly with S scored below i's single-task reference. One
logistic model is fit per target task and judged by the F1 of the
negative-transfer class, macro-averaged over tasks.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .affinity import AffinityMatrix
from .errors import InvalidInputError, TrainingError
from .learners import _sigmoid, f1_score

DEFAULT_L2 = 1e-4
DECISION_THRESHOLD = 0.5


@dataclass
class LogisticModel:
    """Per-task logistic regression; degenerate when one class was absent."""

    weights: np.ndarray
    bias: float
    degenerate: bool = False

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        return _sigmoid(x @ self.weights + self.bias)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.predict_proba(features) >= DECISION_THRESHOLD


def build_examples(log, stl_scores, aff: AffinityMatrix):
    """Examples ``{i: (x, y, subsets)}`` in ascending task order, one row per
    membership of task i in the evaluation log, in log order.

    Row q of x is theta's row i masked to ``subsets[q]``. ``stl_scores`` maps
    each task to its singleton reference f_i({i}); y[q] is 1 exactly when
    f_i(S) < f_i({i}) (performance orientation; ties count as non-negative
    transfer). Each task's arrays are slices of one array sorted by task.
    """
    t = aff.num_tasks
    n, alpha = log.subsets.shape
    targets = log.subsets.ravel()
    tids = np.unique(targets).tolist()
    missing = [i for i in tids if i not in stl_scores]
    if missing:
        raise InvalidInputError(f"missing single-task reference score for task {missing[0]}")
    stl = np.zeros(t)
    stl[tids] = [stl_scores[i] for i in tids]
    order = np.argsort(targets, kind="stable")
    ranked = targets[order]
    y = (log.scores.ravel()[order] < stl[ranked]).astype(int)
    cols = np.repeat(log.subsets, alpha, axis=0)[order]  # membership k * alpha + p: subset k
    x = np.zeros((n * alpha, t))
    x[np.arange(n * alpha)[:, None], cols] = aff.theta[ranked[:, None], cols]
    stops = np.flatnonzero(np.diff(ranked)) + 1
    return dict(zip(tids, zip(np.split(x, stops), np.split(y, stops), np.split(cols, stops))))


def fit_logistic(x, y, l2: float = DEFAULT_L2, epochs: int = 2000,
                 lr: float = 0.5, seed: int = 0) -> LogisticModel:
    """Gradient descent on L2-regularized log loss, deterministic under seed.

    With a single class present, returns a constant predictor flagged
    degenerate instead of fitting.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not y.size:
        raise InvalidInputError("at least one example is required")
    dim = x.shape[1]
    if len(set(y.tolist())) < 2:
        bias = 50.0 if y[0] == 1 else -50.0
        return LogisticModel(weights=np.zeros(dim), bias=bias, degenerate=True)
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, size=dim)
    b = 0.0
    n = x.shape[0]
    for epoch in range(epochs):
        p = _sigmoid(x @ w + b)
        grad_w = x.T @ (p - y) / n + l2 * w
        grad_b = float(np.mean(p - y))
        w -= lr * grad_w
        b -= lr * grad_b
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise TrainingError("logistic parameters became non-finite", epoch=epoch)
    return LogisticModel(weights=w, bias=b)


def fit_all(examples_by_task, l2: float = DEFAULT_L2, epochs: int = 2000,
            lr: float = 0.5, seed: int = 0):
    """Fit one logistic model per target task."""
    return {
        tid: fit_logistic(x, y, l2=l2, epochs=epochs, lr=lr, seed=seed ^ tid)
        for tid, (x, y, _) in sorted(examples_by_task.items())
    }


def evaluate_f1(models, heldout_by_task):
    """Macro F1 of the negative-transfer class over per-task models.

    Tasks with no positive held-out example are excluded from the average
    and reported in the second return value.
    """
    scores = {}
    excluded = []
    for tid, (x, y, _) in sorted(heldout_by_task.items()):
        if tid not in models:
            raise InvalidInputError(f"no model for task {tid}")
        y_true = np.asarray(y, dtype=bool)
        if not y_true.any():
            excluded.append(tid)
            continue
        y_pred = models[tid].predict(x)
        scores[tid] = f1_score(y_true, y_pred)
    if not scores:
        raise InvalidInputError("no task has positive held-out examples")
    macro = float(np.mean(list(scores.values())))
    return macro, {"per_task": scores, "excluded": excluded}


def save_examples(examples_by_task, path, models) -> None:
    """CSV rows (target, subset_json, label, score); score is the
    probability each task's model gives its row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "subset_json", "label", "score"])
        for tid, (x, y, subsets) in sorted(examples_by_task.items()):
            scores = models[tid].predict_proba(x).tolist()
            writer.writerows([tid, json.dumps(subset), label, repr(score)]
                             for subset, label, score in zip(subsets.tolist(), y.tolist(), scores))

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
from dataclasses import dataclass, field

import numpy as np

from .affinity import AffinityMatrix
from .errors import InvalidInputError, TrainingError
from .learners import _sigmoid, f1_score

DEFAULT_L2 = 1e-4
DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class TransferExample:
    """One (target task, subset) observation with its masked feature row."""

    target: int
    subset: tuple
    features: np.ndarray = field(repr=False)
    label: int


@dataclass
class LogisticModel:
    """Per-task logistic regression; degenerate when one class was absent."""

    weights: np.ndarray
    bias: float
    trained_for: int
    degenerate: bool = False

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        return _sigmoid(x @ self.weights + self.bias)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.predict_proba(features) >= DECISION_THRESHOLD


def build_examples(log, stl_scores, aff: AffinityMatrix):
    """One example per (task, subset) membership in the evaluation log.

    ``stl_scores`` maps each task to its singleton reference f_i({i}).
    The label is 1 exactly when f_i(S) < f_i({i}) (performance orientation);
    ties count as non-negative transfer. Tasks appear in order of first
    membership, each with its examples in log order; the feature rows are
    views into one (n * alpha) x T array.
    """
    t = aff.num_tasks
    subsets = log.subsets
    n, alpha = subsets.shape
    targets = subsets.ravel()
    order = np.argsort(targets, kind="stable")
    ranked = targets[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=ranked[:1] - 1))
    stops = np.append(starts[1:], ranked.size)
    tids, firsts = ranked[starts].tolist(), order[starts]
    missing = [u for u, i in enumerate(tids) if i not in stl_scores]
    if missing:
        raise InvalidInputError("missing single-task reference score for task "
                                f"{tids[min(missing, key=firsts.__getitem__)]}")
    stl = np.zeros(t)
    stl[tids] = [stl_scores[i] for i in tids]
    labels = (log.scores.ravel() < stl[targets]).astype(int).tolist()
    cols = np.repeat(subsets, alpha, axis=0)  # membership q = k * alpha + p is in subset k
    feats = np.zeros((n * alpha, t))
    feats[np.arange(n * alpha)[:, None], cols] = aff.theta[targets[:, None], cols]
    members = [tuple(row) for row in subsets.tolist()]
    by_task = {}
    for u in np.argsort(firsts).tolist():
        i = tids[u]
        by_task[i] = [TransferExample(target=i, subset=members[q // alpha], features=feats[q],
                                      label=labels[q])
                      for q in order[starts[u]:stops[u]].tolist()]
    return by_task


def fit_logistic(examples, l2: float = DEFAULT_L2, epochs: int = 2000,
                 lr: float = 0.5, seed: int = 0) -> LogisticModel:
    """Gradient descent on L2-regularized log loss, deterministic under seed.

    With a single class present, returns a constant predictor flagged
    degenerate instead of fitting.
    """
    if not examples:
        raise InvalidInputError("at least one example is required")
    x = np.stack([ex.features for ex in examples])
    y = np.array([ex.label for ex in examples], dtype=float)
    target = examples[0].target
    dim = x.shape[1]
    if len(set(y.tolist())) < 2:
        bias = 50.0 if y[0] == 1 else -50.0
        return LogisticModel(weights=np.zeros(dim), bias=bias,
                             trained_for=target, degenerate=True)
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
    return LogisticModel(weights=w, bias=b, trained_for=target)


def fit_all(examples_by_task, l2: float = DEFAULT_L2, epochs: int = 2000,
            lr: float = 0.5, seed: int = 0):
    """Fit one logistic model per target task."""
    return {
        tid: fit_logistic(exs, l2=l2, epochs=epochs, lr=lr, seed=seed ^ tid)
        for tid, exs in sorted(examples_by_task.items())
    }


def evaluate_f1(models, heldout_by_task):
    """Macro F1 of the negative-transfer class over per-task models.

    Tasks with no positive held-out example are excluded from the average
    and reported in the second return value.
    """
    scores = {}
    excluded = []
    for tid, examples in sorted(heldout_by_task.items()):
        if tid not in models:
            raise InvalidInputError(f"no model for task {tid}")
        y_true = np.array([ex.label for ex in examples], dtype=bool)
        if not y_true.any():
            excluded.append(tid)
            continue
        x = np.stack([ex.features for ex in examples])
        y_pred = models[tid].predict(x)
        scores[tid] = f1_score(y_true, y_pred)
    if not scores:
        raise InvalidInputError("no task has positive held-out examples")
    macro = float(np.mean(list(scores.values())))
    return macro, {"per_task": scores, "excluded": excluded}


def save_examples(examples_by_task, path, models=None) -> None:
    """CSV rows (target, subset_json, label, score); score is the model
    probability when models are given, empty otherwise."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "subset_json", "label", "score"])
        for tid in sorted(examples_by_task):
            for ex in examples_by_task[tid]:
                score = ""
                if models is not None and tid in models:
                    score = repr(float(models[tid].predict_proba(ex.features)[0]))
                writer.writerow([tid, json.dumps(list(ex.subset)), ex.label, score])

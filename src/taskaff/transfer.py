"""Negative-transfer prediction from masked affinity features.

For a target task i and a subset S containing it, the feature vector is the
i-th affinity row masked to S, kept as its columns S and its values there;
the label says whether training i jointly with S scored below i's
single-task reference. One logistic model is fit per target task and judged
by the F1 of the negative-transfer class, macro-averaged over tasks.
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
    """Per-task logistic regression over theta's T columns."""

    weights: np.ndarray
    bias: float

    def predict_proba(self, cols, values) -> np.ndarray:
        """Probabilities of the rows that hold ``values`` at ``cols`` (n x alpha)."""
        return _sigmoid(np.sum(self.weights[cols] * values, axis=-1) + self.bias)


def build_examples(log, stl_scores, aff: AffinityMatrix):
    """Examples ``{i: (cols, values, y)}`` in ascending task order, one row per
    membership of task i in the evaluation log, in log order: its subset S in
    cols and theta's row i at S in values. ``stl_scores`` holds each task's
    singleton reference f_i({i}) at index i; y[q] is 1 exactly when
    f_i(S) < f_i({i}) (performance orientation; ties count as non-negative
    transfer). Each task's arrays are slices of one array sorted by task.
    """
    stl = np.asarray(stl_scores, dtype=float)
    if stl.shape != (aff.num_tasks,):
        raise InvalidInputError(f"single-task references must be {aff.num_tasks} scores, "
                                f"one per task, not an array of shape {stl.shape}")
    alpha = log.subsets.shape[1]
    targets = log.subsets.ravel()
    tids = np.unique(targets).tolist()
    order = np.argsort(targets, kind="stable")
    ranked = targets[order]
    y = (log.scores.ravel()[order] < stl[ranked]).astype(int)
    cols = np.repeat(log.subsets, alpha, axis=0)[order]  # membership k * alpha + p: subset k
    values = aff.theta[ranked[:, None], cols]
    stops = np.flatnonzero(np.diff(ranked)) + 1
    return dict(zip(tids, zip(*(np.split(a, stops) for a in (cols, values, y)))))


def check_settings(l2, epochs, lr) -> None:
    """Refuse logistic settings under which gradient descent cannot fit."""
    if not (epochs >= 1 and np.isfinite(lr) and lr > 0 and np.isfinite(l2) and l2 >= 0):
        raise InvalidInputError("logistic settings need epochs >= 1, 0 < lr < inf and "
                                f"0 <= l2 < inf, got epochs {epochs}, lr {lr}, l2 {l2}")


def fit_all(examples, num_tasks: int, l2: float = DEFAULT_L2, epochs: int = 2000,
            lr: float = 0.5, seed: int = 0):
    """One logistic model per target task, over ``num_tasks`` weights each. A
    task with one class gets a constant predictor. The others descend their
    L2-regularized mean log loss from N(0, 0.01) weights drawn with
    seed ^ task, all at once: one (tasks x T) weight array whose gradient is
    one bincount over the keys task * T + column."""
    check_settings(l2, epochs, lr)
    if not all(len(y) for _, _, y in examples.values()):
        raise InvalidInputError("at least one example is required")
    models = {tid: LogisticModel(np.zeros(num_tasks), 50.0 if y[0] == 1 else -50.0)
              for tid, (_, _, y) in examples.items() if np.min(y) == np.max(y)}
    fit = sorted(set(examples) - set(models))
    if not fit:
        return dict(sorted(models.items()))
    cols, values, y = (np.concatenate([examples[tid][k] for tid in fit]) for k in range(3))
    count = np.array([len(examples[tid][2]) for tid in fit])
    task = np.repeat(np.arange(len(fit)), count)
    keys = (task[:, None] * num_tasks + cols).ravel()
    w = np.stack([np.random.default_rng(seed ^ tid).normal(0.0, 0.01, num_tasks) for tid in fit])
    b = np.zeros(len(fit))
    for epoch in range(epochs):
        resid = _sigmoid(np.sum(w.ravel()[keys].reshape(values.shape) * values, axis=1)
                         + b[task]) - y
        grad_w = np.bincount(keys, weights=(values * resid[:, None]).ravel(), minlength=w.size)
        w -= lr * (grad_w.reshape(w.shape) / count[:, None] + l2 * w)
        b -= lr * (np.bincount(task, weights=resid) / count)
        finite = np.isfinite(w).all(axis=1) & np.isfinite(b)
        if not finite.all():
            raise TrainingError(f"logistic parameters of task {fit[np.argmin(finite)]} "
                                f"became non-finite, epoch {epoch}")
    models.update((tid, LogisticModel(w[k], float(b[k]))) for k, tid in enumerate(fit))
    return dict(sorted(models.items()))


def evaluate_f1(models, heldout_by_task):
    """Macro F1 of the negative-transfer class over per-task models, and a
    detail: the tasks with no positive held-out example, which the average
    excludes; the macro F1 of always predicting negative transfer on the
    others ("constant"); the share of held-out examples labelled negative."""
    scores, constant, excluded = {}, {}, []
    for tid, (cols, values, y) in sorted(heldout_by_task.items()):
        if tid not in models:
            raise InvalidInputError(f"no model for task {tid}")
        y_true = np.asarray(y, dtype=bool)
        if not y_true.any():
            excluded.append(tid)
            continue
        pred = models[tid].predict_proba(cols, values) >= DECISION_THRESHOLD
        scores[tid], constant[tid] = f1_score(y_true, pred), f1_score(y_true, np.ones_like(pred))
    if not scores:
        raise InvalidInputError("no task has positive held-out examples")
    macro = float(np.mean(list(scores.values())))
    return macro, {"per_task": scores, "excluded": excluded,
                   "constant": float(np.mean(list(constant.values()))),
                   "nt_rate": float(np.mean(np.concatenate(
                       [y for _, _, y in heldout_by_task.values()])))}


def save_examples(examples_by_task, path, models) -> None:
    """CSV rows (target, subset_json, label, score); score is the
    probability each task's model gives its row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "subset_json", "label", "score"])
        for tid, (cols, values, y) in sorted(examples_by_task.items()):
            scores = models[tid].predict_proba(cols, values).tolist()
            writer.writerows([tid, json.dumps(subset), label, repr(score)]
                             for subset, label, score in zip(cols.tolist(), y.tolist(), scores))

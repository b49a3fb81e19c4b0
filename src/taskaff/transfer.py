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

DECISION_THRESHOLD = 0.5
NEWTON_TOL, NEWTON_MAX_ITER = 1e-10, 100  # fit_all's largest final step, and its step cap


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


def fit_all(examples, num_tasks: int, l2: float):
    """One logistic model per target task, over ``num_tasks`` weights each. A
    task with one class gets a constant predictor. The others minimize their
    mean log loss plus l2/2 times their squared weights by Newton's method, all
    at once, halving a task's step while its objective rises. A TrainingError
    names the first task whose Newton system is singular (features so large
    that every p(1 - p) underflows to 0) or that has not converged."""
    if not (np.isfinite(l2) and l2 > 0 and all(len(y) for _, _, y in examples.values())):
        raise InvalidInputError(f"fit_all needs 0 < l2 < inf and examples of each task, got {l2}")
    models = {tid: LogisticModel(np.zeros(num_tasks), 50.0 if y[0] == 1 else -50.0)
              for tid, (_, _, y) in examples.items() if np.min(y) == np.max(y)}
    fit = sorted(set(examples) - set(models))
    if not fit:
        return dict(sorted(models.items()))
    cols, values, y = (np.concatenate([examples[tid][k] for tid in fit]) for k in range(3))
    count = np.array([len(examples[tid][2]) for tid in fit])
    task = np.repeat(np.arange(len(fit)), count)
    d = num_tasks + 1  # column T is the bias, 1 in every row: each task's keys end at (T, T)
    keys = task[:, None] * d + np.column_stack([cols, np.full(len(y), num_tasks)])
    x = np.column_stack([values, np.ones(len(y))])
    pairs = (keys[:, :, None] * d + keys[:, None, :] % d).ravel()  # task * d^2 + row * d + col
    penalty = np.append(np.full(num_tasks, l2), 0.0)
    params, obj, logits = np.zeros((len(fit), d)), np.log(2.0), np.zeros(len(y))
    for _ in range(NEWTON_MAX_ITER):
        p = _sigmoid(logits)
        grad = np.bincount(keys.ravel(), (x * (p - y)[:, None]).ravel()).reshape(-1, d)
        hess = np.bincount(pairs, np.einsum("na,nb,n->nab", x, x, p * (1 - p)).ravel())
        step = _newton_steps(hess.reshape(-1, d, d) / count[:, None, None] + np.diag(penalty),
                             grad / count[:, None] + penalty * params, fit)
        rises = True
        while np.any(rises):
            trial = params - step
            logits = np.sum(trial.ravel()[keys] * x, axis=1)
            trial_obj = (np.bincount(task, np.logaddexp(0.0, logits) - y * logits) / count
                         + 0.5 * trial**2 @ penalty)
            rises = (trial_obj > obj) & (np.abs(step).max(axis=1) >= NEWTON_TOL)
            step[rises] /= 2
        params, obj, moving = trial, trial_obj, ~(np.abs(step).max(axis=1) < NEWTON_TOL)
        if not moving.any():
            models.update(zip(fit, map(LogisticModel, params[:, :-1], params[:, -1].tolist())))
            return dict(sorted(models.items()))
    raise TrainingError(f"logistic fit of task {fit[np.argmax(moving)]} did not converge")


def _newton_steps(hessians, grads, tids):
    """Solve each task's Newton system; the first singular one raises a
    TrainingError naming its task in ``tids``."""
    try:
        return np.linalg.solve(hessians, grads[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for tid, hessian, grad in zip(tids, hessians, grads):
            try:
                np.linalg.solve(hessian, grad)
            except np.linalg.LinAlgError:
                raise TrainingError(f"logistic fit of task {tid} has a singular "
                                    "Hessian") from None
        raise


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

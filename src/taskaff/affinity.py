"""Higher-order task affinity: subset sampling, score collection, aggregation.

The affinity score theta[i, j] is the exact arithmetic mean of task i's
multitask score f_i(S) over every sampled subset S containing both i and j;
the diagonal theta[i, i] averages over all subsets containing i. Pair
means are computed with math.fsum so aggregation is independent of
collection order and matches an exact regroup-and-average oracle.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import (CoverageError, InvalidInputError, ParseError, TaskAffError,
                     TrainingError, int_ids, reading)
from .graphs import _load_matrix
from .learners import LearnerSpec, closed_form_scores, evaluate, train_models
from .learners import train_subset  # noqa: F401 (bench/tracing.py wraps it here)

COVERAGE_CAP_FACTOR = 10


@dataclass(frozen=True)
class SamplingPlan:
    """How many subsets of which size to draw, and the coverage guard."""

    num_tasks: int
    subset_size: int = 10
    num_subsets: int = 2000
    seed: int = 0
    min_pair_coverage: int = 0

    def __post_init__(self):
        if not 2 <= self.subset_size <= self.num_tasks:
            raise InvalidInputError(
                f"subset_size must lie in [2, {self.num_tasks}], got {self.subset_size}"
            )
        if self.num_subsets < 1:
            raise InvalidInputError("num_subsets must be >= 1")
        if self.min_pair_coverage < 0:
            raise InvalidInputError("min_pair_coverage must be >= 0")


@dataclass
class AffinityMatrix:
    """T x T affinity scores with co-occurrence counts.

    orientation is "performance" (higher = more affinity) for pipeline
    metrics and "loss" for the closed-form theory scores.
    """

    theta: np.ndarray
    counts: np.ndarray
    orientation: str

    def __post_init__(self):
        if self.orientation not in ("performance", "loss"):
            raise InvalidInputError(f"unknown orientation {self.orientation!r}")

    @property
    def num_tasks(self) -> int:
        return self.theta.shape[0]

    @property
    def imputed(self) -> np.ndarray:
        """Entries of pairs that never co-occurred, filled from the row's diagonal."""
        return self.counts == 0


@dataclass
class EvalLog:
    """Scores f_i(S) of n trained subsets of one size alpha, as arrays.

    ``scores[k, p]`` is the score of task ``subsets[k, p]`` on subset k's
    model, trained with seed ``seeds[k]``; all scores share one ``metric``.
    """

    subsets: np.ndarray
    scores: np.ndarray
    seeds: np.ndarray
    metric: str | None

    def __post_init__(self):
        self.subsets = _rows(self.subsets)
        self.scores = np.asarray(self.scores, dtype=float)
        self.seeds = np.asarray(self.seeds, dtype=np.int64)
        if (self.subsets.ndim != 2 or self.scores.shape != self.subsets.shape
                or self.seeds.shape != self.subsets.shape[:1]):
            raise InvalidInputError("evaluation log needs n x alpha subsets and scores, n seeds")

    def __len__(self) -> int:
        return self.subsets.shape[0]


def _rows(subsets) -> np.ndarray:
    try:
        return int_ids(subsets)
    except ValueError as exc:
        raise InvalidInputError(f"subsets differ in size (a ragged log): {exc}") from exc


def subset_array(subsets, num_tasks: int) -> np.ndarray:
    """Subsets as an n x alpha int64 array with sorted rows; rejects an empty
    or ragged list, a repeated task and ids outside 0..num_tasks-1."""
    rows = np.sort(_rows(subsets), axis=-1)
    if (rows.ndim != 2 or 0 in rows.shape or (rows[:, 1:] == rows[:, :-1]).any()
            or rows[:, 0].min() < 0 or rows[:, -1].max() >= num_tasks):
        raise InvalidInputError("subsets must be a nonempty list of nonempty tuples of "
                                f"distinct task ids in 0..{num_tasks - 1}")
    return rows


def sample_subsets(plan: SamplingPlan):
    """Draw i.i.d. uniform size-alpha subsets of {0..T-1}.

    Deterministic under plan.seed; repeats are allowed. When
    min_pair_coverage > 0, extra subsets are appended past num_subsets until
    every pair co-occurs that often, or a cap of 10x num_subsets aborts with
    a CoverageError listing the uncovered pairs.
    """
    rng = np.random.default_rng(plan.seed)
    t, alpha = plan.num_tasks, plan.subset_size

    def draw():
        return tuple(sorted(rng.choice(t, size=alpha, replace=False).tolist()))

    subsets = [draw() for _ in range(plan.num_subsets)]
    if plan.min_pair_coverage > 0:
        rows = np.array(subsets, dtype=np.int64)
        keys = rows[:, :, None] * t + rows[:, None, :]
        cover = np.bincount(keys.ravel(), minlength=t * t).reshape(t, t)
        cap = COVERAGE_CAP_FACTOR * plan.num_subsets

        def uncovered():
            return np.argwhere(np.triu(cover < plan.min_pair_coverage, k=1))

        while len(uncovered()) and len(subsets) < cap:
            s = draw()
            subsets.append(s)
            idx = np.array(s)
            cover[np.ix_(idx, idx)] += 1
        missing = uncovered()
        if len(missing):
            raise CoverageError(
                f"pair coverage {plan.min_pair_coverage} unreachable within "
                f"{cap} subsets", uncovered=[(int(i), int(j)) for i, j in missing],
            )
    return subsets


def collect_evaluations(g, tasks, subsets, spec: LearnerSpec, base_seed: int,
                        features: np.ndarray | None = None, indices=None,
                        commit=None) -> EvalLog:
    """Train one model per subset and score every member on its val mask.

    Subset k has log index ``indices[k]`` (default k) and seed base_seed XOR
    that index. The linear learner scores all subsets in one batch, the MLP
    one at a time, in log order (learners.train_models, which may train them
    on a pool); ``commit(indices, log)`` receives each finished batch.
    Failures are re-raised as TrainingError tagged with the log index.
    """
    rows = subset_array(subsets, tasks.num_tasks)
    indices = np.arange(len(rows)) if indices is None else np.asarray(indices, dtype=np.int64)
    seeds = base_seed ^ indices
    if spec.kind == "closed-form-linear":
        try:
            scores = closed_form_scores(g.node_features if features is None else features,
                                        tasks, rows, spec.ridge, spec.metric)
        except TaskAffError as exc:
            k = getattr(exc, "subset_index", None)
            raise TrainingError(f"subset training failed: {exc}",
                                subset_index=None if k is None else int(indices[k])) from exc
        log = EvalLog(rows, scores, seeds, spec.metric)
        if commit is not None:
            commit(indices, log)
        return log
    scores, members = np.empty(rows.shape), rows.tolist()
    models = train_models(g, tasks, members, spec, seeds.tolist(), features=features)
    with closing(models):
        for k, subset in enumerate(members):
            try:
                model = next(models)
                scores[k] = [evaluate(model, tasks, i, "val", spec.metric) for i in subset]
            except TrainingError as exc:
                raise TrainingError(str(exc), subset_index=int(indices[k])) from exc
            except TaskAffError as exc:
                raise TrainingError(f"subset training failed: {exc}",
                                    subset_index=int(indices[k])) from exc
            if commit is not None:
                commit(indices[k:k + 1], EvalLog(rows[k:k + 1], scores[k:k + 1],
                                                 seeds[k:k + 1], spec.metric))
    return EvalLog(rows, scores, seeds, spec.metric)


def _regroup(subsets, scores, num_tasks, prefixes):
    """(theta, counts) of each prefix length c: exact fsum means of f_i per pair.

    A stable sort on the pair keys i*T + j makes each pair's values one slice
    in subset order, so the first c subsets' values open the slice.
    """
    alpha = subsets.shape[1]
    if subsets[:, 0].min() < 0 or subsets[:, -1].max() >= num_tasks:
        raise InvalidInputError(f"a logged subset holds task ids outside 0..{num_tasks - 1}")
    keys = (subsets[:, :, None] * num_tasks + subsets[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    values = np.repeat(scores.ravel(), alpha)[order].tolist()
    full = np.bincount(keys, minlength=num_tasks**2)
    starts = np.cumsum(full) - full
    for c in prefixes:
        counts = np.bincount(keys[:c * alpha * alpha], minlength=num_tasks**2)
        pairs, theta = np.flatnonzero(counts), np.zeros(num_tasks**2)
        theta[pairs] = [math.fsum(values[s:s + k]) / k
                        for s, k in zip(starts[pairs].tolist(), counts[pairs].tolist())]
        yield theta.reshape(num_tasks, num_tasks), counts.reshape(num_tasks, num_tasks)


def _imputed(theta, counts, scores) -> AffinityMatrix:
    """Fill never co-sampled pairs from the row's diagonal, or the global mean."""
    global_mean = math.fsum(scores.ravel().tolist()) / scores.size
    fallback = np.where(np.diag(counts) > 0, np.diag(theta), global_mean)
    theta = np.where(counts == 0, fallback[:, None], theta)
    return AffinityMatrix(theta, counts, orientation="performance")


def estimate_affinity(log: EvalLog, num_tasks: int) -> AffinityMatrix:
    """Aggregate an evaluation log into the affinity matrix.

    Pairs that never co-occurred are imputed with the target task's diagonal
    (its overall mean score) and flagged; a task never sampled at all falls
    back to the global mean of observed scores.
    """
    if not len(log):
        raise InvalidInputError("evaluation log is empty")
    (theta, counts), = _regroup(log.subsets, log.scores, num_tasks, [len(log)])
    return _imputed(theta, counts, log.scores)


def convergence_trace(log: EvalLog, full: AffinityMatrix, checkpoints):
    """Max-entry |theta(prefix) - full.theta| per prefix size; full = estimate_affinity(log)."""
    checkpoints = list(checkpoints)
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise InvalidInputError("checkpoints must be strictly ascending")
    if checkpoints and checkpoints[-1] > len(log):
        raise InvalidInputError("checkpoints exceed the log length")
    if checkpoints and checkpoints[0] < 1:
        raise InvalidInputError("checkpoints must be >= 1")
    shorter = [c for c in checkpoints if c < len(log)]
    thetas = [_imputed(theta, counts, log.scores[:c]).theta for c, (theta, counts) in zip(
        shorter, _regroup(log.subsets, log.scores, full.num_tasks, shorter))]
    thetas += [full.theta] * (len(checkpoints) - len(shorter))
    return [float(np.max(np.abs(theta - full.theta))) for theta in thetas]


def save_eval_log(log: EvalLog, csv_path, indices=None, append: bool = False) -> None:
    """Persist the log as CSV score rows tagged ``indices[k]`` (default k);
    ``append`` adds the rows to an existing CSV instead of writing one with a
    header."""
    indices = range(len(log)) if indices is None else indices
    with open(csv_path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(["subset_index", "task_id", "score", "metric", "seed"])
        for k, subset, scores, seed in zip(indices, log.subsets.tolist(),
                                           log.scores.tolist(), log.seeds.tolist()):
            writer.writerows([int(k), tid, repr(score), log.metric, seed]
                             for tid, score in zip(subset, scores))


def load_eval_log(csv_path, subsets_path, indices=None) -> EvalLog:
    """Read a saved log, or only its subsets at ``indices``; rows of other
    subsets are skipped and a missing CSV holds no rows.

    A malformed last line is the tail of an interrupted append and is
    skipped; a malformed row anywhere else, or a non-finite score on any
    line, raises ParseError.
    """
    with open(subsets_path, "r", encoding="utf-8") as fh, reading(subsets_path):
        subsets = _rows(json.load(fh))
    indices = np.arange(len(subsets)) if indices is None else np.asarray(indices, dtype=np.int64)
    kept, rows = subsets[indices], {}
    if os.path.exists(csv_path):
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
        for number, line in enumerate(lines[1:], 2):
            try:
                k, tid, score, metric, seed = line
                rows[int(k), int(tid)] = float(score), metric, int(seed)
                if math.isfinite(float(score)):
                    continue
            except ValueError:
                if number == len(lines):
                    continue  # the cut tail of an interrupted append
            raise ParseError(f"malformed row {','.join(line)!r} in {csv_path}", number)
    try:
        cells = [[rows[k, tid] for tid in members]
                 for k, members in zip(indices.tolist(), kept.tolist())]
    except KeyError as exc:
        raise InvalidInputError(f"evaluation log holds no row for (subset, task) {exc}") from None
    metrics = {cell[1] for row in cells for cell in row}
    if len(metrics) > 1:
        raise InvalidInputError(f"evaluation log mixes metrics: {sorted(metrics)}")
    scores = np.array([[cell[0] for cell in row] for row in cells]).reshape(kept.shape)
    return EvalLog(kept, scores, [row[0][2] for row in cells],
                   metrics.pop() if metrics else None)


def save_affinity(aff: AffinityMatrix, theta_path, counts_path, sidecar_path) -> None:
    np.savetxt(theta_path, aff.theta, delimiter=",", fmt="%.17g")
    np.savetxt(counts_path, aff.counts, delimiter=",", fmt="%d")
    sidecar = {
        "orientation": aff.orientation,
        "imputed": [[int(i), int(j)] for i, j in np.argwhere(aff.imputed)],
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)


def load_affinity(theta_path, counts_path, sidecar_path) -> AffinityMatrix:
    """Read saved affinity files; theta must be square, counts its shape."""
    theta = _load_matrix(theta_path)
    t = theta.shape[1]
    if theta.shape[0] != t or not np.isfinite(theta).all():
        raise ParseError(f"{theta_path} holds a {theta.shape[0]} x {t} matrix, "
                         f"expected {t} x {t} finite scores")
    counts = _load_matrix(counts_path, t, t, dtype=np.int64)
    with open(sidecar_path, "r", encoding="utf-8") as fh, reading(sidecar_path):
        sidecar = json.load(fh)
        aff = AffinityMatrix(theta, counts, sidecar["orientation"])
        if sidecar["imputed"] != np.argwhere(aff.imputed).tolist():
            raise ParseError(f"{sidecar_path}: its imputed pairs are not the zero counts "
                             f"of {counts_path}")
        return aff

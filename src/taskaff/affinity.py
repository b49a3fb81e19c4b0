"""Higher-order task affinity: sampling, scoring, aggregation, the affinity directory.

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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError, ParseError, TaskAffError, int_ids, read_json_object, reading
from .graphs import _load_matrix
from .learners import (LearnerSpec, check_shared_masks, closed_form_scores, evaluate,
                       train_models)
from .learners import train_subset  # noqa: F401 (bench/tracing.py wraps it here)

COVERAGE_CAP_FACTOR = 10

# The files of an affinity directory that a run's manifest hashes; evals.csv is
# also its resume state, and fingerprint.json lies beside them.
ARTIFACTS = EVALS, SUBSETS, THETA, COUNTS, SIDECAR, CONVERGENCE = (
    "evals.csv", "subsets.json", "theta.csv", "counts.csv", "affinity.json", "convergence.csv")


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
    """T x T affinity scores with co-occurrence counts; theta is oriented as
    the scores it averages (evaluate()'s, higher is better, in the pipeline)."""

    theta: np.ndarray
    counts: np.ndarray

    @property
    def num_tasks(self) -> int:
        return self.theta.shape[0]

    @property
    def imputed(self) -> np.ndarray:
        """Entries of pairs that never co-occurred, filled from the row's diagonal."""
        return self.counts == 0


@dataclass
class EvalLog:
    """Scores f_i(S) of n trained subsets of one size alpha, as arrays:
    ``scores[k, p]`` is the score of task ``subsets[k, p]`` on subset k's model.
    A NaN score, the mark of a row that load_eval_log did not find, is refused."""

    subsets: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.subsets = _rows(self.subsets)
        self.scores = np.asarray(self.scores, dtype=float)
        if self.subsets.ndim != 2 or self.scores.shape != self.subsets.shape:
            raise InvalidInputError("evaluation log needs n x alpha subsets and scores")
        if (missing := np.argwhere(np.isnan(self.scores))).size:
            k, p = missing[0].tolist()
            raise InvalidInputError("evaluation log holds no row for (subset, task) "
                                    f"({k}, {self.subsets[k, p]})")

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


def uncovered_pairs(short: np.ndarray) -> str:
    """'N pairs uncovered, first (i, j)' for the pairs i < j that a T x T
    boolean matrix marks, or '' when it marks none."""
    pairs = np.argwhere(np.triu(short, k=1))
    if not len(pairs):
        return ""
    return f"{len(pairs)} pairs uncovered, first ({pairs[0, 0]}, {pairs[0, 1]})"


def sample_subsets(plan: SamplingPlan):
    """Draw i.i.d. uniform size-alpha subsets of {0..T-1}.

    Deterministic under plan.seed; repeats are allowed. When
    min_pair_coverage > 0, extra subsets are appended past num_subsets until
    every pair co-occurs that often, or a cap of 10x num_subsets aborts with
    a TaskAffError naming how many pairs are uncovered and the first.
    """
    rng = np.random.default_rng(plan.seed)
    t, alpha = plan.num_tasks, plan.subset_size

    def draw():
        return tuple(sorted(rng.choice(t, size=alpha, replace=False).tolist()))

    subsets = [draw() for _ in range(plan.num_subsets)]
    if plan.min_pair_coverage > 0:
        rows = np.array(subsets, dtype=np.int64)
        cover = sum(np.bincount(rows[:, p] * t + rows[:, q], minlength=t * t)
                    for p in range(alpha) for q in range(alpha)).reshape(t, t)
        cap = COVERAGE_CAP_FACTOR * plan.num_subsets

        def gap():
            return uncovered_pairs(cover < plan.min_pair_coverage)

        while gap() and len(subsets) < cap:
            s = draw()
            subsets.append(s)
            idx = np.array(s)
            cover[np.ix_(idx, idx)] += 1
        if missing := gap():
            raise TaskAffError(f"pair coverage {plan.min_pair_coverage} unreachable within "
                               f"{cap} subsets: {missing}")
    return subsets


def collect_evaluations(tasks, subsets, spec: LearnerSpec, base_seed: int, features,
                        indices=None, commit=None) -> EvalLog:
    """Train one model per subset and score every member on its val mask.

    Subset k has log index ``indices[k]`` (default k) and seed base_seed XOR
    that index. The linear learner scores all subsets in one batch, the MLP
    one at a time, in log order (learners.train_models, which may train them
    on a pool); ``commit(indices, log)`` receives each finished batch. An MLP
    TrainingError names the subset's log index ("…, subset 23").
    """
    rows = subset_array(subsets, tasks.num_tasks)
    indices = np.arange(len(rows)) if indices is None else np.asarray(indices, dtype=np.int64)
    if spec.kind == "closed-form-linear":
        log = EvalLog(rows, closed_form_scores(features, tasks, rows, spec.ridge, spec.metric))
        if commit is not None:
            commit(indices, log)
        return log
    seeds = [base_seed ^ k for k in indices.tolist()]  # Python ints: a seed may pass 2**63
    scores, members = np.empty(rows.shape), rows.tolist()
    models = train_models(tasks, members, spec, seeds, features,
                          [f"subset {k}" for k in indices.tolist()])
    with closing(models):
        for k, (subset, model) in enumerate(zip(members, models)):
            scores[k] = [evaluate(model, tasks, i, "val", spec.metric) for i in subset]
            if commit is not None:
                commit(indices[k:k + 1], EvalLog(rows[k:k + 1], scores[k:k + 1]))
    return EvalLog(rows, scores)


def _regroup(subsets, scores, num_tasks, prefixes):
    """[(theta, counts)] of each prefix length c: exact fsum means of f_i per pair.

    One target task i at a time: its subsets in log order, and its score in
    each. A stable sort on their members j makes the values of each pair
    (i, j) one slice in subset order, so the first c subsets' values open the
    slice, and temporaries stay O(n * alpha). fsum is correctly rounded, so
    theta does not depend on how the values are grouped.
    """
    alpha, t = subsets.shape[1], num_tasks
    if subsets[:, 0].min() < 0 or subsets[:, -1].max() >= t:
        raise InvalidInputError(f"a logged subset holds task ids outside 0..{t - 1}")
    thetas = np.zeros((len(prefixes), t, t))
    counts = np.zeros((len(prefixes), t, t), dtype=np.int64)
    order = np.argsort(subsets.ravel(), kind="stable")  # task by task, each in log order
    ends = np.cumsum(np.bincount(subsets.ravel(), minlength=t)).tolist()
    for i, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
        held = order[lo:hi] // alpha  # the subsets that hold i, ascending
        members = subsets[held].ravel()
        by_partner = np.argsort(members, kind="stable")
        values = scores.ravel()[order[lo:hi]][by_partner // alpha]  # f_i, pair by pair
        full = np.bincount(members, minlength=t)
        starts = np.cumsum(full) - full
        for row, c in enumerate(prefixes):
            cnt = np.bincount(members[:np.searchsorted(held, c) * alpha], minlength=t)
            pairs = np.flatnonzero(cnt)
            thetas[row, i, pairs] = [math.fsum(values[s:s + k].tolist()) / k
                                     for s, k in zip(starts[pairs].tolist(), cnt[pairs].tolist())]
            counts[row, i] = cnt
    return list(zip(thetas, counts))


def _imputed(theta, counts, scores) -> AffinityMatrix:
    """Fill never co-sampled pairs from the row's diagonal, or the global mean."""
    fallback, unsampled = np.diag(theta).copy(), np.diag(counts) == 0
    if unsampled.any():  # summed only when needed: a log may hold millions of scores
        fallback[unsampled] = math.fsum(scores.ravel().tolist()) / scores.size
    theta = np.where(counts == 0, fallback[:, None], theta)
    return AffinityMatrix(theta, counts)


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


def convergence_trace(log: EvalLog, num_tasks: int, checkpoints):
    """(estimate_affinity(log), the max-entry |theta(prefix) - theta| per
    prefix size in ``checkpoints``), from one regroup of the log."""
    checkpoints = list(checkpoints)
    if not len(log) or any(b <= a for a, b in zip([0] + checkpoints, checkpoints + [len(log) + 1])):
        raise InvalidInputError(f"checkpoints must ascend strictly within 1..{len(log)}")
    prefixes = sorted({*checkpoints, len(log)})
    affs = {c: _imputed(theta, counts, log.scores[:c]) for c, (theta, counts) in zip(
        prefixes, _regroup(log.subsets, log.scores, num_tasks, prefixes))}
    return affs[len(log)], [float(np.max(np.abs(affs[c].theta - affs[len(log)].theta)))
                            for c in checkpoints]


def save_eval_log(log: EvalLog, csv_path, metric: str, base_seed: int, indices=None,
                  append: bool = False) -> None:
    """Persist the log as CSV score rows of subset ``indices[k]`` (default k),
    each tagged with the run's ``metric`` and that subset's seed, base_seed
    XOR its index; ``append`` adds the rows to an existing CSV instead of
    writing one with a header."""
    indices = range(len(log)) if indices is None else indices
    with open(csv_path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(["subset_index", "task_id", "score", "metric", "seed"])
        for k, subset, scores in zip(indices, log.subsets.tolist(), log.scores.tolist()):
            writer.writerows([int(k), tid, repr(score), metric, base_seed ^ int(k)]
                             for tid, score in zip(subset, scores))


def load_eval_log(csv_path, subsets, metric: str) -> np.ndarray:
    """The scores a saved log holds for ``subsets`` (its n x alpha subsets),
    as an n x alpha array with NaN where the file has no row; rows of other
    subsets are skipped.

    A malformed last line is the tail of an interrupted append and is
    skipped; a malformed row anywhere else, or a non-finite score or a
    metric other than ``metric`` on any line, raises ParseError.
    """
    subsets, rows = _rows(subsets), {}
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    for number, line in enumerate(lines[1:], 2):
        try:
            k, tid, score, tag, seed = line
            value, _ = float(score), int(seed)  # a seed is base_seed ^ k, so only parsed
            rows[int(k), int(tid)] = value
            if tag != metric:
                raise ParseError(f"line {number}: {csv_path} holds {tag} scores, not {metric}")
            if math.isfinite(value):
                continue
        except ValueError:
            if number == len(lines):
                continue  # the cut tail of an interrupted append
        raise ParseError(f"line {number}: malformed row {','.join(line)!r} in {csv_path}")
    return np.array([[rows.get((k, tid), np.nan) for tid in members]
                     for k, members in enumerate(subsets.tolist())]).reshape(subsets.shape)


def save_affinity(aff: AffinityMatrix, aff_dir) -> None:
    """Write theta.csv, counts.csv and affinity.json into ``aff_dir``."""
    np.savetxt(os.path.join(aff_dir, THETA), aff.theta, delimiter=",", fmt="%.17g")
    np.savetxt(os.path.join(aff_dir, COUNTS), aff.counts, delimiter=",", fmt="%d")
    with open(os.path.join(aff_dir, SIDECAR), "w", encoding="utf-8") as fh:
        json.dump({"imputed": np.argwhere(aff.imputed).tolist()}, fh, sort_keys=True)


def load_affinity(aff_dir) -> AffinityMatrix:
    """Read the affinity files of ``aff_dir``; theta must be square, counts its shape."""
    theta_path, counts_path, sidecar_path = (os.path.join(aff_dir, name)
                                             for name in (THETA, COUNTS, SIDECAR))
    theta = _load_matrix(theta_path)
    t = theta.shape[1]
    if theta.shape[0] != t or not np.isfinite(theta).all():
        raise ParseError(f"{theta_path} holds a {theta.shape[0]} x {t} matrix, "
                         f"expected {t} x {t} finite scores")
    counts = _load_matrix(counts_path, t, t, dtype=np.int64)
    with open(sidecar_path, "r", encoding="utf-8") as fh, reading(sidecar_path):
        sidecar = json.load(fh)
        aff = AffinityMatrix(theta, counts)
        if sidecar["imputed"] != np.argwhere(aff.imputed).tolist():
            raise ParseError(f"{sidecar_path}: its imputed pairs are not the zero counts "
                             f"of {counts_path}")
        return aff


def _check_fingerprint(aff_dir, fingerprint, advice) -> None:
    """Refuse the log in ``aff_dir`` unless its fingerprint.json agrees with
    ``fingerprint`` on every key of it; the refusal names each key that
    differs, and inside an object each of its keys that differs."""
    stored = read_json_object(os.path.join(aff_dir, "fingerprint.json"))
    differs = []
    for key, value in sorted(fingerprint.items()):
        old = stored.get(key)
        if isinstance(value, dict) and isinstance(old, dict):
            differs += [f"{key} {sub}" for sub in sorted(value.keys() | old.keys())
                        if old.get(sub) != value.get(sub)]
        elif old != value:
            differs.append(key)
    if differs:
        raise TaskAffError(f"{aff_dir} holds an affinity log whose {', '.join(differs)} "
                           f"differ from this run; {advice}")


def _load_subsets(path, num_tasks) -> np.ndarray:
    """The subsets.json of a log: rows of ascending task ids in 0..num_tasks-1."""
    with open(path, "r", encoding="utf-8") as fh, reading(path):
        rows = int_ids(json.load(fh))
        bad = ((np.diff(rows, axis=1) <= 0).any(axis=1) | (rows[:, 0] < 0)
               | (rows[:, -1] >= num_tasks))
        if bad.any():
            raise ValueError(f"subset {np.argmax(bad)} is not a row of ascending task ids "
                             f"in 0..{num_tasks - 1}")
        return rows


def run_log(aff_dir, plan: SamplingPlan, spec: LearnerSpec, fingerprint, load_dataset):
    """Bring the log in ``aff_dir`` up to ``plan``, write its theta files and
    return (log, theta). A fresh directory samples the plan; any other must
    hold ``fingerprint`` plus the plan, the plan's subsets and ``spec.metric``
    scores. Subsets without a row in evals.csv for each member train on
    ``load_dataset()`` with base seed ``plan.seed``, called only if one is
    pending: evals.csv is rewritten with the finished subsets' rows, then
    each batch is appended, so a stopped run resumes to the log an
    uninterrupted one writes."""
    evals_path, subsets_path, fp_path = (os.path.join(aff_dir, name) for name in (
        EVALS, SUBSETS, "fingerprint.json"))
    fingerprint = dict(fingerprint, plan=asdict(plan))
    fresh = not os.path.exists(subsets_path)
    if fresh:
        subsets = subset_array(sample_subsets(plan), plan.num_tasks)
    else:
        _check_fingerprint(aff_dir, fingerprint, "remove it or choose another directory")
        subsets = _load_subsets(subsets_path, plan.num_tasks)
        if len(subsets) < plan.num_subsets or subsets.shape[1] != plan.subset_size:
            raise TaskAffError(f"{subsets_path} does not match the requested plan; "
                               "remove the output directory to start fresh")
    scores = (np.full(subsets.shape, np.nan) if fresh or not os.path.exists(evals_path)
              else load_eval_log(evals_path, subsets, spec.metric))
    pending = np.flatnonzero(np.isnan(scores).any(axis=1))
    if pending.size:  # a complete log is rescored without reading the dataset
        tasks, features = load_dataset()
        if tasks.num_tasks != plan.num_tasks:
            raise InvalidInputError(f"the dataset holds {tasks.num_tasks} tasks, but the "
                                    f"plan samples from {plan.num_tasks}")
        if spec.kind == "closed-form-linear":  # no subset could train, so nothing is written
            check_shared_masks(tasks)
        if fresh:
            os.makedirs(aff_dir, exist_ok=True)
            with open(fp_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(fingerprint, sort_keys=True, indent=1) + "\n")
            with open(subsets_path, "w", encoding="utf-8") as fh:
                json.dump(subsets.tolist(), fh)
        done = np.setdiff1d(np.arange(len(subsets)), pending)
        save_eval_log(EvalLog(subsets[done], scores[done]), evals_path, spec.metric, plan.seed,
                      indices=done)

        def commit(indices, batch):
            save_eval_log(batch, evals_path, spec.metric, plan.seed, indices=indices, append=True)

        scores[pending] = collect_evaluations(tasks, subsets[pending], spec, plan.seed,
                                              features=features, indices=pending,
                                              commit=commit).scores
    log = EvalLog(subsets, scores)
    checkpoints = sorted({max(1, len(log) * q // 4) for q in range(1, 5)})
    aff, trace = convergence_trace(log, plan.num_tasks, checkpoints)
    save_affinity(aff, aff_dir)
    with open(os.path.join(aff_dir, CONVERGENCE), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("prefix", "max_abs_deviation"),
                                  *zip(checkpoints, map(repr, trace))])
    return log, aff


def open_log(aff_dir, fingerprint, metric: str):
    """(log, theta) of the finished affinity run in ``aff_dir``, refused unless
    its fingerprint.json agrees with ``fingerprint`` on every key of it and
    its evals.csv holds ``metric`` scores for every member of every subset."""
    _check_fingerprint(aff_dir, fingerprint, "pass those of that run")
    aff = load_affinity(aff_dir)
    subsets = _load_subsets(os.path.join(aff_dir, SUBSETS), aff.num_tasks)
    evals_path = os.path.join(aff_dir, EVALS)
    scores = load_eval_log(evals_path, subsets, metric)
    if (missing := np.argwhere(np.isnan(scores))).size:
        k, p = missing[0].tolist()
        raise TaskAffError(f"{evals_path} holds no row for task {subsets[k, p]} of subset {k}; "
                           "rerun affinity with the same flags to finish the log")
    return EvalLog(subsets, scores), aff

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

from .errors import (CoverageError, InvalidInputError, ParseError, TaskAffError,
                     TrainingError, int_ids, read_json_object, reading)
from .graphs import _load_matrix
from .learners import (LearnerSpec, check_shared_masks, closed_form_scores, evaluate,
                       train_models)
from .learners import train_subset  # noqa: F401 (bench/tracing.py wraps it here)

COVERAGE_CAP_FACTOR = 10

# The files of an affinity directory that a run's manifest hashes; its resume
# state, completed.idx and fingerprint.json, lies beside them.
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
    """Scores f_i(S) of n trained subsets of one size alpha, as arrays:
    ``scores[k, p]`` is the score of task ``subsets[k, p]`` on subset k's model."""

    subsets: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.subsets = _rows(self.subsets)
        self.scores = np.asarray(self.scores, dtype=float)
        if self.subsets.ndim != 2 or self.scores.shape != self.subsets.shape:
            raise InvalidInputError("evaluation log needs n x alpha subsets and scores")

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


def collect_evaluations(tasks, subsets, spec: LearnerSpec, base_seed: int, features,
                        indices=None, commit=None) -> EvalLog:
    """Train one model per subset and score every member on its val mask.

    Subset k has log index ``indices[k]`` (default k) and seed base_seed XOR
    that index. The linear learner scores all subsets in one batch, the MLP
    one at a time, in log order (learners.train_models, which may train them
    on a pool); ``commit(indices, log)`` receives each finished batch. An MLP
    failure is re-raised as TrainingError tagged with the subset's log index.
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
    models = train_models(tasks, members, spec, seeds, features)
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
                commit(indices[k:k + 1], EvalLog(rows[k:k + 1], scores[k:k + 1]))
    return EvalLog(rows, scores)


def _regroup(subsets, scores, num_tasks, prefixes):
    """(theta, counts) of each prefix length c: exact fsum means of f_i per pair.

    A stable sort on the pair keys i*T + j makes each pair's values one slice
    of a float64 array in subset order, so the first c subsets' values open
    the slice. Only one slice at a time becomes Python floats; fsum is
    correctly rounded, so theta does not depend on how the values are held.
    """
    alpha = subsets.shape[1]
    if subsets[:, 0].min() < 0 or subsets[:, -1].max() >= num_tasks:
        raise InvalidInputError(f"a logged subset holds task ids outside 0..{num_tasks - 1}")
    keys = (subsets[:, :, None] * num_tasks + subsets[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    order //= alpha  # key k = (subset, i, j) scores f_i = scores.ravel()[k // alpha]
    values = scores.ravel()[order]
    del order
    full = np.bincount(keys, minlength=num_tasks**2)
    starts = np.cumsum(full) - full
    for c in prefixes:
        counts = np.bincount(keys[:c * alpha * alpha], minlength=num_tasks**2)
        pairs, theta = np.flatnonzero(counts), np.zeros(num_tasks**2)
        theta[pairs] = [math.fsum(values[s:s + k].tolist()) / k
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
    if any(b <= a for a, b in zip([0] + checkpoints, checkpoints + [len(log) + 1])):
        raise InvalidInputError(f"checkpoints must ascend strictly within 1..{len(log)}")
    shorter = [c for c in checkpoints if c < len(log)]
    thetas = [_imputed(theta, counts, log.scores[:c]).theta for c, (theta, counts) in zip(
        shorter, _regroup(log.subsets, log.scores, full.num_tasks, shorter))]
    thetas += [full.theta] * (len(checkpoints) - len(shorter))
    return [float(np.max(np.abs(theta - full.theta))) for theta in thetas]


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


def load_eval_log(csv_path, subsets, metric: str, indices=None) -> EvalLog:
    """Read the rows a saved log holds for ``subsets`` (its n x alpha
    subsets), or only for those at ``indices``; rows of other subsets are
    skipped, and an empty ``indices`` reads no file.

    A malformed last line is the tail of an interrupted append and is
    skipped; a malformed row anywhere else, or a non-finite score or a
    metric other than ``metric`` on any line, raises ParseError.
    """
    subsets = _rows(subsets)
    indices = np.arange(len(subsets)) if indices is None else np.asarray(indices, dtype=np.int64)
    kept, rows = subsets[indices], {}
    if indices.size:
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
        for number, line in enumerate(lines[1:], 2):
            try:
                k, tid, score, tag, seed = line
                value, _ = float(score), int(seed)  # a seed is base_seed ^ k, so only parsed
                rows[int(k), int(tid)] = value
                if tag != metric:
                    raise ParseError(f"{csv_path} holds {tag} scores, not {metric}", number)
                if math.isfinite(value):
                    continue
            except ValueError:
                if number == len(lines):
                    continue  # the cut tail of an interrupted append
            raise ParseError(f"malformed row {','.join(line)!r} in {csv_path}", number)
    try:
        scores = [[rows[k, tid] for tid in members]
                  for k, members in zip(indices.tolist(), kept.tolist())]
    except KeyError as exc:
        raise InvalidInputError(f"evaluation log holds no row for (subset, task) {exc}") from None
    return EvalLog(kept, np.array(scores).reshape(kept.shape))


def save_affinity(aff: AffinityMatrix, aff_dir) -> None:
    """Write theta.csv, counts.csv and affinity.json into ``aff_dir``."""
    np.savetxt(os.path.join(aff_dir, THETA), aff.theta, delimiter=",", fmt="%.17g")
    np.savetxt(os.path.join(aff_dir, COUNTS), aff.counts, delimiter=",", fmt="%d")
    with open(os.path.join(aff_dir, SIDECAR), "w", encoding="utf-8") as fh:
        json.dump({"orientation": aff.orientation,
                   "imputed": np.argwhere(aff.imputed).tolist()}, fh, sort_keys=True)


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
        aff = AffinityMatrix(theta, counts, sidecar["orientation"])
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


def run_log(aff_dir, plan: SamplingPlan, spec: LearnerSpec, fingerprint, load_dataset,
            base_seed: int):
    """Bring the log in ``aff_dir`` up to ``plan``, write its theta files and
    return (log, theta). A fresh directory samples the plan; any other must
    hold ``fingerprint`` plus the plan, the plan's subsets and ``spec.metric``
    scores. Subsets not in completed.idx train on ``load_dataset()``, called
    only if one is pending, and each batch is appended to evals.csv, then to
    completed.idx, so a stopped run resumes to the log an uninterrupted one
    writes."""
    evals_path, subsets_path, idx_path, fp_path = (os.path.join(aff_dir, name) for name in (
        EVALS, SUBSETS, "completed.idx", "fingerprint.json"))
    fingerprint = dict(fingerprint, plan=asdict(plan))
    fresh, done = not os.path.exists(subsets_path), []
    if fresh:
        subsets = subset_array(sample_subsets(plan), plan.num_tasks)
    else:
        _check_fingerprint(aff_dir, fingerprint, "remove it or choose another directory")
        subsets = _load_subsets(subsets_path, plan.num_tasks)
        if len(subsets) < plan.num_subsets or subsets.shape[1] != plan.subset_size:
            raise TaskAffError(f"{subsets_path} does not match the requested plan; "
                               "remove the output directory to start fresh")
        if os.path.exists(idx_path):
            with open(idx_path, "r", encoding="utf-8") as fh, reading(idx_path):
                done = sorted({int(line) for line in fh if line.strip()})
                if done and (done[0] < 0 or done[-1] >= len(subsets)):
                    raise IndexError(f"a subset index lies outside 0..{len(subsets) - 1}")
    log = load_eval_log(evals_path, subsets, spec.metric, done)
    pending = np.setdiff1d(np.arange(len(subsets)), done)
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
        # Keep only committed rows, so appended batches extend a clean log.
        save_eval_log(log, evals_path, spec.metric, base_seed, indices=done)
        with open(idx_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k}\n" for k in done)

        def commit(indices, batch):
            save_eval_log(batch, evals_path, spec.metric, base_seed, indices=indices, append=True)
            with open(idx_path, "a", encoding="utf-8") as fh:
                fh.writelines(f"{k}\n" for k in indices)

        new = collect_evaluations(tasks, subsets[pending], spec, base_seed,
                                  features=features, indices=pending, commit=commit)
        scores = np.empty(subsets.shape)
        scores[done], scores[pending] = log.scores, new.scores
        log = EvalLog(subsets, scores)
    aff = estimate_affinity(log, plan.num_tasks)
    save_affinity(aff, aff_dir)
    checkpoints = sorted({max(1, len(log) * q // 4) for q in range(1, 5)})
    trace = convergence_trace(log, aff, checkpoints)
    with open(os.path.join(aff_dir, CONVERGENCE), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("prefix", "max_abs_deviation"),
                                  *zip(checkpoints, map(repr, trace))])
    return log, aff


def open_log(aff_dir, fingerprint, metric: str):
    """(log, theta) of the finished affinity run in ``aff_dir``, refused unless
    its fingerprint.json agrees with ``fingerprint`` on every key of it and
    its evals.csv holds ``metric`` scores."""
    _check_fingerprint(aff_dir, fingerprint, "pass those of that run")
    aff = load_affinity(aff_dir)
    subsets = _load_subsets(os.path.join(aff_dir, SUBSETS), aff.num_tasks)
    return load_eval_log(os.path.join(aff_dir, EVALS), subsets, metric), aff

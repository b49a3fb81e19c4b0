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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoverageError,
    EmptyDomainError,
    InvalidInputError,
    TaskAffError,
    TrainingError,
)
from .learners import LearnerSpec, SubsetEvaluation, evaluate, train_subset

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
    metrics and "loss" for the closed-form theory scores. ``imputed`` flags
    entries filled from the row's diagonal because the pair never co-occurred.
    """

    theta: np.ndarray
    counts: np.ndarray
    orientation: str
    imputed: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.orientation not in ("performance", "loss"):
            raise InvalidInputError(f"unknown orientation {self.orientation!r}")
        if self.imputed is None:
            self.imputed = np.zeros_like(self.theta, dtype=bool)

    @property
    def num_tasks(self) -> int:
        return self.theta.shape[0]


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
        cover = np.zeros((t, t), dtype=np.int64)
        for s in subsets:
            idx = np.array(s)
            cover[np.ix_(idx, idx)] += 1
        cap = COVERAGE_CAP_FACTOR * plan.num_subsets

        def uncovered():
            short = np.argwhere(np.triu(cover < plan.min_pair_coverage, k=1))
            return [(int(i), int(j)) for i, j in short]

        while uncovered() and len(subsets) < cap:
            s = draw()
            subsets.append(s)
            idx = np.array(s)
            cover[np.ix_(idx, idx)] += 1
        missing = uncovered()
        if missing:
            raise CoverageError(
                f"pair coverage {plan.min_pair_coverage} unreachable within "
                f"{cap} subsets", uncovered=missing,
            )
    return subsets


def collect_evaluations(g, tasks, subsets, spec: LearnerSpec, base_seed: int,
                        features: np.ndarray | None = None):
    """Train one model per subset and score every member on its val mask.

    The model for subset k is seeded with base_seed XOR k. Training errors
    are re-raised tagged with the subset index. Results are in subset order.
    """

    def run_one(k, subset):
        seed = base_seed ^ k
        try:
            model = train_subset(g, tasks, subset, spec, seed, features=features)
            scores = {i: evaluate(model, tasks, i, "val", spec.metric)
                      for i in model.subset}
        except TrainingError as exc:
            raise TrainingError(str(exc), subset_index=k) from exc
        except TaskAffError as exc:
            raise TrainingError(f"subset training failed: {exc}", subset_index=k) from exc
        return SubsetEvaluation(model.subset, scores, spec.metric, seed)

    return [run_one(k, s) for k, s in enumerate(subsets)]


def _aggregate(evals, num_tasks):
    """Exact per-pair regroup of the evaluation log: fsum means and counts."""
    values = {}
    counts = np.zeros((num_tasks, num_tasks), dtype=np.int64)
    for ev in evals:
        members = list(ev.subset)
        if members and (min(members) < 0 or max(members) >= num_tasks):
            raise InvalidInputError(
                f"subset {ev.subset} holds task ids outside 0..{num_tasks - 1}"
            )
        for i in members:
            fi = ev.scores[i]
            for j in members:
                values.setdefault((i, j), []).append(fi)
                counts[i, j] += 1
    theta = np.zeros((num_tasks, num_tasks))
    for (i, j), vals in values.items():
        theta[i, j] = math.fsum(vals) / len(vals)
    return theta, counts


def estimate_affinity(evals, num_tasks: int) -> AffinityMatrix:
    """Aggregate an evaluation log into the affinity matrix.

    Pairs that never co-occurred are imputed with the target task's diagonal
    (its overall mean score) and flagged; a task never sampled at all falls
    back to the global mean of observed scores.
    """
    if not evals:
        raise InvalidInputError("evaluation log is empty")
    metrics = {ev.metric for ev in evals}
    if len(metrics) > 1:
        raise InvalidInputError(f"evaluation log mixes metrics: {sorted(metrics)}")
    theta, counts = _aggregate(evals, num_tasks)
    imputed = counts == 0
    observed = [ev.scores[i] for ev in evals for i in ev.subset]
    global_mean = math.fsum(observed) / len(observed)
    for i in range(num_tasks):
        fallback = theta[i, i] if counts[i, i] > 0 else global_mean
        theta[i, imputed[i]] = fallback
    return AffinityMatrix(theta, counts, orientation="performance", imputed=imputed)


def convergence_trace(evals, num_tasks: int, checkpoints):
    """Max-entry |theta(prefix) - theta(full log)| at each prefix size."""
    checkpoints = list(checkpoints)
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise InvalidInputError("checkpoints must be strictly ascending")
    if checkpoints and checkpoints[-1] > len(evals):
        raise InvalidInputError("checkpoints exceed the log length")
    if checkpoints and checkpoints[0] < 1:
        raise InvalidInputError("checkpoints must be >= 1")
    full = estimate_affinity(evals, num_tasks).theta
    out = []
    for c in checkpoints:
        prefix = estimate_affinity(evals[:c], num_tasks).theta
        out.append(float(np.max(np.abs(prefix - full))))
    return out


def _normalize_log(f_log, task_id):
    log = {}
    for s, v in f_log.items():
        fs = frozenset(int(x) for x in s)
        if task_id in fs:
            log[fs] = v
    return log


def probe_monotonicity(f_log, task_id: int):
    """All nested pairs S < S' (task in both) where the score drops.

    Scores are performance-oriented, so f(S') < f(S) on a superset is a
    monotonicity violation. Raises EmptyDomainError when the log holds no
    nested pair at all.
    """
    log = _normalize_log(f_log, task_id)
    chains = [(s, sp) for s in log for sp in log if s < sp]
    if not chains:
        raise EmptyDomainError(f"log holds no nested subset pairs containing task {task_id}")
    return [
        (tuple(sorted(s)), tuple(sorted(sp)))
        for s, sp in chains
        if log[sp] < log[s]
    ]


def probe_submodularity(f_log, task_id: int):
    """Quadruples (S, S', x) violating the diminishing-returns inequality.

    For S subset of S' and x outside S', submodularity requires
    f(S' + x) - f(S') <= f(S + x) - f(S); any quadruple with all four
    values in the log that breaks it is returned.
    """
    log = _normalize_log(f_log, task_id)
    all_tasks = set()
    for s in log:
        all_tasks |= s
    found_domain = False
    violations = []
    for s in log:
        for sp in log:
            if not s <= sp:
                continue
            for x in all_tasks - sp:
                s_x, sp_x = s | {x}, sp | {x}
                if s_x not in log or sp_x not in log:
                    continue
                found_domain = True
                if log[sp_x] - log[sp] > log[s_x] - log[s]:
                    violations.append(
                        (tuple(sorted(s)), tuple(sorted(sp)), int(x))
                    )
    if not found_domain:
        raise EmptyDomainError(
            f"log holds no submodularity quadruples containing task {task_id}"
        )
    return violations


def save_eval_log(evals, csv_path, subsets_path) -> None:
    """Persist the log: score rows in CSV plus a companion subset array."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subset_index", "task_id", "score", "metric", "seed"])
        for k, ev in enumerate(evals):
            for tid in ev.subset:
                writer.writerow([k, tid, repr(ev.scores[tid]), ev.metric, ev.seed])
    with open(subsets_path, "w", encoding="utf-8") as fh:
        json.dump([list(ev.subset) for ev in evals], fh)


def load_eval_log(csv_path, subsets_path):
    with open(subsets_path, "r", encoding="utf-8") as fh:
        subsets = [tuple(s) for s in json.load(fh)]
    scores = [dict() for _ in subsets]
    meta = [None] * len(subsets)
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            k = int(row["subset_index"])
            scores[k][int(row["task_id"])] = float(row["score"])
            meta[k] = (row["metric"], int(row["seed"]))
    out = []
    for k, subset in enumerate(subsets):
        if meta[k] is None:
            raise InvalidInputError(f"evaluation log holds no rows for subset {k}")
        metric, seed = meta[k]
        out.append(SubsetEvaluation(subset, scores[k], metric, seed))
    return out


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
    theta = np.loadtxt(theta_path, delimiter=",", ndmin=2)
    counts = np.loadtxt(counts_path, delimiter=",", dtype=np.int64, ndmin=2)
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    imputed = np.zeros_like(theta, dtype=bool)
    for i, j in sidecar["imputed"]:
        imputed[i, j] = True
    return AffinityMatrix(theta, counts, sidecar["orientation"], imputed)

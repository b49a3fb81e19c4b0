"""Task grouping: symmetric cluster matrix, spectral clustering, group models.

The affinity matrix is doubled into a 2T x 2T block form so that each task
appears once as a clustering target (rows 0..T-1) and once as a directional
source (rows T..2T-1); clustering the doubled matrix lets a task join extra
groups as an auxiliary source while keeping exactly one home group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

import numpy as np

from .affinity import AffinityMatrix
from .errors import InvalidInputError, TaskAffError, int_ids, reading
from .learners import LearnerSpec, evaluate, train_models
from .learners import train_subset  # noqa: F401 (bench/tracing.py wraps it here)

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6
DEGREE_EPS = 1e-12


@dataclass
class TaskGrouping:
    """b (possibly overlapping) task groups from one clustering run."""

    groups: list
    assignments: np.ndarray
    budget: int


def minmax_rescale(matrix: np.ndarray) -> np.ndarray:
    """Affine rescale of all entries to [0, 1]; errors on a constant matrix."""
    lo, hi = float(matrix.min()), float(matrix.max())
    if hi == lo:
        raise InvalidInputError("matrix is constant; no contrast to cluster on")
    return (matrix - lo) / (hi - lo)


def build_cluster_matrix(aff: AffinityMatrix) -> np.ndarray:
    """The 2T x 2T block form [[a1, theta], [theta^T, 0]] of theta (higher is
    better) rescaled to [0, 1], where a1 is the symmetrized rescaled theta."""
    scaled = minmax_rescale(aff.theta)
    a1 = (scaled + scaled.T) / 2.0
    t = aff.num_tasks
    return np.block([
        [a1, scaled],
        [scaled.T, np.zeros((t, t))],
    ])


def _kmeans_pp_init(x, k, rng):
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.integers(n)
        centroids[c] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _kmeans(x, k, rng):
    """Lloyd iterations with k-means++ seeding and deterministic tie rules.

    np.argmin breaks distance ties toward the lowest centroid index; empty
    clusters are reseeded at the point farthest from its assigned centroid.
    The lowest-inertia restart wins (first restart on ties).
    """
    n = x.shape[0]
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centroids = _kmeans_pp_init(x, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(KMEANS_MAX_ITER):
            d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            labels = np.argmin(d2, axis=1)
            for c in range(k):
                if not np.any(labels == c):
                    far = int(np.argmax(d2[np.arange(n), labels]))
                    centroids[c] = x[far]
                    labels[far] = c
                    d2[:, c] = ((x - centroids[c]) ** 2).sum(axis=1)
            new_centroids = centroids.copy()
            for c in range(k):
                new_centroids[c] = x[labels == c].mean(axis=0)
            shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
            centroids = new_centroids
            if shift < KMEANS_TOL:
                break
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


def spectral_cluster(matrix, k: int, seed: int) -> np.ndarray:
    """Normalized-cut spectral clustering of a symmetric nonnegative matrix.

    Takes the eigenvectors of the k smallest eigenvalues of
    I - D^{-1/2} A D^{-1/2}, row-normalizes them to unit length (all-zero
    rows stay zero), and k-means clusters the rows.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("spectral clustering needs a square matrix")
    n = a.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must lie in [1, {n}], got {k}")
    if a.min() < -1e-12:
        raise InvalidInputError("matrix entries must be nonnegative")
    a = np.maximum(a, 0.0)
    deg = a.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, DEGREE_EPS))
    m = inv_sqrt[:, None] * a * inv_sqrt[None, :]
    lap = np.eye(n) - (m + m.T) / 2.0
    _, vecs = np.linalg.eigh(lap)
    embed = vecs[:, :k]
    norms = np.linalg.norm(embed, axis=1)
    nz = norms > 0
    embed[nz] = embed[nz] / norms[nz, None]
    return _kmeans(embed, k, np.random.default_rng(seed))


def derive_groups(labels, num_tasks: int, budget: int) -> TaskGrouping:
    """Merge target and source copies sharing a cluster into task groups.

    Group g holds every task whose target copy (row i) or source copy
    (row T+i) was labeled g, one group per label that occurs. Each copy puts
    its own task in its cluster, so no group is empty and every task lands
    in its home group.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != 2 * num_tasks:
        raise InvalidInputError(
            f"expected {2 * num_tasks} copy labels, got {labels.shape[0]}"
        )
    clusters = sorted(set(labels.tolist()))
    if len(clusters) > budget:
        raise InvalidInputError(
            f"clustering produced {len(clusters)} groups, over budget {budget}"
        )
    members = {c: set() for c in clusters}
    for i in range(num_tasks):
        members[labels[i]].add(i)
        members[labels[num_tasks + i]].add(i)
    groups = [sorted(members[c]) for c in clusters]
    return TaskGrouping(groups=groups, assignments=labels, budget=budget)


def train_groups(tasks, grouping: TaskGrouping, spec: LearnerSpec, seed: int, features):
    """Train one multitask model per group, seeded by base seed XOR index
    (learners.train_models, in group order); a TrainingError names the group
    ("…, group 1")."""
    indices = range(len(grouping.groups))
    return list(train_models(tasks, grouping.groups, spec, [seed ^ gi for gi in indices],
                             features, [f"group {gi}" for gi in indices]))


def evaluate_grouping(models, tasks, metric: str):
    """Best test score per task over deployed models, and their sum.

    The linear kind shares its weight vector, so every model scores every
    task; the mlp kind only scores tasks for which it has a head. A task
    covered by no model raises TaskAffError.
    """
    if not models:
        raise InvalidInputError("at least one model is required")
    per_task = []
    for i in range(tasks.num_tasks):
        candidates = [
            m for m in models
            if m.kind == "closed-form-linear" or i in m.subset
        ]
        if not candidates:
            raise TaskAffError(f"task {i} is covered by no deployed model")
        per_task.append(max(evaluate(m, tasks, i, "test", metric) for m in candidates))
    return per_task, float(sum(per_task))


def adjusted_rand_index(labels_a, labels_b) -> float:
    """ARI between two labelings of the same items."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise InvalidInputError("labelings must have equal length")
    n = a.shape[0]
    cats_a, cats_b = np.unique(a), np.unique(b)
    table = np.zeros((cats_a.size, cats_b.size), dtype=np.int64)
    for ia, ca in enumerate(cats_a):
        for ib, cb in enumerate(cats_b):
            table[ia, ib] = int(np.sum((a == ca) & (b == cb)))
    sum_comb = sum(comb(int(nij), 2) for nij in table.ravel())
    sum_a = sum(comb(int(x), 2) for x in table.sum(axis=1))
    sum_b = sum(comb(int(x), 2) for x in table.sum(axis=0))
    total = comb(n, 2)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_comb - expected) / (max_index - expected)


def save_grouping(grouping: TaskGrouping, path) -> None:
    payload = {
        "groups": [list(map(int, grp)) for grp in grouping.groups],
        "assignments": grouping.assignments.tolist(),
        "budget": grouping.budget,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_grouping(path, num_tasks: int) -> TaskGrouping:
    """Read a grouping.json of tasks 0..num_tasks-1; an empty group or one
    naming another id raises InvalidInputError before any group is used (a
    negative id would index from the end). Keys other than groups,
    assignments and budget (an older file's always-null objective and
    per_task_scores) are ignored."""
    with open(path, "r", encoding="utf-8") as fh, reading(path):
        payload = json.load(fh)
        groups = [list(map(int, int_ids(grp))) for grp in payload["groups"]]
        for k, ids in enumerate(map(sorted, groups)):
            if not ids:
                raise InvalidInputError(f"{path}: group {k} is empty")
            if not 0 <= ids[0] <= ids[-1] < num_tasks:
                raise InvalidInputError(f"task id out of range in subset {ids}")
        return TaskGrouping(groups=groups, assignments=int_ids(payload["assignments"]),
                            budget=payload["budget"])

"""Planted block model of tasks: generation and closed-form affinity theory.

Tasks are linear regression problems over diffused Gaussian features. Task
label vectors cluster into C groups whose projected distances through the
hat matrix of the least-squares problem are controlled exactly: at most
``within_sep`` inside a group, at least ``between_sep`` across groups. Under
that separation the affinity matrix of the closed-form learner is provably
block-structured, which :func:`verify_block_structure` checks numerically.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, asdict
from functools import cached_property
from math import comb

import numpy as np

from .affinity import AffinityMatrix, EvalLog, estimate_affinity, subset_array, uncovered_pairs
from .errors import InvalidInputError, ParseError, TaskAffError, int_ids, reading
from .graphs import _edge_sum, _inverse, build_graph
from .learners import closed_form_scores
from .tasks import TaskSet

MAX_GENERATION_RETRIES = 100
ENUMERATION_BOUND = 1_000_000
SEPARATION_SLACK = 1e-9
DRAW_ROWS = 256  # rows of the adjacency drawn at once


@dataclass(frozen=True)
class PlantedConfig:
    """Dimensions and separation targets of one synthetic instance."""

    num_tasks: int
    num_groups: int
    feature_dim: int
    num_nodes: int
    observed: int
    within_sep: float = 0.0
    between_sep: float = 1.0
    label_bound: float = 1.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_groups > self.num_tasks:
            raise InvalidInputError("num_groups must be <= num_tasks")
        if self.num_groups < 1:
            raise InvalidInputError("num_groups must be >= 1")
        if self.observed > self.num_nodes:
            raise InvalidInputError("observed must be <= num_nodes")
        if self.observed < 1:
            raise InvalidInputError("observed must be >= 1")
        if not 0.0 <= self.within_sep < self.between_sep < np.inf:
            raise InvalidInputError("need 0 <= within_sep < between_sep < inf, got "
                                    f"{self.within_sep} and {self.between_sep}")
        if not 0 < self.label_bound < np.inf:
            raise InvalidInputError(f"label_bound must lie in (0, inf), got {self.label_bound}")
        if not 0 <= self.noise_std < np.inf:
            raise InvalidInputError(f"noise_std must lie in [0, inf), got {self.noise_std}")


@dataclass
class PlantedInstance:
    """One generated instance as the designs of its two hat matrices, P X (N x d) and
    P[o,o] X[o] (m x d, o the observed rows); no N x N matrix is ever formed."""

    config: PlantedConfig
    design: np.ndarray = field(repr=False)
    observed_design: np.ndarray = field(repr=False)
    observed_rows: np.ndarray
    labels: np.ndarray = field(repr=False)
    group_of: np.ndarray

    @cached_property
    def separations(self) -> tuple:
        """(max within-group, min cross-group) projected pair distance."""
        # The hat matrix of the design is Q Q^T, Q its reduced QR basis, and
        # sigma (y_i - y_j) = sigma y_i - sigma y_j: project each task once, then
        # difference the rows (a Gram expansion would cancel catastrophically).
        basis = np.linalg.qr(self.design)[0]
        projected = (self.labels @ basis) @ basis.T
        max_within, min_between = 0.0, np.inf
        for i in range(self.labels.shape[0] - 1):
            dist = np.linalg.norm(projected[i + 1:] - projected[i], axis=1)
            same = self.group_of[i + 1:] == self.group_of[i]
            max_within = max(max_within, float(dist[same].max(initial=0.0)))
            min_between = min(min_between, float(dist[~same].min(initial=np.inf)))
        return max_within, min_between


def _random_graph(rng, n: int):
    """(rows, cols, inverse-sqrt degrees) of G(n, 2 log n / n): rows and cols
    are the adjacency's nonzero entries, both directions of each edge, in
    row-major order (build_graph's CSR entries).

    The upper triangle is drawn DRAW_ROWS rows at a time: the same numbers, in
    the same order, as one (n, n) draw, without its N x N float temporary.
    """
    p_edge = min(1.0, 2.0 * math.log(max(n, 2)) / n)
    upper = []
    for start in range(0, n, DRAW_ROWS):
        block = rng.random((min(DRAW_ROWS, n - start), n)) < p_edge
        i, j = np.nonzero(np.triu(block, k=start + 1))
        upper.append(np.column_stack([i + start, j]))
    g = build_graph(np.concatenate(upper), num_nodes=n)
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    return rows, g.indices, _inverse(np.sqrt(g.degrees()))


def generate(cfg: PlantedConfig) -> PlantedInstance:
    """Draw an instance satisfying the separation targets, with retries.

    Group centroids are placed on orthogonal directions inside the column
    space of the diffused design, scaled so cross-group projected distances
    clear ``between_sep`` even after within-group perturbations of norm at
    most within_sep/2. Optional noise lives in the orthogonal complement of
    the projection, so it never disturbs the separations; labels are clipped
    to the configured sup-norm bound and the separations re-verified.

    Memory: the graph is held as its edge list, and P X and P[o,o] X[o] are
    neighbour sums over it, so no array grows with N^2; the largest temporary
    is one DRAW_ROWS x N block of the adjacency draw. P = I + 0.5 D^-1/2 A
    D^-1/2 (full rank: eigenvalues in [0.5, 1.5]) is applied as x + 0.5 D^-1/2
    (A (D^-1/2 x)) by graphs._edge_sum, and P[o,o] with the full degrees.
    """
    if cfg.num_groups > cfg.feature_dim:
        raise InvalidInputError(
            "num_groups must be <= feature_dim (centroids are orthogonal "
            "directions of the design column space)"
        )
    rng = np.random.default_rng(cfg.seed)
    n, d, t, m = cfg.num_nodes, cfg.feature_dim, cfg.num_tasks, cfg.observed
    group_of = np.concatenate([
        np.full(len(chunk), gi, dtype=np.int64)
        for gi, chunk in enumerate(np.array_split(np.arange(t), cfg.num_groups))
    ])
    achieved = (np.inf, 0.0)
    for _ in range(MAX_GENERATION_RETRIES):
        x = rng.standard_normal((n, d))
        src, dst, inv_sqrt = _random_graph(rng, n)
        rows = np.sort(rng.choice(n, size=m, replace=False))
        at = np.full(n, -1)
        at[rows] = np.arange(m)  # position in the observed block, -1 outside it
        inside = (at[src] >= 0) & (at[dst] >= 0)
        s, xo = inv_sqrt[:, None], x[rows]
        design = x + 0.5 * s * _edge_sum(src, dst, None, s * x)
        observed_design = xo + 0.5 * s[rows] * _edge_sum(at[src[inside]], at[dst[inside]],
                                                         None, s[rows] * xo)

        basis, _ = np.linalg.qr(design)  # N x d orthonormal basis of col(design)
        dirs, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rho = (cfg.between_sep + cfg.within_sep) / math.sqrt(2.0)
        centroids = (basis @ dirs[:, :cfg.num_groups]) * rho

        labels = np.empty((t, n))
        for i in range(t):
            y = centroids[:, group_of[i]].copy()
            if cfg.within_sep > 0:
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                y += (basis @ v) * (0.5 * cfg.within_sep * rng.random())
            if cfg.noise_std > 0:
                g_noise = rng.standard_normal(n)
                y += cfg.noise_std * (g_noise - basis @ (basis.T @ g_noise))
            labels[i] = np.clip(y, -cfg.label_bound, cfg.label_bound)

        inst = PlantedInstance(config=cfg, design=design, observed_design=observed_design,
                               observed_rows=rows, labels=labels, group_of=group_of)
        max_within, min_between = inst.separations
        within_ok = max_within <= cfg.within_sep + SEPARATION_SLACK
        between_ok = cfg.num_groups == 1 or min_between >= cfg.between_sep - SEPARATION_SLACK
        if within_ok and between_ok:
            return inst
        achieved = (max_within, min_between)
    raise TaskAffError(f"separation targets unreachable in {MAX_GENERATION_RETRIES} tries "
                       f"(achieved within={achieved[0]:g}, between={achieved[1]:g})")


def theta_closed_form(inst: PlantedInstance, subsets) -> AffinityMatrix:
    """Affinity matrix of losses from the closed-form learner, no training.

    theta[i, j] averages (1/m) * || H @ (mean of subset labels) - y_i ||^2,
    H the hat matrix of the observed design, over the given subsets
    containing both tasks: the negated linear learner's score on the theory
    view (holdout 0), from the kernel learners.closed_form_scores, averaged
    by estimate_affinity. Every pair must be covered; theory mode does not impute.
    """
    t = inst.config.num_tasks
    rows = subset_array(list(subsets), t)
    tasks, features = to_task_set(inst)
    aff = estimate_affinity(EvalLog(rows, -closed_form_scores(features, tasks, rows)), t)
    if gap := uncovered_pairs(aff.imputed):
        raise TaskAffError(f"task pairs never co-sampled: {gap}")
    return aff


def population_theta(inst: PlantedInstance, alpha: int) -> AffinityMatrix:
    """Exact affinity average over every size-alpha subset."""
    t = inst.config.num_tasks
    if not 2 <= alpha <= t:
        raise InvalidInputError(f"alpha must lie in [2, {t}]")
    total = comb(t, alpha)
    if total > ENUMERATION_BOUND:
        raise InvalidInputError(
            f"C({t},{alpha}) = {total} exceeds the enumeration bound {ENUMERATION_BOUND}"
        )
    return theta_closed_form(inst, itertools.combinations(range(t), alpha))


def verify_block_structure(aff: AffinityMatrix, group_of):
    """(per_row_gaps, global_gap) between cross-group and within-group
    losses; ``aff`` holds losses, as theta_closed_form returns them.

    For each task i the row gap is (min over cross-group j' of theta[i, j'])
    minus (max over same-group j != i of theta[i, j]); the global gap is the
    minimum over rows, and the block structure holds iff it is positive.
    Rows whose group has no other member are NaN and skipped.
    """
    group_of = np.asarray(group_of)
    if np.unique(group_of).size < 2:
        raise InvalidInputError("block structure needs at least two groups")
    t = aff.num_tasks
    gaps = np.full(t, np.nan)
    for i in range(t):
        same = (group_of == group_of[i]) & (np.arange(t) != i)
        other = group_of != group_of[i]
        if not same.any():
            continue
        gaps[i] = float(aff.theta[i, other].min() - aff.theta[i, same].max())
    valid = gaps[~np.isnan(gaps)]
    if valid.size == 0:
        raise InvalidInputError("no task has a same-group partner")
    return gaps, float(valid.min())


def to_task_set(inst: PlantedInstance, holdout_frac: float = 0.0):
    """View the instance as tasks plus its design feature matrix.

    With holdout_frac = 0 every mask equals the observed rows (a TaskSet
    with aliased masks), matching the theory where training loss and
    evaluation coincide. A positive fraction carves validation and test
    shares out of the observed rows into a regular TaskSet (masks shared
    across tasks, so the closed-form learner stays applicable); a fraction
    that leaves no training row raises InvalidInputError.

    Returns (tasks, features) where features[observed_rows] is the
    observed design and other rows are zero.
    """
    if not 0.0 <= holdout_frac < 0.5:
        raise InvalidInputError("holdout_frac must lie in [0, 0.5)")
    rows = inst.observed_rows
    n = inst.config.num_nodes
    features = np.zeros((n, inst.config.feature_dim))
    features[rows] = inst.observed_design
    t = inst.config.num_tasks
    labels = tuple(inst.labels)
    train = val = test = rows
    if holdout_frac > 0.0:
        perm = np.random.default_rng([inst.config.seed, 0]).permutation(rows.size)
        n_hold = math.ceil(holdout_frac * rows.size)
        if rows.size <= 2 * n_hold:
            raise InvalidInputError(f"holdout_frac {holdout_frac} holds out all {rows.size} "
                                    "observed rows, leaving none to train on")
        val, test, train = (np.sort(rows[part]) for part in (
            perm[:n_hold], perm[n_hold:2 * n_hold], perm[2 * n_hold:]))
    tasks = TaskSet(num_nodes=n, labels=labels, train_mask=(train,) * t, val_mask=(val,) * t,
                    test_mask=(test,) * t, aliased_masks=holdout_frac == 0.0)
    return tasks, features


def save_instance(inst: PlantedInstance, out_dir) -> None:
    """Persist the instance as an uncompressed instance.npz (its design,
    observed_design and labels arrays) plus a meta.json."""
    os.makedirs(out_dir, exist_ok=True)
    np.savez(os.path.join(out_dir, "instance.npz"), design=inst.design,
             observed_design=inst.observed_design, labels=inst.labels)
    max_within, min_between = inst.separations
    meta = {
        "kind": "planted",
        "config": asdict(inst.config),
        "group_of": inst.group_of.tolist(),
        "observed_rows": inst.observed_rows.tolist(),
        "achieved_within": max_within,
        "achieved_between": min_between,
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)


def load_instance(in_dir) -> PlantedInstance:
    """Rebuild an instance from disk.

    A malformed meta.json or instance.npz, a missing array, one typed or
    shaped otherwise than meta.json says, or one holding a non-finite value
    raises ParseError; a directory in an earlier format (CSV files, or P as
    triplets in instance.npz) does not load.
    """
    meta_path = os.path.join(in_dir, "meta.json")
    with open(meta_path, "r", encoding="utf-8") as fh, reading(meta_path):
        meta = json.load(fh)
        cfg = PlantedConfig(**meta["config"])
        observed_rows, group_of = (int_ids(meta[k]) for k in ("observed_rows", "group_of"))
        n, d = cfg.num_nodes, cfg.feature_dim
        if observed_rows.size and not 0 <= observed_rows.min() <= observed_rows.max() < n:
            raise IndexError(f"an observed row lies outside 0..{n - 1}")  # -1 would wrap
        if group_of.shape != (cfg.num_tasks,):
            raise ValueError(f"group_of holds {group_of.size} groups for {cfg.num_tasks} tasks")
    path = os.path.join(in_dir, "instance.npz")
    if not os.path.exists(path) and any(os.path.exists(os.path.join(in_dir, f)) for f in (
            "pg_coo.csv", "labels.csv", "features.csv", "pg.csv")):
        raise InvalidInputError(f"{in_dir} holds the instance as CSV files, a format no "
                                "longer read; re-run generate to rewrite it as instance.npz")
    # np.load leaves a file it opened itself unclosed when the zip is damaged
    with reading(path), open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
        if "p_row" in npz.files:
            raise InvalidInputError(f"{path} holds P as triplets, a format no longer read; "
                                    "re-run generate to rewrite it")
        a = {name: npz[name] for name in ("design", "observed_design", "labels")}
    for name, shape in (("design", (n, d)), ("observed_design", (observed_rows.size, d)),
                        ("labels", (cfg.num_tasks, n))):
        if a[name].dtype != np.float64 or a[name].shape != shape:
            raise ParseError(f"{path}: {name} is {a[name].dtype} of shape {a[name].shape}, "
                             f"expected float64 of shape {shape}")
        if not np.isfinite(a[name]).all():
            raise ParseError(f"{path}: {name} holds a non-finite value")
    return PlantedInstance(config=cfg, observed_rows=observed_rows, group_of=group_of, **a)

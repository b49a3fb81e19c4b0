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

from .affinity import AffinityMatrix, _regroup, subset_array
from .errors import CoverageError, GenerationError, InvalidInputError, ParseError, int_ids, reading
from .learners import PINV_RCOND, closed_form_scores
from .tasks import TaskSet

MAX_GENERATION_RETRIES = 100
ENUMERATION_BOUND = 1_000_000
SEPARATION_SLACK = 1e-9


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
        if not 0.0 <= self.within_sep < self.between_sep:
            raise InvalidInputError("need 0 <= within_sep < between_sep")
        if self.label_bound <= 0:
            raise InvalidInputError("label_bound must be positive")
        if self.noise_std < 0:
            raise InvalidInputError("noise_std must be >= 0")


@dataclass
class PlantedInstance:
    """One generated instance; its projection matrices are formed on first use."""

    config: PlantedConfig
    features: np.ndarray = field(repr=False)
    diffusion: np.ndarray = field(repr=False)
    observed_rows: np.ndarray
    labels: np.ndarray = field(repr=False)
    group_of: np.ndarray

    @cached_property
    def sigma(self) -> np.ndarray:
        """N x N hat matrix of the full diffused design."""
        return _projection(self.diffusion @ self.features)

    @cached_property
    def separations(self) -> tuple:
        """(max within-group, min cross-group) projected pair distance."""
        # sigma (y_i - y_j) = sigma y_i - sigma y_j: project each task once, then
        # difference the rows (a Gram expansion would cancel catastrophically).
        projected = self.labels @ self.sigma.T
        max_within, min_between = 0.0, np.inf
        for i in range(self.labels.shape[0] - 1):
            dist = np.linalg.norm(projected[i + 1:] - projected[i], axis=1)
            same = self.group_of[i + 1:] == self.group_of[i]
            max_within = max(max_within, float(dist[same].max(initial=0.0)))
            min_between = min(min_between, float(dist[~same].min(initial=np.inf)))
        return max_within, min_between

    @cached_property
    def sigma_tilde(self) -> np.ndarray:
        """m x m hat matrix of the design restricted to the observed rows."""
        rows = self.observed_rows
        return _projection(self.diffusion[np.ix_(rows, rows)] @ self.features[rows])


def _projection(design: np.ndarray) -> np.ndarray:
    return design @ np.linalg.pinv(design.T @ design, rcond=PINV_RCOND) @ design.T


def _random_diffusion(rng, n: int) -> np.ndarray:
    # P = I + 0.5 * sym-normalized adjacency; eigenvalues in [0.5, 1.5],
    # so P is always full rank.
    p_edge = min(1.0, 2.0 * math.log(max(n, 2)) / n)
    upper = np.triu(rng.random((n, n)) < p_edge, k=1)
    adj = (upper | upper.T).astype(float)
    deg = adj.sum(axis=1)
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    a_hat = inv_sqrt[:, None] * adj * inv_sqrt[None, :]
    return np.eye(n) + 0.5 * a_hat


def generate(cfg: PlantedConfig) -> PlantedInstance:
    """Draw an instance satisfying the separation targets, with retries.

    Group centroids are placed on orthogonal directions inside the column
    space of the diffused design, scaled so cross-group projected distances
    clear ``between_sep`` even after within-group perturbations of norm at
    most within_sep/2. Optional noise lives in the orthogonal complement of
    the projection, so it never disturbs the separations; labels are clipped
    to the configured sup-norm bound and the separations re-verified.
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
        p = _random_diffusion(rng, n)
        design = p @ x
        sigma = _projection(design)
        rows = np.sort(rng.choice(n, size=m, replace=False))

        basis, _ = np.linalg.qr(design)  # N x d orthonormal basis of col(sigma)
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

        inst = PlantedInstance(config=cfg, features=x, diffusion=p,
                               observed_rows=rows, labels=labels, group_of=group_of)
        inst.sigma = sigma
        max_within, min_between = inst.separations
        within_ok = max_within <= cfg.within_sep + SEPARATION_SLACK
        between_ok = cfg.num_groups == 1 or min_between >= cfg.between_sep - SEPARATION_SLACK
        if within_ok and between_ok:
            return inst
        achieved = (max_within, min_between)
    raise GenerationError(
        f"separation targets unreachable in {MAX_GENERATION_RETRIES} tries",
        achieved_within=achieved[0], achieved_between=achieved[1],
    )


def theta_closed_form(inst: PlantedInstance, subsets) -> AffinityMatrix:
    """Loss-oriented affinity matrix from the closed-form learner, no training.

    theta[i, j] averages (1/m) * || sigma_tilde @ (mean of subset labels)
    - y_i ||^2 over the given subsets containing both tasks: the negated
    linear learner's score on the theory view (holdout 0), from the shared
    kernel learners.closed_form_scores. Every pair must be covered; theory
    mode does not impute.
    """
    t = inst.config.num_tasks
    rows = subset_array(list(subsets), t)
    tasks, features = to_task_set(inst)
    losses = -closed_form_scores(features, tasks, rows, metric="negative-mse")
    (theta, counts), = _regroup(rows, losses, t, [len(rows)])
    missing = [(int(i), int(j)) for i, j in np.argwhere(counts == 0)]
    if missing:
        raise CoverageError(
            f"{len(missing)} task pair(s) never co-sampled", uncovered=missing
        )
    return AffinityMatrix(theta, counts, orientation="loss")


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


@dataclass(frozen=True)
class BlockStructureReport:
    """Per-row and global gaps between cross-group and within-group scores."""

    per_row_gaps: np.ndarray
    global_gap: float
    passed: bool


def verify_block_structure(aff: AffinityMatrix, group_of) -> BlockStructureReport:
    """Check that cross-group losses exceed within-group losses row by row.

    For each task i the row gap is (min over cross-group j' of theta[i, j'])
    minus (max over same-group j != i of theta[i, j]); the global gap is the
    minimum over rows and the check passes iff it is positive. Rows whose
    group has no other member are reported as NaN and skipped.
    """
    if aff.orientation != "loss":
        raise InvalidInputError("block structure is defined on loss-oriented scores")
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
    global_gap = float(valid.min())
    return BlockStructureReport(per_row_gaps=gaps, global_gap=global_gap,
                                passed=global_gap > 0)


def to_task_set(inst: PlantedInstance, holdout_frac: float = 0.0,
                split_seed: int = 0):
    """View the instance as tasks plus its design feature matrix.

    With holdout_frac = 0 every mask equals the observed rows (a TaskSet
    with aliased masks), matching the theory where training loss and
    evaluation coincide. A positive fraction carves validation and test
    shares out of the observed rows into a regular TaskSet (masks shared
    across tasks, so the closed-form learner stays applicable).

    Returns (tasks, features) where features[observed_rows] is the
    restricted diffused design and other rows are zero.
    """
    if not 0.0 <= holdout_frac < 0.5:
        raise InvalidInputError("holdout_frac must lie in [0, 0.5)")
    rows = inst.observed_rows
    n = inst.config.num_nodes
    features = np.zeros((n, inst.config.feature_dim))
    features[rows] = inst.diffusion[np.ix_(rows, rows)] @ inst.features[rows]
    t = inst.config.num_tasks
    labels = tuple(inst.labels)
    train = val = test = rows
    if holdout_frac > 0.0:
        perm = np.random.default_rng([inst.config.seed, split_seed]).permutation(rows.size)
        n_hold = math.ceil(holdout_frac * rows.size)
        val, test, train = (np.sort(rows[part]) for part in (
            perm[:n_hold], perm[n_hold:2 * n_hold], perm[2 * n_hold:]))
    tasks = TaskSet(num_nodes=n, labels=labels, train_mask=(train,) * t, val_mask=(val,) * t,
                    test_mask=(test,) * t, aliased_masks=holdout_frac == 0.0)
    return tasks, features


def save_instance(inst: PlantedInstance, out_dir) -> None:
    """Persist the instance as an uncompressed instance.npz plus a meta.json.

    The diffusion matrix P is sparse (a random graph plus the identity), so
    instance.npz holds its non-zeros only, as the p_row, p_col and p_val
    arrays in np.nonzero order; features and labels are dense.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows, cols = np.nonzero(inst.diffusion)
    np.savez(os.path.join(out_dir, "instance.npz"), features=inst.features,
             labels=inst.labels, p_row=rows.astype(np.int64), p_col=cols.astype(np.int64),
             p_val=inst.diffusion[rows, cols])
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
    """Rebuild an instance from disk; P is scattered back into a dense array.

    A malformed meta.json or instance.npz, a missing array, one typed or
    shaped otherwise than meta.json says, or a P index outside 0..N-1 raises
    ParseError; a directory of CSV files from before instance.npz does not load.
    """
    meta_path = os.path.join(in_dir, "meta.json")
    with open(meta_path, "r", encoding="utf-8") as fh, reading(meta_path):
        meta = json.load(fh)
        cfg = PlantedConfig(**meta["config"])
        observed_rows, group_of = (int_ids(meta[k]) for k in ("observed_rows", "group_of"))
    n = cfg.num_nodes
    path = os.path.join(in_dir, "instance.npz")
    if not os.path.exists(path) and any(os.path.exists(os.path.join(in_dir, f)) for f in (
            "pg_coo.csv", "labels.csv", "features.csv", "pg.csv")):
        raise InvalidInputError(f"{in_dir} holds the instance as CSV files, a format no "
                                "longer read; re-run generate to rewrite it as instance.npz")
    # np.load leaves a file it opened itself unclosed when the zip is damaged
    with reading(path), open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
        a = {name: npz[name] for name in ("features", "labels", "p_row", "p_col", "p_val")}
    k = (a["p_val"].size,)
    for name, dtype, shape in (("features", np.float64, (n, cfg.feature_dim)),
                               ("labels", np.float64, (cfg.num_tasks, n)), ("p_row", np.int64, k),
                               ("p_col", np.int64, k), ("p_val", np.float64, k)):
        if a[name].dtype != dtype or a[name].shape != shape:
            raise ParseError(f"{path}: {name} is {a[name].dtype} of shape {a[name].shape}, "
                             f"expected {np.dtype(dtype)} of shape {shape}")
    index = np.concatenate([a["p_row"], a["p_col"]])
    if index.min(initial=0) < 0 or index.max(initial=0) >= n:
        raise ParseError(f"{path}: P indices span {index.min()}..{index.max()}, not 0..{n - 1}")
    p = np.zeros((n, n))
    p[a["p_row"], a["p_col"]] = a["p_val"]
    return PlantedInstance(config=cfg, features=a["features"], diffusion=p, labels=a["labels"],
                           observed_rows=observed_rows, group_of=group_of)

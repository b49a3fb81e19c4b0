"""Sparse undirected graphs, diffusion operators, and personalized PageRank.

The graph is immutable after construction: its adjacency is a CSR structure
held as two numpy arrays, node ids are remapped to 0..N-1, and an id map
back to the original labels is kept so external annotations can be joined
again later. The row- and symmetric-normalized operators are applied by one
numpy kernel; scipy.sparse is imported only to build the PPR walk, so a
command that runs no PPR never pays for its import.
"""

from __future__ import annotations

import io
import json
import logging
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, ParseError, TaskAffError

log = logging.getLogger(__name__)

PPR_MAX_ITER = 1000
PPR_DEFAULT_TOL = 1e-10
# Restart probability of the ppr diffusion kind, and ppr-sim's default.
PPR_TELEPORT = 0.15
# Relative L1 error bound at which a PPR diffusion hop stops. It sits a
# few decades above the iteration's rounding floor, so a hop converges and
# still matches a dense solve to rounding level.
PPR_DIFFUSION_RTOL = 1e-13

OPERATOR_KINDS = ("row-normalized", "symmetric-normalized", "ppr")


@dataclass(frozen=True)
class DiffusionOperator:
    """Configuration of a graph diffusion operator: its kind, one of
    ``row-normalized``, ``symmetric-normalized`` or ``ppr`` (restart PPR_TELEPORT)."""

    kind: str = "row-normalized"

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise InvalidInputError(f"unknown operator kind {self.kind!r}")


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with dense node features.

    ``indptr`` and ``indices`` are the CSR structure of the symmetric 0/1
    adjacency without self-loops: the neighbours of node i are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending. Node ids run
    0..num_nodes-1, and ``orig_ids[i]`` is the external label of node i
    (identity when the graph was built from already-contiguous ids).
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    node_features: np.ndarray
    orig_ids: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.node_features.ndim != 2 or self.node_features.shape[0] != self.num_nodes:
            raise InvalidInputError(f"features must be a {self.num_nodes}-row matrix, got "
                                    f"shape {self.node_features.shape}")
        if self.orig_ids is None:
            object.__setattr__(self, "orig_ids", np.arange(self.num_nodes))

    def id_map(self) -> dict:
        """Map from original external id to internal contiguous id."""
        return {int(orig): i for i, orig in enumerate(self.orig_ids)}

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr).astype(float)

    def with_features(self, features: np.ndarray) -> "Graph":
        """Return a copy of this graph carrying the given feature matrix."""
        return replace(self, node_features=np.asarray(features, dtype=float))


def build_graph(edges, num_nodes=None, orig_ids=None) -> Graph:
    """Construct a featureless Graph (see Graph.with_features) from (u, v)
    pairs with internal ids: an iterable of pairs or an (E, 2) integer array.

    Duplicate edges and self-loops are dropped. When ``num_nodes`` is None it
    is inferred as max id + 1.
    """
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=np.int64).reshape(-1, 2)
    if num_nodes is None:
        num_nodes = int(pairs.max()) + 1 if pairs.size else 0
    if num_nodes <= 0:
        raise InvalidInputError("graph has no nodes")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
        raise InvalidInputError(f"edge node id outside 0..{num_nodes - 1}")
    # Sorted unique keys row * N + col over both directions of every edge are
    # the CSR entries in row-major order.
    u, v = pairs.T
    keys = np.sort(np.concatenate([u * num_nodes + v, v * num_nodes + u]))
    rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], num_nodes)
    # The index width scipy's CSR constructor would pick.
    index = np.int32 if max(cols.size, num_nodes) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=num_nodes))])
    return Graph(num_nodes, indptr.astype(index), cols.astype(index),
                 np.zeros((num_nodes, 0)), orig_ids)


def _has_inline_comment(text) -> bool:
    """Whether a line holds a '#' after a field: np.loadtxt would cut such a
    comment off, but an edge list takes whole-line comments only."""
    at = text.find("#")
    while at >= 0:
        if text[text.rfind("\n", 0, at) + 1:at].strip():
            return True
        end = text.find("\n", at)  # the rest of a comment line is comment
        at = -1 if end < 0 else text.find("#", end)
    return False


def _scan_id_pairs(text) -> np.ndarray:
    """The line-by-line parse: raises the ParseError of the first bad line.

    It runs only when the array parse refuses the text or cannot be trusted
    with it; it also takes the ids that int() reads and numpy does not
    (``1_000``, non-ASCII digits).
    """
    pairs = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node id in {line!r}") from None
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _read_id_pairs(path) -> np.ndarray:
    """The (E, 2) array of external id pairs of an edge list, in file order."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()  # universal newlines: the lines a line loop would see
    if not _has_inline_comment(text):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "input contained no data"
                pairs = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#",
                                   ndmin=2)
            if pairs.shape[1] == 2 or pairs.size == 0:
                return pairs.reshape(-1, 2)
        except ValueError:
            pass
    return _scan_id_pairs(text)


def load_edge_list(path, idmap_path=None) -> Graph:
    """Load a SNAP-style edge list: one "u v" pair per line, whole-line '#'
    comments.

    Node ids are remapped to a contiguous 0..N-1 range in order of first
    appearance. When ``idmap_path`` is given, the original-to-internal map is
    persisted there as JSON so external labels can be joined back later.
    """
    pairs = _read_id_pairs(path)
    if not pairs.size:
        raise InvalidInputError(f"edge list {path} holds no edges")
    ids, inverse = np.unique(pairs.ravel(), return_inverse=True)
    first = np.full(ids.size, inverse.size)
    np.minimum.at(first, inverse, np.arange(inverse.size))
    order = np.argsort(first)  # distinct ids by first appearance
    internal = np.empty_like(order)
    internal[order] = np.arange(order.size)
    edges = internal[inverse].reshape(-1, 2)
    n_self = int(np.count_nonzero(edges[:, 0] == edges[:, 1]))
    if n_self:
        log.warning("dropped %d self-loop(s) while loading %s", n_self, path)
    orig_ids = ids[order]
    g = build_graph(edges, num_nodes=orig_ids.size, orig_ids=orig_ids)
    if idmap_path is not None:
        with open(idmap_path, "w", encoding="utf-8") as fh:
            json.dump({str(o): i for i, o in enumerate(orig_ids.tolist())}, fh,
                      sort_keys=True, indent=0)
    return g


def _load_matrix(path, columns=None, rows=None, dtype=float):
    """A numeric CSV matrix, the one reader of dataset and affinity CSVs; a
    ragged or non-numeric row, or a shape other than the given rows x columns
    (either left free when None), raises ParseError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:  # names a missing file; loadtxt does not
            data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=dtype)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    want = tuple(d if w is None else w for d, w in zip(data.shape, (rows, columns)))
    if data.shape != want:
        raise ParseError(f"{path} holds a {data.shape[0]} x {data.shape[1]} matrix, "
                         f"expected {want[0]} x {want[1]}")
    return data


def load_features_csv(path, num_nodes) -> np.ndarray:
    """Read an N x d headerless CSV whose row order is the internal node id;
    a non-finite cell (nan, inf) raises ParseError naming the file."""
    features = _load_matrix(path, rows=num_nodes)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: the row of node {bad[0]} holds a non-finite value")
    return features


def _inverse(values: np.ndarray) -> np.ndarray:
    """1 / values, with 0 where a value is 0 (an isolated node)."""
    return np.divide(1.0, values, out=np.zeros_like(values), where=values > 0)


def _edge_sum(rows, cols, weights, x) -> np.ndarray:
    """Row i sums weights[e] * x[cols[e]] over the entries e with rows[e] == i
    (weight 1 when ``weights`` is None) in entry order, one np.bincount per
    column of x: the diffusion kernel of diffuse_features and planted.generate."""
    out = np.empty_like(x)
    for k in range(x.shape[1]):
        xk = x[cols, k]
        out[:, k] = np.bincount(rows, weights=xk if weights is None else weights * xk,
                                minlength=len(x))
    return out


def _operator_entries(g: Graph, kind: str):
    """(rows, cols, weights) of the row- or symmetric-normalized operator,
    each row in the order scipy's CSR products ``diags(1/deg) @ A`` (+ I on
    isolated nodes) and ``D^-1/2 A D^-1/2`` store it: descending column for
    the walk without self-loop rows, ascending otherwise. Summed in that
    order, they give those products bit for bit."""
    deg = g.degrees()
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    cols = g.indices
    if kind == "symmetric-normalized":
        s = _inverse(np.sqrt(deg))
        return rows, cols, s[rows] * s[cols]
    inv = _inverse(deg)
    isolated = np.flatnonzero(deg == 0)
    if not isolated.size:
        return rows[::-1], cols[::-1], inv[rows[::-1]]
    # Isolated nodes become self-loop rows so the operator stays stochastic.
    return (np.concatenate([rows, isolated]), np.concatenate([cols, isolated]),
            np.concatenate([inv[rows], np.ones(isolated.size)]))


def _transposed_walk(g: Graph):
    """P^T of the row-normalized walk as a scipy CSR matrix, the one place
    scipy is imported: PPR needs its sparse product. Row j holds
    P[i, j] = 1/deg(i) at each neighbour i, ascending, and an isolated node
    a 1.0 self-loop; column-stochastic, so it keeps L1 mass."""
    from scipy import sparse
    deg = g.degrees()
    isolated = np.flatnonzero(deg == 0)
    at = g.indptr[isolated]
    indptr = g.indptr + np.concatenate([[0], np.cumsum(deg == 0)])
    return sparse.csr_matrix((np.insert(_inverse(deg)[g.indices], at, 1.0),
                              np.insert(g.indices, at, isolated), indptr),
                             shape=(g.num_nodes, g.num_nodes))


def _ppr_propagate(pt, s: np.ndarray, teleport: float,
                   tol: np.ndarray) -> np.ndarray:
    """Iterate R <- teleport*S + (1-teleport)*P^T R from R = S, column by column.

    ``pt`` is the transposed row-normalized operator and ``s`` an N x k
    block. Column j is frozen after the first step whose L1 change
    ||R_{k+1} - R_k||_1 is below ``tol[j]``. A column with ``tol[j] <= 0`` is
    returned as given; callers pass 0 only for all-zero columns, whose fixed
    point is zero. Raises TaskAffError with the largest remaining L1
    change if a column is still moving after PPR_MAX_ITER steps.
    """
    r = s.copy()
    active = np.flatnonzero(tol > 0)
    steps = 0
    while active.size:
        if steps == PPR_MAX_ITER:
            raise TaskAffError("PPR propagation did not converge "
                               f"(residual: {float(residual.max()):g})")
        cur = r[:, active]
        nxt = teleport * s[:, active] + (1.0 - teleport) * (pt @ cur)
        residual = np.abs(nxt - cur).sum(axis=0)
        r[:, active] = nxt
        moving = residual >= tol[active]
        active, residual = active[moving], residual[moving]
        steps += 1
    return r


def _ppr_hop(pt, x: np.ndarray) -> np.ndarray:
    """One PPR diffusion hop: c * (I - (1-c) P^T)^{-1} x, c = PPR_TELEPORT.

    Column i of that operator is the PPR vector of a walk restarted at node
    i, so output row j sums the features of every node i weighted by the
    PPR mass that i's walk leaves at j (column sums are 1, row sums are
    not). Since (1-c) P^T contracts the L1 norm by 1-c, a column stops once
    its a-posteriori error bound (1-c)/c * ||R_{k+1} - R_k||_1 falls below
    PPR_DIFFUSION_RTOL * ||x_col||_1.
    """
    c = PPR_TELEPORT
    return _ppr_propagate(pt, x, c, np.abs(x).sum(axis=0) * (PPR_DIFFUSION_RTOL * c / (1.0 - c)))


def diffuse_features(g: Graph, op: DiffusionOperator, hops: int) -> np.ndarray:
    """Stack [X, PX, P^2 X, ..., P^hops X] column blocks (SIGN-style).

    Hop 0 equals the raw feature matrix exactly; block order follows hop
    index, so the hops=h output is a column-prefix of the hops=h+1 output.
    The row- and symmetric-normalized kinds are applied by ``_edge_sum``,
    which adds each row's terms in the order of ``_operator_entries``, in
    O(nnz) temporaries. The ``ppr`` kind is applied by sparse fixed-point
    iteration (see ``_ppr_hop``) in O(nnz + N*d) memory and raises
    TaskAffError if a hop does not converge within PPR_MAX_ITER steps.
    """
    if hops < 0:
        raise InvalidInputError("hops must be >= 0")
    blocks = [g.node_features]
    cur = g.node_features
    if op.kind == "ppr":
        pt = _transposed_walk(g)
        for _ in range(hops):
            cur = _ppr_hop(pt, cur)
            blocks.append(cur)
    else:
        rows, cols, weights = _operator_entries(g, op.kind)
        for _ in range(hops):
            cur = _edge_sum(rows, cols, weights, cur)
            blocks.append(cur)
    return np.hstack(blocks)


def personalized_pagerank(walk, seeds, teleport: float, tol: float) -> np.ndarray:
    """Power-iterate r = teleport*s + (1-teleport)*P^T r to a fixed point.

    ``walk`` is P^T, the _transposed_walk of the graph, which the caller
    builds once for all its seed sets; ``s`` is uniform over the seed set.
    The iteration stops at the first step whose L1 change is below ``tol``.
    Raises TaskAffError with the last L1 residual if the iteration cap is hit.
    """
    num_nodes = walk.shape[0]
    seeds = np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    if seeds.size == 0:
        raise InvalidInputError("seed set must be nonempty")
    if seeds.min() < 0 or seeds.max() >= num_nodes:
        raise InvalidInputError("seed id out of range")
    if not 0.0 < teleport <= 1.0:
        raise InvalidInputError("teleport must lie in (0, 1]")
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    s = np.zeros(num_nodes)
    s[seeds] = 1.0 / seeds.size
    return _ppr_propagate(walk, s[:, None], teleport, np.array([tol]))[:, 0]


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(u @ v / (nu * nv))


def ppr_group_similarity(g: Graph, tasks, groups, teleport: float = PPR_TELEPORT):
    """Mean pairwise PPR cosine similarity within vs. between task groups.

    Each task's PPR vector is seeded at its positively-labeled training
    nodes. A pair of tasks counts as "within" when the two tasks share at
    least one group; every unordered pair is counted once. A side with no
    pairs is returned as None. ``groups`` is a list of groups of task ids
    in 0..T-1, as grouping.load_grouping checks those of a file.
    """
    num_tasks = tasks.num_tasks
    walk = _transposed_walk(g)
    vectors = []
    for i in range(num_tasks):
        mask = tasks.train_mask[i]
        seeds = mask[tasks.labels[i][mask] == 1]
        if seeds.size == 0:
            raise InvalidInputError(f"task {i} has no positive training nodes")
        vectors.append(personalized_pagerank(walk, seeds, teleport, PPR_DEFAULT_TOL))
    member_groups = [set() for _ in range(num_tasks)]
    for gi, members in enumerate(groups):
        for t in members:
            member_groups[t].add(gi)
    within, between = [], []
    for i in range(num_tasks):
        for j in range(i + 1, num_tasks):
            sim = _cosine(vectors[i], vectors[j])
            if member_groups[i] & member_groups[j]:
                within.append(sim)
            else:
                between.append(sim)
    if not within and not between:
        raise TaskAffError("no task pairs to compare")
    within_mean = float(np.mean(within)) if within else None
    between_mean = float(np.mean(between)) if between else None
    return within_mean, between_mean

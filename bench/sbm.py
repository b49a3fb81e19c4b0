"""Deterministic stochastic-block-model community data for the benchmark.

Writes the three files the ``taskaff split`` command ingests:

- a SNAP-style edge list with a ``#`` comment line, non-contiguous external
  node ids, shuffled lines and a few self-loops (which the loader drops);
- a cmty file, one community per line, members as external ids;
- a headerless node-feature CSV whose row order is the loader's internal id
  order (order of first appearance in the edge list).

Every node is one block's member, and each block is one community. Every
array derives from ``seed``, so the same seed gives byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

SELF_LOOPS = 5
ID_SPREAD = 7  # external ids are drawn from range(ID_SPREAD * num_nodes)
WITHIN_SHARE = 0.7  # share of the non-anchor edges that stay inside a block
FEATURE_NOISE = 1.5  # standard deviation of the noise around block centroids


@dataclass(frozen=True)
class SbmConfig:
    """Size of one generated graph. Sizes are fixed, so timings do not
    drift with the seed; only the wiring and the features change. The
    defaulted fields are set only by tests, to shrink the graph."""

    num_nodes: int
    num_blocks: int
    num_edges: int
    min_block: int = 100
    max_block: int = 400
    feature_dim: int = 16


def block_sizes(cfg: SbmConfig, rng) -> np.ndarray:
    """Block sizes in [min_block, max_block] summing to num_nodes exactly."""
    k = cfg.num_blocks
    if not k * cfg.min_block <= cfg.num_nodes <= k * cfg.max_block:
        raise ValueError("num_nodes cannot be split into blocks of the given bounds")
    sizes = np.full(k, cfg.min_block, dtype=np.int64)
    spare = cfg.num_nodes - sizes.sum()
    weights = rng.dirichlet(np.ones(k))
    while spare > 0:
        room = cfg.max_block - sizes
        add = np.minimum(rng.multinomial(spare, weights), room)
        sizes += add
        spare -= int(add.sum())
        weights = np.where(sizes < cfg.max_block, weights, 0.0)
        weights /= weights.sum()
    return sizes


def _edges(cfg: SbmConfig, block_of: np.ndarray, starts, sizes, rng) -> np.ndarray:
    """Undirected internal-id edges: one anchor edge per node, within-block
    pairs in proportion to each block's pair count, and uniform pairs."""
    n = cfg.num_nodes
    # Anchor: every node gets an edge to a block-mate, so every node appears
    # in the edge list and the feature CSV covers the whole graph.
    nodes = np.arange(n)
    offset = rng.integers(1, sizes[block_of])
    mate = starts[block_of] + (nodes - starts[block_of] + offset) % sizes[block_of]
    anchor = np.stack([nodes, mate], axis=1)
    rest = cfg.num_edges - n
    n_within = int(round(WITHIN_SHARE * rest))
    pairs = sizes * (sizes - 1) / 2.0
    per_block = rng.multinomial(n_within, pairs / pairs.sum())
    blk = np.repeat(np.arange(cfg.num_blocks), per_block)
    u = starts[blk] + rng.integers(0, sizes[blk])
    v = starts[blk] + (u - starts[blk] + rng.integers(1, sizes[blk])) % sizes[blk]
    within = np.stack([u, v], axis=1)
    a = rng.integers(0, n, size=rest - n_within)
    b = (a + rng.integers(1, n, size=a.size)) % n
    between = np.stack([a, b], axis=1)
    return np.concatenate([anchor, within, between])


def generate(cfg: SbmConfig, seed: int, out_dir: str) -> dict:
    """Write edges.txt, communities.txt and features.csv into out_dir.

    Returns the paths plus the block of every internal node id, in the
    order the edge-list loader will number them.
    """
    rng = np.random.default_rng(seed)
    sizes = block_sizes(cfg, rng)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    block_of = np.repeat(np.arange(cfg.num_blocks), sizes)
    edges = _edges(cfg, block_of, starts, sizes, rng)
    loops = rng.choice(cfg.num_nodes, size=SELF_LOOPS, replace=False)
    edges = np.concatenate([edges, np.stack([loops, loops], axis=1)])
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]

    external = rng.choice(ID_SPREAD * cfg.num_nodes, size=cfg.num_nodes,
                          replace=False) + 1

    # The loader numbers nodes by first appearance in the edge list.
    flat = edges.ravel()
    _, first = np.unique(flat, return_index=True)
    load_order = flat[np.sort(first)]

    centroids = rng.standard_normal((cfg.num_blocks, cfg.feature_dim))
    noise = rng.standard_normal((cfg.num_nodes, cfg.feature_dim))
    features = centroids[block_of] + FEATURE_NOISE * noise

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "edges": os.path.join(out_dir, "edges.txt"),
        "communities": os.path.join(out_dir, "communities.txt"),
        "features": os.path.join(out_dir, "features.csv"),
    }
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        fh.write(f"# SBM nodes={cfg.num_nodes} blocks={cfg.num_blocks} seed={seed}\n")
        ext = external[edges]
        fh.write("".join(f"{u} {v}\n" for u, v in ext.tolist()))
    with open(paths["communities"], "w", encoding="utf-8") as fh:
        for b in range(cfg.num_blocks):
            members = external[starts[b]:starts[b] + sizes[b]]
            fh.write(" ".join(map(str, members.tolist())) + "\n")
    np.savetxt(paths["features"], features[load_order], delimiter=",", fmt="%.17g")
    return dict(paths, block_of=block_of[load_order])

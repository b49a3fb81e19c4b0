"""Node-labeling tasks: community ingestion and train/val/test splits."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError, int_ids, reading
from .graphs import Graph

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SplitPolicy:
    """Sampling fractions for per-task splits.

    Train positives/negatives are sized relative to the community, the
    validation pool relative to the remaining nodes.
    """

    train_pos_frac: float = 0.1
    train_neg_frac: float = 0.1
    val_frac: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name in ("train_pos_frac", "train_neg_frac", "val_frac"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise InvalidInputError(f"{name} must lie in (0, 1), got {v}")
        if self.train_pos_frac + self.val_frac >= 1.0:
            raise InvalidInputError("train_pos_frac + val_frac must be < 1")


@dataclass(frozen=True)
class TaskSet:
    """T node-labeling tasks over one graph.

    labels[i] is a length-N vector (binary 0/1 for communities, real for
    synthetic regression tasks); masks are sorted arrays of node ids,
    pairwise disjoint within each task unless ``aliased_masks`` (the planted
    theory view, which evaluates on the rows it trains on).
    """

    num_nodes: int
    labels: tuple
    train_mask: tuple
    val_mask: tuple
    test_mask: tuple
    aliased_masks: bool = False

    def __post_init__(self):
        n_t = len(self.labels)
        if not (len(self.train_mask) == len(self.val_mask) == len(self.test_mask) == n_t):
            raise InvalidInputError("per-task arrays have inconsistent lengths")
        for i in range(n_t):
            if self.labels[i].shape[0] != self.num_nodes:
                raise InvalidInputError(f"task {i}: label vector length mismatch")
            masks = (self.train_mask[i], self.val_mask[i], self.test_mask[i])
            for mask in masks:
                if mask.size and (mask.min() < 0 or mask.max() >= self.num_nodes):
                    raise InvalidInputError(f"task {i}: mask node id out of range")
            if not self.aliased_masks:
                member = np.zeros((3, self.num_nodes), dtype=bool)
                for row, mask in zip(member, masks):
                    row[mask.astype(np.intp, copy=False)] = True
                if (member.sum(axis=0) > 1).any():
                    raise InvalidInputError(f"task {i}: masks are not pairwise disjoint")

    @property
    def num_tasks(self) -> int:
        return len(self.labels)


def load_communities(path, g: Graph, top_k: int):
    """Read a SNAP cmty file and keep the top_k largest communities.

    One community per line, whitespace-separated member ids. Ids are
    remapped through the graph's id map; members absent from the graph are
    dropped (a warning reports how many). Raises ParseError on a non-integer
    id and InvalidInputError when fewer than top_k communities remain.
    """
    id_map = g.id_map()
    communities = []
    dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                found = [id_map.get(int(tok)) for tok in line.split()]
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer member id in {line!r}") from None
            members = [m for m in found if m is not None]
            dropped += len(found) - len(members)
            if members:
                communities.append(np.array(sorted(set(members)), dtype=np.int64))
    if dropped:
        log.warning("dropped %d community member(s) absent from the graph", dropped)
    if len(communities) < top_k:
        raise InvalidInputError(f"requested top {top_k} communities "
                                f"(available: {len(communities)})")
    communities.sort(key=lambda c: -c.size)
    return communities[:top_k]


def _outside(n: int, *masks) -> np.ndarray:
    """Ascending ids of the nodes in none of the masks (rng.choice draws depend on the order)."""
    taken = np.zeros(n, dtype=bool)
    for mask in masks:
        taken[mask] = True
    return np.flatnonzero(~taken)


def make_splits(communities, g: Graph, policy: SplitPolicy) -> TaskSet:
    """Build one binary task per community with disjoint train/val/test masks.

    Per task: ceil(train_pos_frac*|C|) training positives from the community,
    ceil(train_neg_frac*|C|) training negatives from outside it, then a
    val_frac share of the remaining nodes as validation and the rest as test.
    Deterministic under (policy.seed, task index). Communities smaller than
    two nodes are rejected with a warning.
    """
    n = g.num_nodes
    labels, trains, vals, tests = [], [], [], []
    for idx, comm in enumerate(communities):
        if comm.size < 2:
            log.warning("task %d rejected: community has %d node(s)", idx, comm.size)
            continue
        outside = _outside(n, comm)
        if outside.size == 0:
            log.warning("task %d rejected: no negative pool", idx)
            continue
        rng = np.random.default_rng([policy.seed, idx])
        n_pos = math.ceil(policy.train_pos_frac * comm.size)
        n_neg = min(math.ceil(policy.train_neg_frac * comm.size), outside.size)
        train = np.concatenate([
            rng.choice(comm, size=n_pos, replace=False),
            rng.choice(outside, size=n_neg, replace=False),
        ])
        rest = _outside(n, train)
        n_val = math.ceil(policy.val_frac * rest.size)
        val = rng.choice(rest, size=n_val, replace=False)
        test = _outside(n, train, val)
        y = np.zeros(n)
        y[comm] = 1.0
        labels.append(y)
        trains.append(np.sort(train))
        vals.append(np.sort(val))
        tests.append(np.sort(test))
    if not labels:
        raise InvalidInputError("no usable communities after filtering")
    return TaskSet(n, tuple(labels), tuple(trains), tuple(vals), tuple(tests))


def save_task_set(tasks: TaskSet, path) -> None:
    """Persist a binary TaskSet as a JSON manifest of node-id arrays (no test mask)."""
    payload = {
        "num_nodes": tasks.num_nodes,
        "tasks": [
            {
                "positives": np.flatnonzero(tasks.labels[i] == 1).tolist(),
                "train": tasks.train_mask[i].tolist(),
                "val": tasks.val_mask[i].tolist(),
            }
            for i in range(tasks.num_tasks)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))  # the C encoder; json.dump is pure Python


def load_task_set(path) -> TaskSet:
    """Read a taskset.json; a test mask is every node in neither train nor val.
    A task whose train or val mask is empty is a ParseError: no model could
    train or be scored on it."""
    with open(path, "r", encoding="utf-8") as fh, reading(path):
        payload = json.load(fh)
        n = payload["num_nodes"]
        labels, trains, vals, tests = [], [], [], []
        for k, rec in enumerate(payload["tasks"]):
            positives = int_ids(rec["positives"])
            if positives.size and (positives.min() < 0 or positives.max() >= n):
                raise ParseError(f"{path}: task {k} has a positive node id outside 0..{n - 1}")
            y = np.zeros(n)
            y[positives] = 1.0
            labels.append(y)
            trains.append(int_ids(rec["train"]))
            vals.append(int_ids(rec["val"]))
            for kind, mask in (("train", trains[-1]), ("val", vals[-1])):
                if not mask.size:
                    raise ParseError(f"{path}: task {k} has an empty {kind} mask")
            tests.append(_outside(n, trains[-1], vals[-1]))
        return TaskSet(n, tuple(labels), tuple(trains), tuple(vals), tuple(tests))

import math
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from taskaff import graphs, learners, planted
from taskaff.affinity import EvalLog
from taskaff.tasks import TaskSet

ACCEPTANCE_RESULTS = []

# One subset's scores, keyed by task: the per-subset view oracles iterate.
Eval = namedtuple("Eval", "subset scores")


def make_eval(subset, scores):
    return Eval(tuple(subset), scores)


def make_log(evals):
    """EvalLog holding the given per-subset records."""
    return EvalLog([ev.subset for ev in evals],
                   [[ev.scores[i] for i in ev.subset] for ev in evals])


def records(log):
    """Per-subset records of an EvalLog, for oracles that loop over subsets."""
    return [Eval(tuple(s), dict(zip(s, sc)))
            for s, sc in zip(log.subsets.tolist(), log.scores.tolist())]


def cut_evals(aff_dir, done, rows=1, tail=""):
    """Cut the evals.csv of ``aff_dir`` to what a run killed while it wrote
    subset ``done`` leaves: the rows of subsets 0..done-1, the first ``rows``
    rows of subset ``done`` and an unterminated ``tail``."""
    path = Path(aff_dir, "evals.csv")
    lines = path.read_bytes().splitlines(keepends=True)
    whole = 1 + sum(int(line.split(b",")[0]) < done for line in lines[1:])
    path.write_bytes(b"".join(lines[:whole + rows]) + tail.encode())


def projection(design):
    """Hat matrix of a design, through the pseudo-inverse of its Gram matrix."""
    return design @ np.linalg.pinv(design.T @ design, rcond=learners.PINV_RCOND) @ design.T


def sigma(inst):
    """N x N hat matrix of a planted instance's full diffused design."""
    return projection(inst.design)


def all_pairs_regroup(subsets, scores, num_tasks, prefixes):
    """(theta, counts) of each prefix length c, from one stable sort of every
    (subset, i, j) key i*T + j of the log: exact fsum means of f_i per pair.
    Holds n * alpha^2 keys, sort positions and values at once."""
    alpha = subsets.shape[1]
    keys = (subsets[:, :, None] * num_tasks + subsets[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    order //= alpha  # key k = (subset, i, j) scores f_i = scores.ravel()[k // alpha]
    values = scores.ravel()[order]
    full = np.bincount(keys, minlength=num_tasks**2)
    starts = np.cumsum(full) - full
    for c in prefixes:
        counts = np.bincount(keys[:c * alpha * alpha], minlength=num_tasks**2)
        pairs, theta = np.flatnonzero(counts), np.zeros(num_tasks**2)
        theta[pairs] = [math.fsum(values[s:s + k].tolist()) / k
                        for s, k in zip(starts[pairs].tolist(), counts[pairs].tolist())]
        yield theta.reshape(num_tasks, num_tasks), counts.reshape(num_tasks, num_tasks)


def sigma_tilde(inst):
    """m x m hat matrix of a planted instance's design restricted to its
    observed rows: the projection of the closed-form theory."""
    return projection(inst.observed_design)


def random_diffusion(rng, n):
    """The diffusion P = I + 0.5 * sym-normalized adjacency that
    planted.generate draws from ``rng``, as one dense matrix scaled
    elementwise."""
    rows, cols, inv_sqrt = planted._random_graph(rng, n)
    p = np.zeros((n, n))
    p[rows, cols] = 1.0
    p *= inv_sqrt[:, None]
    p *= inv_sqrt[None, :]
    p *= 0.5
    p[np.diag_indices(n)] += 1.0
    return p


def _flatten(layers):
    return np.concatenate([a.ravel() for layer in layers for a in layer])


def _unflatten(vec, layers):
    out, k = [], 0
    for layer in layers:
        pair = []
        for a in layer:
            pair.append(vec[k:k + a.size].reshape(a.shape))
            k += a.size
        out.append(pair)
    return out


def gradient_check(spec, features, masks, labels, seed=0, num_params=120, step=1e-5,
                   zero_weights=False):
    """Max relative error of analytic vs. central finite-difference gradients
    of the MLP learner.

    Builds MLP parameters for a toy instance (``masks``/``labels`` are
    per-task node-index arrays and full label vectors), perturbs at least
    ``num_params`` random parameter coordinates, and compares. With
    ``zero_weights`` all weights are zeroed and biases set to 0.1, a smooth
    point of the loss surface.
    """
    assert spec.kind == "shared-encoder-mlp"
    features = np.asarray(features, dtype=float)
    rng = np.random.default_rng(seed)
    layers = learners._init_params(rng, features.shape[1], spec, len(masks))
    if zero_weights:
        for layer in layers:
            layer[0][...] = 0.0
            layer[1][...] = 0.1
    batch = learners._batch(features, masks, labels)
    loss_kind = spec.train_loss_kind()

    _, grads = learners._forward_backward(layers, batch, loss_kind)
    analytic = _flatten(grads)
    theta = _flatten(layers)

    def loss_at(vec):
        return learners._forward_backward(_unflatten(vec, layers), batch, loss_kind)[0]

    count = min(num_params, theta.size)
    coords = rng.choice(theta.size, size=count, replace=False)
    max_rel = 0.0
    for c in coords:
        plus = theta.copy()
        plus[c] += step
        minus = theta.copy()
        minus[c] -= step
        fd = (loss_at(plus) - loss_at(minus)) / (2.0 * step)
        denom = max(abs(analytic[c]), abs(fd), 1e-8)
        max_rel = max(max_rel, abs(analytic[c] - fd) / denom)
    return max_rel


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def two_block_graph(rng, n_per=30, p_in=0.3, p_out=0.02):
    """Random graph with two dense blocks and sparse cross edges."""
    n = 2 * n_per
    upper = np.triu(rng.random((n, n)), 1)
    same = np.zeros((n, n), dtype=bool)
    same[:n_per, :n_per] = True
    same[n_per:, n_per:] = True
    prob = np.where(same, p_in, p_out)
    adj = (upper > 0) & (upper < prob)
    edges = [tuple(e) for e in np.argwhere(np.triu(adj, 1))]
    return graphs.build_graph(edges, num_nodes=n)


def save_edge_list(g, path):
    """Write a graph as "u v" lines of original node ids, each edge once, in
    row-major order of the upper triangle."""
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    upper = rows < g.indices
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{int(g.orig_ids[u])} {int(g.orig_ids[v])}\n"
                      for u, v in zip(rows[upper], g.indices[upper]))


def block_task_set(g, rng, blocks=((0, 30), (30, 60)), tasks_per_block=2, n_pos=8):
    """Binary tasks whose positive seeds live inside one block each."""
    n = g.num_nodes
    labels, trains, vals, tests = [], [], [], []
    for start, stop in blocks:
        for _ in range(tasks_per_block):
            pos = np.sort(rng.choice(np.arange(start, stop), size=n_pos, replace=False))
            y = np.zeros(n)
            y[pos] = 1.0
            rest = np.setdiff1d(np.arange(n), pos)
            labels.append(y)
            trains.append(pos)
            vals.append(rest[:5])
            tests.append(rest[5:10])
    return TaskSet(n, tuple(labels), tuple(trains), tuple(vals), tuple(tests))


@pytest.fixture(scope="session")
def small_instance():
    """Planted instance shared by read-only tests (do not mutate)."""
    cfg = planted.PlantedConfig(
        num_tasks=6, num_groups=2, feature_dim=4, num_nodes=60, observed=50,
        within_sep=0.2, between_sep=2.0, label_bound=1.0, noise_std=0.1, seed=11,
    )
    return planted.generate(cfg)

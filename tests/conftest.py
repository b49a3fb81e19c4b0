from collections import namedtuple

import numpy as np
import pytest

from taskaff import graphs, planted
from taskaff.affinity import EvalLog
from taskaff.tasks import TaskSet

ACCEPTANCE_RESULTS = []

# One subset's scores, keyed by task: the per-subset view oracles iterate.
Eval = namedtuple("Eval", "subset scores metric seed")


def make_eval(subset, scores, metric="negative-mse", seed=0):
    return Eval(tuple(subset), scores, metric, seed)


def make_log(evals):
    """EvalLog holding the given per-subset records (one shared metric)."""
    return EvalLog([ev.subset for ev in evals],
                   [[ev.scores[i] for i in ev.subset] for ev in evals],
                   [ev.seed for ev in evals], evals[0].metric)


def records(log):
    """Per-subset records of an EvalLog, for oracles that loop over subsets."""
    return [Eval(tuple(s), dict(zip(s, sc)), log.metric, seed)
            for s, sc, seed in zip(log.subsets.tolist(), log.scores.tolist(),
                                   log.seeds.tolist())]


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

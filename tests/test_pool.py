"""MLP training on the fork pool of learners.train_models: same models and
scores as one process, failures at their own index (in one process too), no
worker left behind."""

import multiprocessing
import multiprocessing.pool
import os
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from taskaff import affinity, grouping, learners
from taskaff.errors import TrainingError
from tests.conftest import block_task_set, two_block_graph

SPEC = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=8, epochs=40,
                            learning_rate=0.2)
SUBSETS = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (0, 3), (0, 1)]
GROUPS = grouping.TaskGrouping(groups=[[0, 1], [2, 3], [1, 2]],
                               assignments=np.array([0, 0, 1, 1, 2, 2, 0, 1]), budget=3)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    g = two_block_graph(rng)
    return block_task_set(g, rng), rng.standard_normal((g.num_nodes, 5))


def pooled(monkeypatch, cpus):
    """Let train_models use ``cpus`` workers; the returned list gets the number
    of live worker processes each time a pool starts reading results."""
    monkeypatch.setattr(learners, "ONE_BLAS_THREAD", True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    pools, imap = [], multiprocessing.pool.Pool.imap

    def spy(self, *args, **kwargs):
        pools.append(len(multiprocessing.active_children()))
        return imap(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "imap", spy)
    return pools


def fail_on(monkeypatch, subset, action):
    """Make train_subset run ``action`` (in whichever process trains) for one subset."""
    train = learners.train_subset

    def failing(g, tasks, members, *args, **kwargs):
        if tuple(members) == tuple(subset):
            action()
        return train(g, tasks, members, *args, **kwargs)

    monkeypatch.setattr(learners, "train_subset", failing)


def raise_training_error():
    raise TrainingError("training loss became non-finite, epoch 3")


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_scores_and_layers_match_one_process_bitwise(monkeypatch, data, cpus):
    tasks, x = data
    log = affinity.collect_evaluations(tasks, SUBSETS, SPEC, 5, features=x)
    models = grouping.train_groups(tasks, GROUPS, SPEC, 9, features=x)
    pools = pooled(monkeypatch, cpus)
    got_log = affinity.collect_evaluations(tasks, SUBSETS, SPEC, 5, features=x)
    got_models = grouping.train_groups(tasks, GROUPS, SPEC, 9, features=x)
    assert pools == ([] if cpus == 1 else [cpus, cpus])
    assert multiprocessing.active_children() == []
    assert got_log.scores.tobytes() == log.scores.tobytes()
    for got, want in zip(got_models, models, strict=True):
        assert (got.kind, got.subset, got.monotone_loss) == \
               (want.kind, want.subset, want.monotone_loss)
        assert np.array_equal(got.features, want.features)
        for (gw, gb), (ww, wb) in zip(got.layers, want.layers, strict=True):
            assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_worker_error_names_its_subset_after_committing_the_earlier_ones(monkeypatch, data,
                                                                         cpus):
    tasks, x = data
    pools = pooled(monkeypatch, cpus)
    fail_on(monkeypatch, SUBSETS[3], raise_training_error)
    committed = []
    with pytest.raises(TrainingError) as err:
        affinity.collect_evaluations(tasks, SUBSETS, SPEC, 5, features=x,
                                     indices=range(20, 27),
                                     commit=lambda idx, _: committed.extend(idx.tolist()))
    assert pools == ([] if cpus == 1 else [2])
    assert str(err.value) == "training loss became non-finite, epoch 3, subset 23"
    assert committed == [20, 21, 22]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 3])
def test_worker_error_names_its_group(monkeypatch, data, cpus):
    tasks, x = data
    pools = pooled(monkeypatch, cpus)
    fail_on(monkeypatch, GROUPS.groups[1], raise_training_error)
    with pytest.raises(TrainingError) as err:
        grouping.train_groups(tasks, GROUPS, SPEC, 9, features=x)
    assert pools == ([] if cpus == 1 else [3])
    assert str(err.value) == "training loss became non-finite, epoch 3, group 1"
    assert multiprocessing.active_children() == []


def test_a_killed_worker_fails_the_run_instead_of_hanging(monkeypatch, data):
    tasks, x = data
    pools = pooled(monkeypatch, 2)
    fail_on(monkeypatch, SUBSETS[1], lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(TrainingError) as err:
        affinity.collect_evaluations(tasks, SUBSETS, SPEC, 5, features=x)
    assert pools == [2]
    assert str(err.value) == "a training worker died (exit code -9), subset 1"
    assert multiprocessing.active_children() == []


def test_no_pool_unless_blas_was_pinned(monkeypatch, data):
    tasks, x = data
    pools = pooled(monkeypatch, 3)
    monkeypatch.setattr(learners, "ONE_BLAS_THREAD", False)
    affinity.collect_evaluations(tasks, SUBSETS, SPEC, 5, features=x)
    grouping.train_groups(tasks, GROUPS, SPEC, 9, features=x)
    assert pools == []


def test_linear_learner_never_pools(monkeypatch, data):
    tasks, x = data
    t = tasks.num_tasks  # the linear learner needs one train and val mask for every task
    tasks = replace(tasks, train_mask=(tasks.train_mask[0],) * t,
                    val_mask=(tasks.val_mask[0],) * t, test_mask=(tasks.test_mask[0],) * t)
    pools = pooled(monkeypatch, 3)
    singletons = grouping.TaskGrouping(groups=[[0], [1], [2], [3]],
                                       assignments=np.repeat(np.arange(4), 2), budget=4)
    linear = learners.LearnerSpec(kind="closed-form-linear")
    assert len(grouping.train_groups(tasks, singletons, linear, 9, features=x)) == 4
    assert pools == []


@pytest.mark.parametrize("code, env, pinned", [
    ("import taskaff.cli", {}, True),
    ("import numpy, taskaff.cli", {}, False),
    ("import taskaff.cli", {"OPENBLAS_NUM_THREADS": "2"}, False),
    ("import taskaff.cli", {"OMP_NUM_THREADS": "4"}, False),
])
def test_the_cli_records_whether_its_blas_pin_took_effect(code, env, pinned):
    env = dict({k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")},
               PYTHONPATH=SRC, **env)
    out = subprocess.run([sys.executable, "-c", f"{code}; import taskaff.learners as m; "
                          "import os; print(m.ONE_BLAS_THREAD, os.environ['MKL_NUM_THREADS'])"],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == [str(pinned), "1"]

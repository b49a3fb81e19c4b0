"""Correctness oracles run on every benchmark run's outputs.

Each check returns a list of problems (empty when the output is correct).
The exact theta/counts oracle re-reads the evaluation log with its own
parser and regroups it with ``math.fsum``, sharing no code with
``taskaff.affinity``; the score oracles re-derive a few subsets' scores.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

PLANTED_SCORE_RTOL = 1e-8
# Re-scoring an MLP subset through the public train_subset/evaluate must
# agree with the logged score to this relative tolerance (absolute floor
# MLP_SCORE_ATOL). Sequential training reproduces it exactly; the margin is
# for a batched trainer that sums in another order.
MLP_SCORE_RTOL = 1e-6
MLP_SCORE_ATOL = 1e-9


def read_log(aff_dir):
    """(subsets, scores) from evals.csv and subsets.json; scores[k][task]."""
    with open(os.path.join(aff_dir, "subsets.json"), encoding="utf-8") as fh:
        subsets = [list(s) for s in json.load(fh)]
    scores = [dict() for _ in subsets]
    with open(os.path.join(aff_dir, "evals.csv"), encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for k, tid, score, _metric, _seed in rows:
            scores[int(k)][int(tid)] = float(score)
    return subsets, scores


def regroup(subsets, scores):
    """{(i, j): (fsum mean of f_i over subsets holding i and j, count)}."""
    values = {}
    for k, members in enumerate(subsets):
        for i in members:
            fi = scores[k][i]
            for j in members:
                values.setdefault((i, j), []).append(fi)
    return {pair: (math.fsum(v) / len(v), len(v)) for pair, v in values.items()}


def _read_matrix(path, cast):
    with open(path, encoding="utf-8") as fh:
        return [[cast(x) for x in line.split(",")] for line in fh if line.strip()]


def check_theta(aff_dir):
    """theta.csv and counts.csv equal an independent regroup bit for bit on
    every non-imputed entry; imputed entries are exactly the zero counts."""
    problems = []
    subsets, scores = read_log(aff_dir)
    expected = regroup(subsets, scores)
    theta = _read_matrix(os.path.join(aff_dir, "theta.csv"), float)
    counts = _read_matrix(os.path.join(aff_dir, "counts.csv"), lambda x: int(float(x)))
    with open(os.path.join(aff_dir, "affinity.json"), encoding="utf-8") as fh:
        imputed = {tuple(p) for p in json.load(fh)["imputed"]}
    t = len(theta)
    for i in range(t):
        for j in range(t):
            mean, count = expected.get((i, j), (None, 0))
            if counts[i][j] != count:
                problems.append(f"counts[{i},{j}] = {counts[i][j]}, regroup gives {count}")
            if count == 0:
                if (i, j) not in imputed:
                    problems.append(f"pair ({i},{j}) never co-sampled but not flagged imputed")
            elif (i, j) in imputed:
                problems.append(f"pair ({i},{j}) co-sampled {count}x but flagged imputed")
            elif theta[i][j] != mean:
                problems.append(f"theta[{i},{j}] = {theta[i][j]!r}, regroup gives {mean!r}")
        if len(problems) > 20:
            break
    return problems


def check_finite(aff_dir, *json_paths):
    """Every logged score and every number in the given reports is finite."""
    problems = []
    _, scores = read_log(aff_dir)
    bad = [(k, i) for k, row in enumerate(scores) for i, v in row.items()
           if not math.isfinite(v)]
    if bad:
        problems.append(f"{len(bad)} non-finite score(s) in evals.csv, first {bad[0]}")
    for path in json_paths:
        with open(path, encoding="utf-8") as fh:
            for value in _numbers(json.load(fh)):
                if value is None or not math.isfinite(value):
                    problems.append(f"{os.path.basename(path)} holds {value!r}")
                    break
    return problems


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif obj is None or (isinstance(obj, (int, float)) and not isinstance(obj, bool)):
        yield obj


def spot_indices(n, k):
    return sorted(set(np.linspace(0, n - 1, k).round().astype(int).tolist()))


def _affinity_config(aff_dir):
    with open(os.path.join(aff_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["config"]


def lstsq_scores(features, tasks, subset):
    """Val negative-MSE of each member under an independent numpy
    least-squares fit to the subset's mean train label."""
    train = tasks.train_mask[subset[0]]
    z = features[train]
    ybar = np.mean([tasks.labels[i][train] for i in subset], axis=0)
    w = np.linalg.lstsq(z, ybar, rcond=None)[0]
    out = {}
    for i in subset:
        val = tasks.val_mask[i]
        out[i] = -float(np.mean((features[val] @ w - tasks.labels[i][val]) ** 2))
    return out


def compare_scores(logged, oracle, rtol, atol=0.0):
    return [f"task {i}: logged {logged[i]!r}, oracle {oracle[i]!r}"
            for i in oracle
            if not abs(logged[i] - oracle[i]) <= max(atol, rtol * abs(oracle[i]))]


def check_planted_scores(taskaff, dataset_dir, aff_dir, k):
    """k subsets' logged val negative-MSE against the lstsq oracle."""
    cfg = _affinity_config(aff_dir)
    inst = taskaff.planted.load_instance(dataset_dir)
    tasks, features = taskaff.planted.to_task_set(inst, holdout_frac=cfg["holdout_frac"])
    subsets, scores = read_log(aff_dir)
    problems = []
    for idx in spot_indices(len(subsets), k):
        oracle = lstsq_scores(features, tasks, subsets[idx])
        problems += [f"subset {idx}: {p}" for p in
                     compare_scores(scores[idx], oracle, PLANTED_SCORE_RTOL)]
    return problems


def community_features(taskaff, dataset_dir):
    """(tasks, diffused features) of a community dataset via public loaders."""
    g_mod = taskaff.graphs
    with open(os.path.join(dataset_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    g = g_mod.load_edge_list(meta["edges"])
    g = g.with_features(g_mod.load_features_csv(meta["features"], g.num_nodes))
    tasks = taskaff.tasks.load_task_set(os.path.join(dataset_dir, "taskset.json"))
    op = g_mod.DiffusionOperator(kind=meta["op"])
    return tasks, g_mod.diffuse_features(g, op, meta["hops"])


def check_community_scores(taskaff, dataset_dir, aff_dir, k):
    """Re-train k logged subsets through the public train_subset/evaluate
    (seed = affinity seed XOR subset index) and compare every score."""
    cfg = _affinity_config(aff_dir)
    spec = taskaff.learners.LearnerSpec(**cfg["learner"])
    tasks, features = community_features(taskaff, dataset_dir)
    subsets, scores = read_log(aff_dir)
    problems = []
    for idx in spot_indices(len(subsets), k):
        model = taskaff.learners.train_subset(None, tasks, subsets[idx], spec,
                                              cfg["seed"] ^ idx, features=features)
        oracle = {i: taskaff.learners.evaluate(model, tasks, i, "val", spec.metric)
                  for i in model.subset}
        problems += [f"subset {idx}: {p}" for p in
                     compare_scores(scores[idx], oracle, MLP_SCORE_RTOL, MLP_SCORE_ATOL)]
    return problems


def manifest_artifacts(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["artifacts"]


"""Command-line pipeline: generate | split | affinity | cluster | evaluate |
predict-nt | verify-theory | ppr-sim.

Every command writes a manifest.json capturing the resolved configuration
and sha256 hashes of its inputs and artifacts; reruns with identical config
and inputs produce byte-identical outputs. The affinity command keeps an
append-only evaluation log with per-subset completion markers so an
interrupted run resumes without retraining finished subsets.

Exit codes: 0 ok, 2 domain error (including a failed linear-algebra routine,
an exhausted memory and an affinity rerun whose plan, learner or dataset
differs from the log in its output directory), 3 training error, 64 usage,
66 missing input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import affinity as aff_mod
from . import grouping as grp_mod
from . import planted as pl_mod
from . import transfer as tr_mod
from .errors import (
    MissingInputError,
    TaskAffError,
    TrainingError,
)
from .graphs import (
    DiffusionOperator,
    diffuse_features,
    load_edge_list,
    load_features_csv,
    ppr_group_similarity,
)
from .learners import LearnerSpec, train_subset  # noqa: F401 (bench/tracing.py wraps it here)
from .tasks import SplitPolicy, load_communities, load_task_set, make_splits, save_task_set

EX_OK = 0
EX_DOMAIN = 2
EX_TRAINING = 3
EX_USAGE = 64
EX_NOINPUT = 66

STL_SEED_SALT = 0x5EED
HELDOUT_SEED_SALT = 7919


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with the sysexits usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_manifest(out_dir, command, config, inputs, artifacts) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs if os.path.exists(p)},
        "artifacts": {os.path.basename(p): _sha256(p) for p in artifacts},
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _require(path):
    if path is None or not os.path.exists(path):
        raise MissingInputError(path if path is not None else "<unset required path>")
    return path


def _load_config_file(path):
    if path is None:
        return {}
    _require(path)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve(args, file_cfg, key, default):
    """Flag value wins over config-file value wins over default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


def _load_graph_and_tasks(dataset_dir, meta):
    """(featureless graph, task set) of a community dataset directory."""
    return (load_edge_list(_require(meta["edges"])),
            load_task_set(_require(os.path.join(dataset_dir, "taskset.json"))))


def _load_dataset(dataset_dir, holdout_frac):
    """Return (tasks, features, meta, graph_or_none) for a dataset directory."""
    meta_path = _require(os.path.join(dataset_dir, "meta.json"))
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta["kind"] == "planted":
        inst = pl_mod.load_instance(dataset_dir)
        tasks, features = pl_mod.to_task_set(inst, holdout_frac=holdout_frac)
        return tasks, features, meta, None
    g, tasks = _load_graph_and_tasks(dataset_dir, meta)
    if meta.get("features"):
        g = g.with_features(load_features_csv(_require(meta["features"]), g.num_nodes))
    else:
        # Degree-plus-constant fallback keeps the pipeline runnable without an
        # external embedding file.
        deg = g.degrees()
        scale = deg.max() if deg.max() > 0 else 1.0
        g = g.with_features(np.stack([deg / scale, np.ones(g.num_nodes)], axis=1))
    op = DiffusionOperator(kind=meta.get("op", "row-normalized"),
                           teleport=meta.get("teleport", 0.15))
    features = diffuse_features(g, op, meta.get("hops", 2))
    return tasks, features, meta, g


def _learner_spec(args, file_cfg) -> LearnerSpec:
    kind = _resolve(args, file_cfg, "learner", "closed-form-linear")
    kind = {"linear": "closed-form-linear", "mlp": "shared-encoder-mlp"}.get(kind, kind)
    return LearnerSpec(
        kind=kind,
        hidden_width=_resolve(args, file_cfg, "hidden-width", 64),
        hidden_layers=_resolve(args, file_cfg, "hidden-layers", 1),
        learning_rate=_resolve(args, file_cfg, "learning-rate", 0.05),
        epochs=_resolve(args, file_cfg, "epochs", 500),
        ridge=_resolve(args, file_cfg, "ridge", 0.0),
        metric=_resolve(args, file_cfg, "metric",
                        "negative-mse" if kind == "closed-form-linear"
                        else "negative-cross-entropy"),
    )


def cmd_generate(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = pl_mod.PlantedConfig(
        num_tasks=_resolve(args, file_cfg, "tasks", 20),
        num_groups=_resolve(args, file_cfg, "groups", 4),
        feature_dim=_resolve(args, file_cfg, "dim", 10),
        num_nodes=_resolve(args, file_cfg, "nodes", 600),
        observed=_resolve(args, file_cfg, "observed", 500),
        within_sep=_resolve(args, file_cfg, "within-sep", 0.5),
        between_sep=_resolve(args, file_cfg, "between-sep", 6.0),
        label_bound=_resolve(args, file_cfg, "label-bound", 2.0),
        noise_std=_resolve(args, file_cfg, "noise-std", 0.2),
        seed=args.seed,
    )
    inst = pl_mod.generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    pl_mod.save_instance(inst, args.out)
    artifacts = [os.path.join(args.out, f)
                 for f in ("features.csv", "pg.csv", "labels.csv", "meta.json")]
    _write_manifest(args.out, "generate", asdict(cfg), [], artifacts)
    return EX_OK


def cmd_split(args) -> int:
    file_cfg = _load_config_file(args.config)
    edges = _require(_resolve(args, file_cfg, "edges", None))
    communities_path = _require(_resolve(args, file_cfg, "communities", None))
    features_path = _resolve(args, file_cfg, "features", None)
    if features_path:
        _require(features_path)
    # Later commands diffuse with these; reject bad values before any artifact.
    op = DiffusionOperator(kind=_resolve(args, file_cfg, "op", "row-normalized"),
                           num_hops=_resolve(args, file_cfg, "hops", 2))
    os.makedirs(args.out, exist_ok=True)
    g = load_edge_list(edges, idmap_path=os.path.join(args.out, "idmap.json"))
    comms = load_communities(communities_path, g, _resolve(args, file_cfg, "top-k", 100))
    policy = SplitPolicy(
        train_pos_frac=_resolve(args, file_cfg, "train-pos-frac", 0.1),
        train_neg_frac=_resolve(args, file_cfg, "train-neg-frac", 0.1),
        val_frac=_resolve(args, file_cfg, "val-frac", 0.2),
        seed=args.seed,
    )
    tasks = make_splits(comms, g, policy)
    save_task_set(tasks, os.path.join(args.out, "taskset.json"))
    meta = {
        "kind": "community",
        "edges": os.path.abspath(edges),
        "features": os.path.abspath(features_path) if features_path else None,
        "op": op.kind,
        "hops": op.num_hops,
        "num_tasks": tasks.num_tasks,
    }
    _write_json(os.path.join(args.out, "meta.json"), meta)
    config = dict(asdict(policy), top_k=_resolve(args, file_cfg, "top-k", 100))
    artifacts = [os.path.join(args.out, f)
                 for f in ("taskset.json", "meta.json", "idmap.json")]
    _write_manifest(args.out, "split", config, [edges, communities_path], artifacts)
    return EX_OK


def _log_paths(out_dir):
    return (os.path.join(out_dir, "evals.csv"),
            os.path.join(out_dir, "subsets.json"),
            os.path.join(out_dir, "completed.idx"),
            os.path.join(out_dir, "fingerprint.json"))


def _affinity_fingerprint(dataset, plan, spec, holdout):
    """What an affinity log depends on, as it round-trips through JSON.

    The dataset enters by the bytes of its meta.json and taskset.json, not
    by its path, so a moved dataset still resumes.
    """
    files = [os.path.join(dataset, n) for n in ("meta.json", "taskset.json")]
    return json.loads(json.dumps({
        "plan": asdict(plan), "learner": asdict(spec), "holdout_frac": holdout,
        "dataset": {os.path.basename(p): _sha256(p) for p in files if os.path.exists(p)},
    }))


def cmd_affinity(args) -> int:
    file_cfg = _load_config_file(args.config)
    dataset = _require(args.dataset)
    holdout = _resolve(args, file_cfg, "holdout-frac", 0.25)
    tasks, features, meta, _ = _load_dataset(dataset, holdout)
    spec = _learner_spec(args, file_cfg)
    t = tasks.num_tasks
    plan = aff_mod.SamplingPlan(
        num_tasks=t,
        subset_size=_resolve(args, file_cfg, "alpha", 10),
        num_subsets=_resolve(args, file_cfg, "num-subsets", 2000),
        seed=args.seed,
        min_pair_coverage=_resolve(args, file_cfg, "min-pair-coverage",
                                   1 if t <= 200 else 0),
    )
    os.makedirs(args.out, exist_ok=True)
    csv_path, subsets_path, idx_path, fp_path = _log_paths(args.out)
    fingerprint = _affinity_fingerprint(dataset, plan, spec, holdout)

    if os.path.exists(subsets_path):
        stored = {}
        if os.path.exists(fp_path):
            with open(fp_path, "r", encoding="utf-8") as fh:
                stored = json.load(fh)
        differs = sorted(k for k in fingerprint if stored.get(k) != fingerprint[k])
        if differs:
            raise TaskAffError(
                f"{args.out} holds an affinity log whose {', '.join(differs)} "
                "differ from this run; remove it or choose another --out"
            )
        with open(subsets_path, "r", encoding="utf-8") as fh:
            subsets = [tuple(s) for s in json.load(fh)]
        if (len(subsets) < plan.num_subsets
                or any(len(s) != plan.subset_size for s in subsets[:1])):
            raise TaskAffError(
                f"{subsets_path} does not match the requested plan; "
                "remove the output directory to start fresh"
            )
    else:
        subsets = aff_mod.sample_subsets(plan)
        _write_json(fp_path, fingerprint)
        with open(subsets_path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in subsets], fh)
    done = []
    if os.path.exists(idx_path):
        with open(idx_path, "r", encoding="utf-8") as fh:
            done = sorted({int(line) for line in fh if line.strip()})
    # Keep only committed rows, so appended batches extend a clean log.
    committed = aff_mod.load_eval_log(csv_path, subsets_path, done)
    aff_mod.save_eval_log(committed, csv_path, indices=done)
    with open(idx_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k}\n" for k in done)

    def commit(indices, batch):
        aff_mod.save_eval_log(batch, csv_path, indices=indices, append=True)
        with open(idx_path, "a", encoding="utf-8") as fh:
            fh.writelines(f"{k}\n" for k in indices)

    pending = sorted(set(range(len(subsets))) - set(done))
    try:
        evals = committed if not pending else aff_mod.collect_evaluations(
            None, tasks, [subsets[k] for k in pending], spec, args.seed, features=features,
            indices=pending, commit=commit)
    except TaskAffError as exc:
        print(f"affinity: training failed, log retained for resume: {exc}",
              file=sys.stderr)
        return EX_TRAINING
    if done and pending:  # resumed: the full log is the committed and the new rows
        evals = aff_mod.load_eval_log(csv_path, subsets_path)

    result = aff_mod.estimate_affinity(evals, t)
    aff_mod.save_affinity(
        result,
        os.path.join(args.out, "theta.csv"),
        os.path.join(args.out, "counts.csv"),
        os.path.join(args.out, "affinity.json"),
    )
    n = len(evals)
    checkpoints = sorted({max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4), n})
    trace = aff_mod.convergence_trace(evals, t, checkpoints)
    with open(os.path.join(args.out, "convergence.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prefix", "max_abs_deviation"])
        for c, d in zip(checkpoints, trace):
            writer.writerow([c, repr(d)])
    config = {
        "dataset": os.path.abspath(dataset),
        "alpha": plan.subset_size, "num_subsets": plan.num_subsets,
        "seed": plan.seed, "min_pair_coverage": plan.min_pair_coverage,
        "holdout_frac": holdout, "learner": asdict(spec),
    }
    artifacts = [csv_path, subsets_path,
                 os.path.join(args.out, "theta.csv"),
                 os.path.join(args.out, "counts.csv"),
                 os.path.join(args.out, "affinity.json"),
                 os.path.join(args.out, "convergence.csv")]
    _write_manifest(args.out, "affinity", config, [os.path.join(dataset, "meta.json")],
                    artifacts)
    return EX_OK


def _load_affinity_dir(aff_dir):
    return aff_mod.load_affinity(
        _require(os.path.join(aff_dir, "theta.csv")),
        _require(os.path.join(aff_dir, "counts.csv")),
        _require(os.path.join(aff_dir, "affinity.json")),
    )


def cmd_cluster(args) -> int:
    file_cfg = _load_config_file(args.config)
    aff = _load_affinity_dir(_require(args.affinity_dir))
    budget = _resolve(args, file_cfg, "budget", 20)
    if aff.orientation == "loss":
        aff = aff_mod.AffinityMatrix(-aff.theta, aff.counts, "performance", aff.imputed)
    t = aff.num_tasks
    if budget == 1:
        grp = grp_mod.TaskGrouping(groups=[list(range(t))],
                                   assignments=np.zeros(2 * t, dtype=np.int64),
                                   budget=1)
    else:
        cm = grp_mod.build_cluster_matrix(aff)
        labels = grp_mod.spectral_cluster(cm, budget, seed=args.seed)
        grp = grp_mod.derive_groups(labels, t, budget)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "grouping.json")
    grp_mod.save_grouping(grp, out_path)
    _write_manifest(args.out, "cluster",
                    {"budget": budget, "seed": args.seed,
                     "affinity_dir": os.path.abspath(args.affinity_dir)},
                    [os.path.join(args.affinity_dir, "theta.csv")], [out_path])
    return EX_OK


def cmd_evaluate(args) -> int:
    file_cfg = _load_config_file(args.config)
    dataset = _require(args.dataset)
    holdout = _resolve(args, file_cfg, "holdout-frac", 0.25)
    tasks, features, _, _ = _load_dataset(dataset, holdout)
    grp = grp_mod.load_grouping(_require(os.path.join(args.grouping_dir, "grouping.json")))
    spec = _learner_spec(args, file_cfg)
    models = grp_mod.train_groups(None, tasks, grp, spec, args.seed, features=features)
    per_task, objective = grp_mod.evaluate_grouping(models, tasks, spec.metric)
    report = {
        "groups": [list(map(int, g)) for g in grp.groups],
        "objective": objective,
        "per_task_scores": per_task,
    }
    if args.with_baseline:
        naive = grp_mod.TaskGrouping(groups=[list(range(tasks.num_tasks))],
                                     assignments=np.zeros(2 * tasks.num_tasks, dtype=np.int64),
                                     budget=1)
        naive_models = grp_mod.train_groups(None, tasks, naive, spec, args.seed,
                                            features=features)
        _, naive_obj = grp_mod.evaluate_grouping(naive_models, tasks, spec.metric)
        report["baseline_objective"] = naive_obj
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "evaluation.json")
    _write_json(out_path, report)
    _write_manifest(args.out, "evaluate",
                    {"dataset": os.path.abspath(dataset), "seed": args.seed,
                     "holdout_frac": holdout, "learner": asdict(spec),
                     "with_baseline": bool(args.with_baseline)},
                    [os.path.join(args.grouping_dir, "grouping.json")], [out_path])
    return EX_OK


def cmd_predict_nt(args) -> int:
    file_cfg = _load_config_file(args.config)
    dataset = _require(args.dataset)
    holdout = _resolve(args, file_cfg, "holdout-frac", 0.25)
    tasks, features, _, _ = _load_dataset(dataset, holdout)
    spec = _learner_spec(args, file_cfg)
    aff_dir = _require(args.affinity_dir)
    aff = _load_affinity_dir(aff_dir)
    evals = aff_mod.load_eval_log(
        _require(os.path.join(aff_dir, "evals.csv")),
        _require(os.path.join(aff_dir, "subsets.json")),
    )
    t = tasks.num_tasks
    singles = [(i,) for i in range(t)]
    stl_evals = aff_mod.collect_evaluations(None, tasks, singles, spec,
                                            base_seed=args.seed ^ STL_SEED_SALT,
                                            features=features)
    stl = dict(enumerate(stl_evals.scores[:, 0].tolist()))
    train_subsets = set(map(tuple, evals.subsets.tolist()))
    alpha = evals.subsets.shape[1]
    held_plan = aff_mod.SamplingPlan(
        num_tasks=t, subset_size=alpha,
        num_subsets=_resolve(args, file_cfg, "heldout-subsets", 250),
        seed=args.seed + HELDOUT_SEED_SALT,
    )
    held = [s for s in aff_mod.sample_subsets(held_plan) if s not in train_subsets]
    held_evals = aff_mod.collect_evaluations(None, tasks, held, spec,
                                             base_seed=args.seed ^ HELDOUT_SEED_SALT,
                                             features=features)
    train_ex = tr_mod.build_examples(evals, stl, aff)
    held_ex = tr_mod.build_examples(held_evals, stl, aff)
    models = tr_mod.fit_all(
        train_ex,
        l2=_resolve(args, file_cfg, "l2", tr_mod.DEFAULT_L2),
        epochs=_resolve(args, file_cfg, "logistic-epochs", 1500),
        lr=_resolve(args, file_cfg, "logistic-lr", 0.5),
        seed=args.seed,
    )
    macro, detail = tr_mod.evaluate_f1(models, held_ex)
    os.makedirs(args.out, exist_ok=True)
    report = {
        "macro_f1": macro,
        "per_task_f1": {str(k): v for k, v in detail["per_task"].items()},
        "excluded_tasks": detail["excluded"],
        "num_train_examples": sum(len(v) for v in train_ex.values()),
        "num_heldout_subsets": len(held),
    }
    out_path = os.path.join(args.out, "transfer_f1.json")
    _write_json(out_path, report)
    ex_path = os.path.join(args.out, "heldout_predictions.csv")
    tr_mod.save_examples(held_ex, ex_path, models=models)
    _write_manifest(args.out, "predict-nt",
                    {"dataset": os.path.abspath(dataset), "seed": args.seed,
                     "holdout_frac": holdout, "heldout_subsets": held_plan.num_subsets},
                    [os.path.join(aff_dir, "evals.csv")], [out_path, ex_path])
    return EX_OK


def cmd_verify_theory(args) -> int:
    file_cfg = _load_config_file(args.config)
    dataset = _require(args.dataset)
    meta_path = _require(os.path.join(dataset, "meta.json"))
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("kind") != "planted":
        raise TaskAffError("verify-theory needs a planted dataset directory")
    inst = pl_mod.load_instance(dataset)
    alpha = _resolve(args, file_cfg, "alpha", 5)
    if args.exhaustive:
        theta = pl_mod.population_theta(inst, alpha)
        mode = {"exhaustive": True, "alpha": alpha}
    else:
        n = _resolve(args, file_cfg, "num-subsets", 400)
        plan = aff_mod.SamplingPlan(num_tasks=inst.config.num_tasks,
                                    subset_size=alpha, num_subsets=n,
                                    seed=args.seed, min_pair_coverage=1)
        theta = pl_mod.theta_closed_form(inst, aff_mod.sample_subsets(plan))
        mode = {"exhaustive": False, "alpha": alpha, "num_subsets": n, "seed": args.seed}
    report = pl_mod.verify_block_structure(theta, inst.group_of)
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "per_row_gaps": [None if math.isnan(v) else v for v in report.per_row_gaps],
        "global_gap": report.global_gap,
        "pass": bool(report.passed),
        "config": dict(mode, dataset=os.path.abspath(dataset)),
    }
    out_path = os.path.join(args.out, "verify.json")
    _write_json(out_path, payload)
    gap_csv = os.path.join(args.out, "row_gaps.csv")
    with open(gap_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "row_gap"])
        for i, v in enumerate(report.per_row_gaps):
            writer.writerow([i, "" if math.isnan(v) else repr(float(v))])
    _write_manifest(args.out, "verify-theory", payload["config"],
                    [meta_path], [out_path, gap_csv])
    return EX_OK if report.passed else EX_DOMAIN


def cmd_ppr_sim(args) -> int:
    file_cfg = _load_config_file(args.config)
    dataset = _require(args.dataset)
    meta_path = _require(os.path.join(dataset, "meta.json"))
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("kind") != "community":
        raise TaskAffError("ppr-sim needs a community dataset (a graph to walk on)")
    g, tasks = _load_graph_and_tasks(dataset, meta)
    grp = grp_mod.load_grouping(_require(os.path.join(args.grouping_dir, "grouping.json")))
    teleport = _resolve(args, file_cfg, "teleport", 0.15)
    within, between = ppr_group_similarity(g, tasks, grp, teleport=teleport)
    os.makedirs(args.out, exist_ok=True)
    report = {"within_mean": within, "between_mean": between, "teleport": teleport}
    out_path = os.path.join(args.out, "ppr_similarity.json")
    _write_json(out_path, report)
    _write_manifest(args.out, "ppr-sim", {"teleport": teleport,
                                          "dataset": os.path.abspath(dataset)},
                    [os.path.join(args.grouping_dir, "grouping.json")], [out_path])
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="taskaff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="global seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None, help="JSON config file; flags override")

    p = sub.add_parser("generate", help="generate a planted instance")
    common(p)
    p.add_argument("--tasks", type=int)
    p.add_argument("--groups", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--observed", type=int)
    p.add_argument("--within-sep", type=float)
    p.add_argument("--between-sep", type=float)
    p.add_argument("--label-bound", type=float)
    p.add_argument("--noise-std", type=float)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("split", help="ingest a community dataset and build splits")
    common(p)
    p.add_argument("--edges")
    p.add_argument("--communities")
    p.add_argument("--features")
    p.add_argument("--top-k", type=int)
    p.add_argument("--train-pos-frac", type=float)
    p.add_argument("--train-neg-frac", type=float)
    p.add_argument("--val-frac", type=float)
    p.add_argument("--op")
    p.add_argument("--hops", type=int)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("affinity", help="sample subsets, train, estimate theta")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--alpha", type=int)
    p.add_argument("--num-subsets", type=int)
    p.add_argument("--min-pair-coverage", type=int)
    p.add_argument("--holdout-frac", type=float)
    p.add_argument("--learner")
    p.add_argument("--metric")
    p.add_argument("--hidden-width", type=int)
    p.add_argument("--hidden-layers", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--ridge", type=float)
    p.set_defaults(func=cmd_affinity)

    p = sub.add_parser("cluster", help="spectral clustering of theta into groups")
    common(p)
    p.add_argument("--affinity-dir", required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="train per-group models and report the objective")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--grouping-dir", required=True)
    p.add_argument("--holdout-frac", type=float)
    p.add_argument("--with-baseline", action="store_true")
    p.add_argument("--learner")
    p.add_argument("--metric")
    p.add_argument("--hidden-width", type=int)
    p.add_argument("--hidden-layers", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--ridge", type=float)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict-nt", help="fit and score negative-transfer predictors")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--affinity-dir", required=True)
    p.add_argument("--heldout-subsets", type=int)
    p.add_argument("--holdout-frac", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--logistic-epochs", type=int)
    p.add_argument("--logistic-lr", type=float)
    p.add_argument("--learner")
    p.add_argument("--metric")
    p.set_defaults(func=cmd_predict_nt)

    p = sub.add_parser("verify-theory",
                       help="closed-form block-structure check; exits 2 when "
                            "the gap check fails")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--alpha", type=int)
    p.add_argument("--num-subsets", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("ppr-sim", help="within vs between group PPR cosine similarity")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--grouping-dir", required=True)
    p.add_argument("--teleport", type=float)
    p.set_defaults(func=cmd_ppr_sim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EX_USAGE
    try:
        return args.func(args)
    except MissingInputError as exc:
        print(f"taskaff: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except FileNotFoundError as exc:
        print(f"taskaff: missing expected input: {exc.filename}", file=sys.stderr)
        return EX_NOINPUT
    except TrainingError as exc:
        print(f"taskaff: training error: {exc}", file=sys.stderr)
        return EX_TRAINING
    except TaskAffError as exc:
        print(f"taskaff: {exc}", file=sys.stderr)
        return EX_DOMAIN
    except (np.linalg.LinAlgError, MemoryError) as exc:
        what = "out of memory" if isinstance(exc, MemoryError) else "linear algebra failed"
        print(f"taskaff: {what}: {exc}", file=sys.stderr)
        return EX_DOMAIN


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

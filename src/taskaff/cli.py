"""Command-line pipeline: generate | split | affinity | cluster | evaluate |
predict-nt | verify-theory | ppr-sim.

Every command writes a manifest.json capturing the resolved configuration
and sha256 hashes of its inputs and artifacts; reruns with identical config
and inputs produce byte-identical outputs. `affinity` and `predict-nt` open
their affinity directory through taskaff.affinity, which owns its files and
the resume protocol of its evaluation log.

Settings: `--config FILE` holds a JSON object whose keys are a command's
flag names without the leading dashes; it replaces that command's defaults,
so a flag beats the file and the file beats the default shown by --help.

Warnings go to stderr as `taskaff LEVEL logger: message`.

Exit codes: 0 ok, 2 domain error, 3 training error, 64 usage, 66 a path
argument that is missing or of the wrong kind (a directory given as a file,
a file given as a directory, an --out that is a regular file), refused
before the command does any work. Exit 2 includes a failed linear-algebra
routine, an exhausted memory, a malformed input file or artifact, and an
affinity log made by another plan, learner or dataset.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process, set before numpy loads: MLP training runs one
# worker process per CPU instead (learners.train_models), and at these matrix
# sizes a second BLAS thread only spin-waits. A user's own setting is kept.
# The imports below this block must stay below it.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in _BLAS_THREADS:
    os.environ.setdefault(_name, "1")
_ONE_BLAS_THREAD = ("numpy" not in sys.modules
                    and all(os.environ[name] == "1" for name in _BLAS_THREADS))

import argparse
import errno
import hashlib
import json
import logging
import math
from dataclasses import asdict

import numpy as np

from . import affinity as aff_mod
from . import grouping as grp_mod
from . import learners
from . import planted as pl_mod
from . import transfer as tr_mod
from .errors import ParseError, TaskAffError, TrainingError, read_json_object
from .graphs import (
    OPERATOR_KINDS,
    PPR_TELEPORT,
    DiffusionOperator,
    diffuse_features,
    load_edge_list,
    load_features_csv,
    ppr_group_similarity,
)
from .learners import LearnerSpec, train_subset  # noqa: F401 (bench/tracing.py wraps it here)
from .tasks import SplitPolicy, load_communities, load_task_set, make_splits, save_task_set

learners.ONE_BLAS_THREAD = _ONE_BLAS_THREAD

EX_OK = 0
EX_DOMAIN = 2
EX_TRAINING = 3
EX_USAGE = 64
EX_NOINPUT = 66

# The OSErrors that main reports as a missing or wrong-kind input path.
_NOINPUT = {FileNotFoundError: "missing expected input:",
            IsADirectoryError: "expected a file, not the directory",
            NotADirectoryError: "expected a directory, not the file"}

STL_SEED_SALT = 0x5EED
HELDOUT_SEED_SALT = 7919


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with the sysexits usage code and reads
    the --config file of the chosen command as that command's defaults
    (``commands``, set by build_parser, maps a command name to its parser)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        if getattr(parsed, "config", None) is None:
            return parsed
        command = self.commands[parsed.command]
        flags = command._option_string_actions
        command.set_defaults(**{flags["--" + key].dest:
                                _config_value(flags["--" + key], key, value, parsed.config)
                                for key, value in read_json_object(parsed.config).items()
                                if "--" + key in flags})
        return super().parse_args(args, namespace)


def _config_value(action, key, value, path):
    """A --config value as its flag would parse it on the command line: a
    switch takes a JSON boolean, any other flag the text of a JSON string or
    number, passed through the flag's type."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return str(value) if action.type is None else action.type(str(value))
        except ValueError:
            pass
    raise ParseError(f"{path}: invalid value {json.dumps(value)} for {key}")


class _Help(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):  # a None default is described in the help text
        return action.help if action.default is None else super()._get_help_string(action)


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


def _require(path, kind):
    """``path`` if it names an existing ``kind`` ("file" or "dir"); an unset,
    missing or wrong-kind path raises the OSError that main reports (exit 66)."""
    if path is None or not os.path.exists(path):
        code = errno.ENOENT
    elif os.path.isdir(path) != (kind == "dir"):
        code = errno.ENOTDIR if kind == "dir" else errno.EISDIR
    else:
        return path
    raise OSError(code, os.strerror(code), path or "<unset required path>")


def _read_meta(dataset_dir, kind=None):
    """(meta.json, T) of a dataset directory; refused unless its kind is
    planted or community (and ``kind``, if given), it records T, and a
    community one names its edge list, a feature CSV or null, a diffusion
    operator kind and a hop count as an integer >= 0."""
    path = os.path.join(dataset_dir, "meta.json")
    meta = read_json_object(path)
    if meta.get("kind") not in ("planted", "community"):
        raise ParseError(f"{path}: kind must be planted or community, "
                         f"not {json.dumps(meta.get('kind'))}")
    if kind is not None and meta["kind"] != kind:
        raise TaskAffError(f"this command needs a {kind} dataset, not {dataset_dir}")
    recorded = meta.get("config") if meta["kind"] == "planted" else meta
    t = recorded.get("num_tasks") if isinstance(recorded, dict) else None
    if type(t) is not int:
        raise ParseError(f"{path} records no task count")
    hops = meta.get("hops")
    if meta["kind"] == "community" and not (
            isinstance(meta.get("edges"), str) and type(hops) is int and hops >= 0
            and isinstance(meta.get("features"), (str, type(None)))
            and meta.get("op") in OPERATOR_KINDS):
        raise ParseError(f"{path}: edges must be a string, features a string or null, "
                         f"op one of {', '.join(OPERATOR_KINDS)} and hops an integer >= 0")
    return meta, t


def _load_graph_and_tasks(dataset_dir, meta):
    """(featureless graph, task set) of a community dataset directory."""
    return load_edge_list(meta["edges"]), load_task_set(os.path.join(dataset_dir, "taskset.json"))


def _load_dataset(dataset_dir, holdout_frac):
    """Return (tasks, features) for a dataset directory."""
    meta, _ = _read_meta(dataset_dir)
    if meta["kind"] == "planted":
        return pl_mod.to_task_set(pl_mod.load_instance(dataset_dir), holdout_frac=holdout_frac)
    g, tasks = _load_graph_and_tasks(dataset_dir, meta)
    if meta.get("features"):
        g = g.with_features(load_features_csv(meta["features"], g.num_nodes))
    else:
        # Degree-plus-constant fallback keeps the pipeline runnable without an
        # external embedding file.
        deg = g.degrees()
        scale = deg.max() if deg.max() > 0 else 1.0
        g = g.with_features(np.stack([deg / scale, np.ones(g.num_nodes)], axis=1))
    return tasks, diffuse_features(g, DiffusionOperator(kind=meta["op"]), meta["hops"])


def _learner_spec(args) -> LearnerSpec:
    aliases = {"linear": "closed-form-linear", "mlp": "shared-encoder-mlp"}
    return LearnerSpec(kind=aliases.get(args.learner, args.learner),
                       hidden_width=args.hidden_width, hidden_layers=args.hidden_layers,
                       learning_rate=args.learning_rate, epochs=args.epochs, ridge=args.ridge,
                       metric=args.metric)


def cmd_generate(args) -> int:
    cfg = pl_mod.PlantedConfig(
        num_tasks=args.tasks, num_groups=args.groups, feature_dim=args.dim, num_nodes=args.nodes,
        observed=args.observed, within_sep=args.within_sep, between_sep=args.between_sep,
        label_bound=args.label_bound, noise_std=args.noise_std, seed=args.seed)
    pl_mod.save_instance(pl_mod.generate(cfg), args.out)
    artifacts = [os.path.join(args.out, f) for f in ("instance.npz", "meta.json")]
    _write_manifest(args.out, "generate", asdict(cfg), [], artifacts)
    return EX_OK


def cmd_split(args) -> int:
    edges, communities_path = _require(args.edges, "file"), _require(args.communities, "file")
    if args.features:
        _require(args.features, "file")
    if args.top_k < 1:  # a negative slice would silently drop the smallest communities
        raise TaskAffError(f"--top-k must be >= 1, got {args.top_k}")
    policy = SplitPolicy(train_pos_frac=args.train_pos_frac, train_neg_frac=args.train_neg_frac,
                         val_frac=args.val_frac, seed=args.seed)
    # Later commands diffuse with these; reject bad values before any artifact.
    op = DiffusionOperator(kind=args.op)
    if args.hops < 0:
        raise TaskAffError(f"--hops must be >= 0, got {args.hops}")
    os.makedirs(args.out, exist_ok=True)
    g = load_edge_list(edges, idmap_path=os.path.join(args.out, "idmap.json"))
    comms = load_communities(communities_path, g, args.top_k)
    tasks = make_splits(comms, g, policy)
    save_task_set(tasks, os.path.join(args.out, "taskset.json"))
    meta = {
        "kind": "community",
        "edges": os.path.abspath(edges),
        "features": os.path.abspath(args.features) if args.features else None,
        "op": op.kind,
        "hops": args.hops,
        "num_tasks": tasks.num_tasks,
    }
    _write_json(os.path.join(args.out, "meta.json"), meta)
    config = dict(asdict(policy), top_k=args.top_k)
    artifacts = [os.path.join(args.out, f)
                 for f in ("taskset.json", "meta.json", "idmap.json")]
    _write_manifest(args.out, "split", config, [edges, communities_path], artifacts)
    return EX_OK


def _affinity_fingerprint(dataset, meta, spec, holdout):
    """What the scores of an affinity log depend on, as it round-trips through
    JSON: the learner, the holdout fraction and the dataset.

    The dataset enters by the bytes of its meta.json and taskset.json, not
    by its path, so a moved dataset still resumes. A community dataset also
    enters by the bytes of the edge list and feature CSV that its meta.json
    names, keyed by that role ("edges", "features").
    """
    files = {n: os.path.join(dataset, n) for n in ("meta.json", "taskset.json")}
    files = {n: p for n, p in files.items() if os.path.exists(p)}
    if meta["kind"] == "community":
        files.update((role, meta[role]) for role in ("edges", "features") if meta.get(role))
    return json.loads(json.dumps({
        "learner": asdict(spec), "holdout_frac": holdout,
        "dataset": {role: _sha256(p) for role, p in files.items()},
    }))


def cmd_affinity(args) -> int:
    dataset = _require(args.dataset, "dir")
    meta, t = _read_meta(dataset)
    spec = _learner_spec(args)
    coverage = args.min_pair_coverage
    plan = aff_mod.SamplingPlan(
        num_tasks=t, subset_size=args.alpha, num_subsets=args.num_subsets, seed=args.seed,
        min_pair_coverage=(1 if t <= 200 else 0) if coverage is None else coverage,
    )
    try:
        aff_mod.run_log(args.out, plan, spec,
                        _affinity_fingerprint(dataset, meta, spec, args.holdout_frac),
                        lambda: _load_dataset(dataset, args.holdout_frac))
    except TrainingError as exc:
        print(f"affinity: training failed, log retained for resume: {exc}", file=sys.stderr)
        return EX_TRAINING
    config = {
        "dataset": os.path.abspath(dataset),
        "alpha": plan.subset_size, "num_subsets": plan.num_subsets,
        "seed": plan.seed, "min_pair_coverage": plan.min_pair_coverage,
        "holdout_frac": args.holdout_frac, "learner": asdict(spec),
    }
    _write_manifest(args.out, "affinity", config, [os.path.join(dataset, "meta.json")],
                    [os.path.join(args.out, name) for name in aff_mod.ARTIFACTS])
    return EX_OK


def cmd_cluster(args) -> int:
    aff = aff_mod.load_affinity(_require(args.affinity_dir, "dir"))
    t = aff.num_tasks
    if args.budget is None:
        raise TaskAffError(f"--budget, the number of task groups in 1..{t}, is required "
                           "here or in --config")
    if not 1 <= args.budget <= t:
        raise TaskAffError(f"--budget must lie in [1, {t}], the number of tasks, "
                           f"got {args.budget}")
    labels = grp_mod.spectral_cluster(grp_mod.build_cluster_matrix(aff), args.budget,
                                      seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "grouping.json")
    grp_mod.save_grouping(grp_mod.derive_groups(labels, t), labels, args.budget, out_path)
    _write_manifest(args.out, "cluster",
                    {"budget": args.budget, "seed": args.seed,
                     "affinity_dir": os.path.abspath(args.affinity_dir)},
                    [os.path.join(args.affinity_dir, aff_mod.THETA)], [out_path])
    return EX_OK


def cmd_evaluate(args) -> int:
    dataset, grouping_dir = _require(args.dataset, "dir"), _require(args.grouping_dir, "dir")
    tasks, features = _load_dataset(dataset, args.holdout_frac)
    grp_path = os.path.join(grouping_dir, "grouping.json")
    groups = grp_mod.load_grouping(grp_path, tasks.num_tasks)
    spec = _learner_spec(args)
    missing = sorted(set(range(tasks.num_tasks)).difference(*groups))
    if missing and spec.kind != "closed-form-linear":  # a linear model scores every task
        raise TaskAffError(f"{grp_path}: task {missing[0]} is in no group, and an MLP "
                           "scores only its group's tasks")
    models = grp_mod.train_groups(tasks, groups, spec, args.seed, features=features)
    per_task, objective = grp_mod.evaluate_grouping(models, tasks, spec.metric)
    report = {
        "groups": groups,
        "objective": objective,
        "per_task_scores": per_task,
    }
    if args.with_baseline:
        naive_models = grp_mod.train_groups(tasks, [list(range(tasks.num_tasks))], spec,
                                            args.seed, features=features)
        _, naive_obj = grp_mod.evaluate_grouping(naive_models, tasks, spec.metric)
        report["baseline_objective"] = naive_obj
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "evaluation.json")
    _write_json(out_path, report)
    _write_manifest(args.out, "evaluate",
                    {"dataset": os.path.abspath(dataset), "seed": args.seed,
                     "holdout_frac": args.holdout_frac, "learner": asdict(spec),
                     "with_baseline": bool(args.with_baseline)},
                    [grp_path], [out_path])
    return EX_OK


def cmd_predict_nt(args) -> int:
    dataset, aff_dir = _require(args.dataset, "dir"), _require(args.affinity_dir, "dir")
    if not (np.isfinite(args.l2) and args.l2 > 0 and args.heldout_subsets >= 1):
        raise TaskAffError("predict-nt needs 0 < --l2 < inf and --heldout-subsets >= 1")
    meta = _read_meta(dataset)[0]  # a malformed meta.json is named as such, not as a mismatch
    spec = _learner_spec(args)
    # The single-task references f_i({i}) trained here are compared with the
    # log's f_i(S), so both must come from one learner and one dataset.
    evals, aff = aff_mod.open_log(aff_dir,
                                  _affinity_fingerprint(dataset, meta, spec, args.holdout_frac),
                                  spec.metric)
    tasks, features = _load_dataset(dataset, args.holdout_frac)
    t = tasks.num_tasks
    train_subsets = set(map(tuple, evals.subsets.tolist()))
    held_plan = aff_mod.SamplingPlan(num_tasks=t, subset_size=evals.subsets.shape[1],
                                     num_subsets=args.heldout_subsets,
                                     seed=args.seed + HELDOUT_SEED_SALT)
    held = [s for s in aff_mod.sample_subsets(held_plan) if s not in train_subsets]
    unlogged = np.setdiff1d(held, evals.subsets).tolist()  # no predictor is fit for these
    if unlogged:
        raise TaskAffError(f"held-out subsets hold task(s) {unlogged}, which no subset of "
                           f"{aff_dir} holds; rerun affinity with more --num-subsets or "
                           "with --min-pair-coverage 1")
    if not held:  # no subset is left to score the predictors on
        raise TaskAffError(f"all {held_plan.num_subsets} held-out draws are subsets that "
                           f"{aff_dir} logged; raise --heldout-subsets, or rerun affinity "
                           "so that it logs fewer of the possible subsets")
    stl_evals = aff_mod.collect_evaluations(tasks, [(i,) for i in range(t)], spec,
                                            base_seed=args.seed ^ STL_SEED_SALT,
                                            features=features)
    held_evals = aff_mod.collect_evaluations(tasks, held, spec,
                                             base_seed=args.seed ^ HELDOUT_SEED_SALT,
                                             features=features)
    train_ex = tr_mod.build_examples(evals, stl_evals.scores[:, 0], aff)
    held_ex = tr_mod.build_examples(held_evals, stl_evals.scores[:, 0], aff)
    models = tr_mod.fit_all(train_ex, t, l2=args.l2)
    macro, detail = tr_mod.evaluate_f1(models, held_ex)
    os.makedirs(args.out, exist_ok=True)
    report = {
        "macro_f1": macro,
        "constant_macro_f1": detail["constant"],
        "heldout_nt_rate": detail["nt_rate"],
        "per_task_f1": {str(k): v for k, v in detail["per_task"].items()},
        "excluded_tasks": detail["excluded"],
        "num_train_examples": evals.subsets.size,
        "num_heldout_subsets": len(held),
    }
    out_path = os.path.join(args.out, "transfer_f1.json")
    _write_json(out_path, report)
    ex_path = os.path.join(args.out, "heldout_predictions.csv")
    tr_mod.save_examples(held_ex, ex_path, models=models)
    _write_manifest(args.out, "predict-nt",
                    {"dataset": os.path.abspath(dataset), "seed": args.seed,
                     "holdout_frac": args.holdout_frac, "learner": asdict(spec),
                     "heldout_subsets": held_plan.num_subsets, "l2": args.l2},
                    [os.path.join(aff_dir, aff_mod.EVALS)], [out_path, ex_path])
    return EX_OK


def cmd_verify_theory(args) -> int:
    dataset = _require(args.dataset, "dir")
    _read_meta(dataset, "planted")
    inst = pl_mod.load_instance(dataset)
    alpha, n = args.alpha, args.num_subsets
    if args.exhaustive:
        theta = pl_mod.population_theta(inst, alpha)
        mode = {"exhaustive": True, "alpha": alpha}
    else:
        plan = aff_mod.SamplingPlan(num_tasks=inst.config.num_tasks,
                                    subset_size=alpha, num_subsets=n,
                                    seed=args.seed, min_pair_coverage=1)
        theta = pl_mod.theta_closed_form(inst, aff_mod.sample_subsets(plan))
        mode = {"exhaustive": False, "alpha": alpha, "num_subsets": n, "seed": args.seed}
    gaps, global_gap = pl_mod.verify_block_structure(theta, inst.group_of)
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "per_row_gaps": [None if math.isnan(v) else v for v in gaps],
        "global_gap": global_gap,
        "pass": global_gap > 0,
        "config": dict(mode, dataset=os.path.abspath(dataset)),
    }
    out_path = os.path.join(args.out, "verify.json")
    _write_json(out_path, payload)
    _write_manifest(args.out, "verify-theory", payload["config"],
                    [os.path.join(dataset, "meta.json")], [out_path])
    return EX_OK if payload["pass"] else EX_DOMAIN


def cmd_ppr_sim(args) -> int:
    dataset, grouping_dir = _require(args.dataset, "dir"), _require(args.grouping_dir, "dir")
    g, tasks = _load_graph_and_tasks(dataset, _read_meta(dataset, "community")[0])
    groups = grp_mod.load_grouping(os.path.join(grouping_dir, "grouping.json"), tasks.num_tasks)
    within, between = ppr_group_similarity(g, tasks, groups, teleport=args.teleport)
    os.makedirs(args.out, exist_ok=True)
    report = {"within_mean": within, "between_mean": between, "teleport": args.teleport}
    out_path = os.path.join(args.out, "ppr_similarity.json")
    _write_json(out_path, report)
    _write_manifest(args.out, "ppr-sim", {"teleport": args.teleport,
                                          "dataset": os.path.abspath(dataset)},
                    [os.path.join(grouping_dir, "grouping.json")], [out_path])
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="taskaff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def seed(text):  # numpy's generators take no negative seed
        value = int(text)
        if value < 0:
            raise ValueError(f"negative seed {value}")
        return value

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=seed, default=0, help="global seed, an integer >= 0")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--config", help="JSON object of defaults keyed by flag name; flags win")

    learner = argparse.ArgumentParser(add_help=False)
    learner.add_argument("--holdout-frac", type=float, default=0.25,
                         help="planted data: share of the observed rows held out for scoring")
    learner.add_argument("--learner", default="closed-form-linear",
                         help="closed-form-linear (alias linear) or shared-encoder-mlp (mlp)")
    learner.add_argument("--metric", help="default: negative-mse if linear, else "
                                          "negative-cross-entropy")
    learner.add_argument("--hidden-width", type=int, default=64, help="MLP hidden units")
    learner.add_argument("--hidden-layers", type=int, default=1, help="MLP hidden layers")
    learner.add_argument("--learning-rate", type=float, default=0.05, help="MLP step size")
    learner.add_argument("--epochs", type=int, default=500, help="MLP training epochs")
    learner.add_argument("--ridge", type=float, default=0.0, help="linear ridge penalty")

    def command(name, handler, help, *parents):
        p = sub.add_parser(name, help=help, parents=[common, *parents], formatter_class=_Help)
        p.set_defaults(func=handler)
        return p

    p = command("generate", cmd_generate, "generate a planted instance")
    p.add_argument("--tasks", type=int, default=20, help="number of tasks T")
    p.add_argument("--groups", type=int, default=4, help="number of planted groups")
    p.add_argument("--dim", type=int, default=10, help="feature dimension")
    p.add_argument("--nodes", type=int, default=600, help="number of nodes")
    p.add_argument("--observed", type=int, default=500, help="nodes with observed labels")
    p.add_argument("--within-sep", type=float, default=0.5, help="within-group separation")
    p.add_argument("--between-sep", type=float, default=6.0, help="between-group separation")
    p.add_argument("--label-bound", type=float, default=2.0, help="bound on a label's size")
    p.add_argument("--noise-std", type=float, default=0.2, help="label noise deviation")

    p = command("split", cmd_split, "ingest a community dataset and build splits")
    p.add_argument("--edges", help="edge list; required here or in --config")
    p.add_argument("--communities", help="community file; required here or in --config")
    p.add_argument("--features", help="node-feature CSV; default: degree and a constant")
    p.add_argument("--top-k", type=int, default=100, help="largest communities kept as tasks")
    p.add_argument("--train-pos-frac", type=float, default=0.1, help="share of the community")
    p.add_argument("--train-neg-frac", type=float, default=0.1, help="share of the community")
    p.add_argument("--val-frac", type=float, default=0.2, help="share of the other nodes")
    p.add_argument("--op", default="row-normalized",
                   help="feature diffusion: row-normalized, symmetric-normalized or ppr")
    p.add_argument("--hops", type=int, default=2, help="feature diffusion hops")

    p = command("affinity", cmd_affinity, "sample subsets, train, estimate theta", learner)
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--alpha", type=int, default=10, help="subset size")
    p.add_argument("--num-subsets", type=int, default=2000, help="subsets to sample")
    p.add_argument("--min-pair-coverage", type=int, help="default: 1 if T <= 200, else 0")

    p = command("cluster", cmd_cluster, "spectral clustering of theta into groups")
    p.add_argument("--affinity-dir", required=True, help="output of affinity")
    p.add_argument("--budget", type=int, help="number of task groups; required here or in --config")

    p = command("evaluate", cmd_evaluate, "train per-group models, report the objective",
                learner)
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--grouping-dir", required=True, help="output of cluster")
    p.add_argument("--with-baseline", action="store_true", help="also score one group")

    p = command("predict-nt", cmd_predict_nt, "fit and score negative-transfer predictors",
                learner)
    p.add_argument("--dataset", required=True, help="dataset of the affinity run")
    p.add_argument("--affinity-dir", required=True, help="output of affinity")
    p.add_argument("--heldout-subsets", type=int, default=250, help="subsets to score on")
    p.add_argument("--l2", type=float, default=1e-4, help="logistic L2 penalty")

    p = command("verify-theory", cmd_verify_theory,
                "closed-form block-structure check; exits 2 when the gap check fails")
    p.add_argument("--dataset", required=True, help="planted dataset directory")
    p.add_argument("--alpha", type=int, default=5, help="subset size")
    p.add_argument("--num-subsets", type=int, default=400, help="subsets to sample")
    p.add_argument("--exhaustive", action="store_true", help="average over every subset")

    p = command("ppr-sim", cmd_ppr_sim, "within vs between group PPR cosine similarity")
    p.add_argument("--dataset", required=True, help="community dataset directory")
    p.add_argument("--grouping-dir", required=True, help="output of cluster")
    p.add_argument("--teleport", type=float, default=PPR_TELEPORT, help="PPR teleport probability")
    return parser


def main(argv=None) -> int:
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("taskaff %(levelname)s %(name)s: %(message)s"))
    package_log = logging.getLogger("taskaff")
    package_log.addHandler(handler)
    try:
        args = build_parser().parse_args(argv)
        if os.path.exists(args.out):
            _require(args.out, "dir")
        return args.func(args)
    except SystemExit as exc:  # raised by argparse for usage errors and --help
        return int(exc.code) if exc.code is not None else EX_USAGE
    except tuple(_NOINPUT) as exc:
        print(f"taskaff: {_NOINPUT[type(exc)]} {exc.filename}", file=sys.stderr)
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
    finally:
        package_log.removeHandler(handler)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

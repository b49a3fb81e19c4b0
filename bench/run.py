"""Benchmark of the taskaff pipeline, run as users run it: one CLI command
at a time, each its own ``python -m taskaff.cli`` process, one client,
closed loop, no ``--workers``.

    python3 bench/run.py --workload planted-paper --seed 1 --seconds 10 --trace 0

A run generates its inputs from ``--seed`` (untimed), runs the set-up
command, then the rest of the chain until ``--seconds`` have passed (at
least once), then the set-up again; ``setup_s`` is the median of its two
to twelve runs. It checks every output, and prints one JSON object as its last stdout line.
``--trace 1`` runs the same chain in-process through ``taskaff.cli.main``
with the public functions of every module wrapped, and prints the
per-layer metrics instead. See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_run")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import sbm  # noqa: E402
import tracing  # noqa: E402

# Set-up runs at least SETUP_MIN_REPEATS times and repeats, up to
# SETUP_MAX_REPEATS, until SETUP_MIN_S of set-up has been measured, so a
# 1-second split is sampled over a window as long as one 10-second generate
# (an 0.85 s split runs 12 times, a 2 s split 6 times, generate twice).
# Half the repeats run before the chain and the rest after it, so that the
# median straddles the CPU-speed swings of a noisy host instead of sitting
# inside one of them.
SETUP_MIN_REPEATS = 2
SETUP_MAX_REPEATS = 12
SETUP_MIN_S = 10.0
RUN_BUDGET_S = 170  # every command is killed past this point of the run
SPOT_SUBSETS = 2  # subsets re-scored by the score oracles per run

# Quality guards on planted-paper, from the acceptance criteria.
MIN_GROUP_ARI = 0.99
MIN_NT_MACRO_F1 = 0.8


@dataclass
class Step:
    """One CLI command of a chain; ``out`` holds its manifest.json."""

    label: str
    argv: list
    out: str
    ok_codes: tuple = (0,)


class Planted:
    """Paper-scale planted instance with the closed-form linear learner."""

    name = "planted-paper"
    plan_subsets = 2000
    linear = ["--learner", "linear", "--metric", "negative-mse"]

    def inputs(self, seed, work):
        return {}

    def setup(self, seed, inputs, out):
        return Step("generate", ["generate", "--tasks", "100", "--groups", "10",
                                 "--dim", "20", "--nodes", "2000", "--observed", "1500",
                                 "--seed", str(seed), "--out", out], out)

    def chain(self, seed, data, w):
        aff = ["affinity", "--dataset", data, "--alpha", "10",
               "--num-subsets", str(self.plan_subsets), *self.linear,
               "--seed", str(seed + 1), "--out", w["aff"]]
        return [
            Step("affinity", aff, w["aff"]),
            Step("affinity-rerun", aff, w["aff"]),
            Step("cluster", ["cluster", "--affinity-dir", w["aff"], "--budget", "10",
                             "--seed", str(seed + 2), "--out", w["grp"]], w["grp"]),
            Step("evaluate", ["evaluate", "--dataset", data, "--grouping-dir", w["grp"],
                              "--with-baseline", *self.linear, "--seed", str(seed + 3),
                              "--out", w["ev"]], w["ev"]),
            Step("predict-nt", ["predict-nt", "--dataset", data, "--affinity-dir", w["aff"],
                                "--heldout-subsets", "250", *self.linear,
                                "--seed", str(seed + 4), "--out", w["nt"]], w["nt"]),
            # Exit 2 means the sampled theta missed the block-structure gap;
            # at 8,000 subsets that is sampling error, recorded as theory_gap.
            Step("verify-theory", ["verify-theory", "--dataset", data, "--alpha", "10",
                                   "--num-subsets", "8000", "--seed", str(seed + 5),
                                   "--out", w["vt"]], w["vt"], ok_codes=(0, 2)),
        ]

    def check(self, taskaff, data, w, codes, report):
        problems = {
            "affinity-rerun": _guard(checks.check_theta, w["aff"]),
            "affinity": _guard(checks.check_planted_scores, taskaff, data, w["aff"],
                               SPOT_SUBSETS)
            + _guard(checks.check_finite, w["aff"]),
            "evaluate": _guard(checks.check_finite, w["aff"],
                               os.path.join(w["ev"], "evaluation.json")),
            "predict-nt": _guard(checks.check_finite, w["aff"],
                                 os.path.join(w["nt"], "transfer_f1.json")),
        }
        problems["cluster"] = _guard(self._quality, taskaff, data, w, report)
        problems["verify-theory"] = _guard(self._theory, w, codes.get("verify-theory"),
                                           report)
        return problems

    def _quality(self, taskaff, data, w, report):
        with open(os.path.join(data, "meta.json"), encoding="utf-8") as fh:
            group_of = json.load(fh)["group_of"]
        with open(os.path.join(w["grp"], "grouping.json"), encoding="utf-8") as fh:
            labels = json.load(fh)["assignments"][:len(group_of)]
        with open(os.path.join(w["ev"], "evaluation.json"), encoding="utf-8") as fh:
            ev = json.load(fh)
        with open(os.path.join(w["nt"], "transfer_f1.json"), encoding="utf-8") as fh:
            nt = json.load(fh)
        report["group_ari"] = taskaff.grouping.adjusted_rand_index(labels, group_of)
        report["nt_macro_f1"] = nt["macro_f1"]
        report["grouping_gain"] = ev["objective"] - ev["baseline_objective"]
        problems = []
        if report["group_ari"] < MIN_GROUP_ARI:
            problems.append(f"group_ari {report['group_ari']} < {MIN_GROUP_ARI}")
        if report["nt_macro_f1"] < MIN_NT_MACRO_F1:
            problems.append(f"nt_macro_f1 {report['nt_macro_f1']} < {MIN_NT_MACRO_F1}")
        if not report["grouping_gain"] > 0:
            problems.append(f"grouping_gain {report['grouping_gain']} <= 0")
        return problems

    def _theory(self, w, code, report):
        with open(os.path.join(w["vt"], "verify.json"), encoding="utf-8") as fh:
            verify = json.load(fh)
        report["theory_gap"] = verify["global_gap"]
        if (code == 0) != verify["pass"]:
            return [f"verify-theory exit {code} disagrees with pass={verify['pass']}"]
        return []


class Community:
    """Generated SBM community data, MLP learner, PPR similarity."""

    def __init__(self, name, graph, split, affinity, budget):
        self.name, self.graph, self.split_flags = name, graph, split
        self.affinity_flags, self.budget = affinity, budget
        self.plan_subsets = int(affinity[affinity.index("--num-subsets") + 1])

    def inputs(self, seed, work):
        return sbm.generate(self.graph, seed, os.path.join(work, "inputs"))

    def setup(self, seed, inputs, out):
        return Step("split", ["split", "--edges", inputs["edges"],
                              "--communities", inputs["communities"],
                              "--features", inputs["features"], *self.split_flags,
                              "--seed", str(seed), "--out", out], out)

    def chain(self, seed, data, w):
        return [
            Step("affinity", ["affinity", "--dataset", data, *self.affinity_flags,
                              "--learner", "mlp", "--seed", str(seed + 1),
                              "--out", w["aff"]], w["aff"]),
            Step("cluster", ["cluster", "--affinity-dir", w["aff"],
                             "--budget", str(self.budget), "--seed", str(seed + 2),
                             "--out", w["grp"]], w["grp"]),
            Step("evaluate", ["evaluate", "--dataset", data, "--grouping-dir", w["grp"],
                              "--learner", "mlp", "--seed", str(seed + 3),
                              "--out", w["ev"]], w["ev"]),
            Step("ppr-sim", ["ppr-sim", "--dataset", data, "--grouping-dir", w["grp"],
                             "--seed", str(seed + 4), "--out", w["ppr"]], w["ppr"]),
        ]

    def check(self, taskaff, data, w, codes, report):
        return {
            "affinity": _guard(checks.check_theta, w["aff"])
            + _guard(checks.check_community_scores, taskaff, data, w["aff"], SPOT_SUBSETS)
            + _guard(checks.check_finite, w["aff"]),
            "evaluate": _guard(checks.check_finite, w["aff"],
                               os.path.join(w["ev"], "evaluation.json")),
            "ppr-sim": _guard(checks.check_finite, w["aff"],
                              os.path.join(w["ppr"], "ppr_similarity.json")),
        }


WORKLOADS = {
    w.name: w for w in (
        Planted(),
        Community(
            "community-mlp",
            # Half the 20k-node graph of the ROADMAP baseline, so three
            # workloads fit the time budget; MLP cost per subset is the same.
            sbm.SbmConfig(num_nodes=10_000, num_blocks=50, num_edges=100_000),
            split=["--top-k", "50", "--op", "row-normalized"],
            affinity=["--alpha", "10", "--num-subsets", "16", "--min-pair-coverage", "0"],
            budget=10,
        ),
        Community(
            "community-ppr",
            sbm.SbmConfig(num_nodes=4_000, num_blocks=20, num_edges=40_000),
            split=["--top-k", "20", "--op", "ppr", "--hops", "2"],
            affinity=["--alpha", "5", "--num-subsets", "8", "--min-pair-coverage", "0"],
            budget=4,
        ),
    )
}

END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB")]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer, names in tracing.LAYERS.items():
        for fn in names:
            spec += [(f"{layer}.{fn}.s", "s", "lower"), (f"{layer}.{fn}.self_s", "s", "lower"),
                     (f"{layer}.{fn}.calls", "count", "lower")]
    for command in tracing.CLI_COMMANDS.values():
        spec += [(f"cli.{command}.s", "s", "lower"), (f"cli.{command}.self_s", "s", "lower")]
    spec += [
        ("cli.affinity.subsets_per_s", "1/s", "higher"),
        ("learners.train_subset.call_p50_s", "s", "lower"),
        ("learners.train_subset.call_tail_s", "s", "lower"),
        ("learners.train_subset.call_tail_pct", "%", "higher"),
        ("learners.nonmonotone_models", "count", "lower"),
        ("affinity.extra_draws", "count", "lower"),
        ("affinity.imputed_pairs", "count", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return spec


def _guard(fn, *args):
    """Run one check; an exception (say, a missing output) is a problem too."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any crash means the output is wrong
        return [f"{fn.__name__} raised {type(exc).__name__}: {exc}"]


class Runner:
    """Runs steps as subprocesses, keeping wall time, exit code and peak RSS."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def run(self, step):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "taskaff.cli", *step.argv],
                                env=self.env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


class InProcess:
    """Runs steps through taskaff.cli.main in this process."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, step):
        start = time.perf_counter()
        try:
            code = self.cli.main(step.argv)
        except Exception:  # noqa: BLE001 - the subprocess would have died too
            traceback.print_exc()
            code = 1
        return code, time.perf_counter() - start, 0.0


def chain_dirs(base):
    return {k: os.path.join(base, k) for k in ("aff", "grp", "ev", "nt", "vt", "ppr")}


class Ledger:
    """Steps attempted and the problems found per step."""

    def __init__(self):
        self.attempted = 0
        self.problems = {}

    def ran(self, label, ok, code):
        self.attempted += 1
        if not ok:
            self.add(label, [f"exit code {code}"])
        return ok

    def add(self, label, problems):
        if problems:
            self.problems.setdefault(label, []).extend(problems)

    @property
    def failed(self):
        return len(self.problems)


def run_chain(runner, steps, ledger, tag):
    """Run steps in order, stopping at the first unexpected exit. Returns
    per-step (code, wall, rss), manifest artifact hashes, and whether every
    step exited as expected."""
    results, hashes = {}, {}
    for step in steps:
        code, wall, rss = runner.run(step)
        results[step.label] = (code, wall, rss)
        if not ledger.ran(step.label + tag, code in step.ok_codes, code):
            return results, hashes, False
        hashes[step.label] = _guard(checks.manifest_artifacts, step.out)
    return results, hashes, True


def compare_hashes(ledger, label, first, other):
    if first != other:
        ledger.add(label, [f"artifact hashes differ from the first run: {other}"])


def compare_runs(ledger, first, other, tag):
    """Same step, same inputs: every manifest lists the same artifact hashes."""
    for label, hashes in other.items():
        compare_hashes(ledger, label + tag, first.get(label), hashes)


def measure(workload, seed, seconds, work, taskaff):
    deadline = time.monotonic() + RUN_BUDGET_S
    runner = Runner(deadline)
    ledger = Ledger()
    inputs = workload.inputs(seed, work)

    setup_walls, rss, setup_hashes = [], [], []

    def run_setups(until_s, min_count, max_count):
        while len(setup_walls) < min_count or (
                sum(setup_walls) < until_s and len(setup_walls) < max_count):
            r = len(setup_walls)
            step = workload.setup(seed, inputs, os.path.join(work, f"setup{r}"))
            res, hashes, _ = run_chain(runner, [step], ledger, f"#{r}")
            _, wall, peak = res[step.label]
            setup_walls.append(wall)
            rss.append(peak)
            if step.label in hashes:
                setup_hashes.append(hashes[step.label])

    run_setups(SETUP_MIN_S / 2, 1, SETUP_MAX_REPEATS // 2)
    data = os.path.join(work, "setup0")

    pipeline, first = [], None
    start = time.perf_counter()
    rep = 0
    while rep == 0 or (time.perf_counter() - start < seconds
                       and time.monotonic() < deadline - 2 * sum(pipeline) / rep):
        w = chain_dirs(os.path.join(work, f"chain{rep}"))
        steps = workload.chain(seed, data, w)
        results, hashes, complete = run_chain(runner, steps, ledger,
                                              "" if rep == 0 else f"#{rep}")
        rss += [r[2] for r in results.values()]
        pipeline.append(sum(r[1] for r in results.values()))
        if rep == 0:
            first, first_w, first_complete = hashes, w, complete
            codes = {k: r[0] for k, r in results.items()}
        else:
            compare_runs(ledger, first, hashes, f"#{rep}")
        rep += 1
        if ledger.failed:
            break
    run_setups(SETUP_MIN_S, SETUP_MIN_REPEATS, SETUP_MAX_REPEATS)
    for r, h in enumerate(setup_hashes[1:], start=1):
        compare_hashes(ledger, f"setup#{r}", setup_hashes[0], h)
    if "affinity" in first and "affinity-rerun" in first:
        compare_hashes(ledger, "affinity-rerun", first["affinity"], first["affinity-rerun"])

    report = {"chain_repetitions": rep}
    if first_complete:  # a broken chain has already failed; its outputs are partial
        for label, problems in workload.check(taskaff, data, first_w, codes, report).items():
            ledger.add(label, problems)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "pipeline_s": statistics.median(pipeline),
        "peak_rss_mb": max(rss),
    }
    return ledger, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, report


def trace(workload, seed, work, taskaff):
    """Traced setup, then the chain untraced and traced, all in-process."""
    import taskaff.cli as cli

    ledger = Ledger()
    runner = InProcess(cli)
    inputs = workload.inputs(seed, work)
    tracer = tracing.Tracer()
    step = workload.setup(seed, inputs, os.path.join(work, "setup0"))
    tracer.install("taskaff")
    try:
        run_chain(runner, [step], ledger, "#setup")
    finally:
        tracer.uninstall()
    data = step.out

    w = chain_dirs(os.path.join(work, "untraced"))
    untraced, untraced_hashes, _ = run_chain(runner, workload.chain(seed, data, w),
                                             ledger, "#untraced")
    w = chain_dirs(os.path.join(work, "traced"))
    tracer.install("taskaff")
    try:
        results, hashes, complete = run_chain(runner, workload.chain(seed, data, w),
                                              ledger, "")
    finally:
        tracer.uninstall()
    compare_runs(ledger, untraced_hashes, hashes, "")
    codes = {k: r[0] for k, r in results.items()}
    report = {}
    if complete:
        for label, problems in workload.check(taskaff, data, w, codes, report).items():
            ledger.add(label, problems)

    per_fn, extra, counters = tracer.metrics()
    values = dict(extra)
    for name, m in per_fn.items():
        for key, v in m.items():
            values[f"{name}.{key}"] = v
    values["learners.nonmonotone_models"] = counters["nonmonotone_models"]
    values["affinity.extra_draws"] = counters["extra_draws"]
    values["affinity.imputed_pairs"] = counters["imputed_pairs"]
    values["trace.overhead"] = (sum(r[1] for r in results.values())
                                / sum(r[1] for r in untraced.values()))
    values["cli.affinity.subsets_per_s"] = workload.plan_subsets / untraced["affinity"][1]
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit, _ in per_layer_spec()}
    return ledger, metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "taskaff", "cli.py")):
        print(f"bench: no taskaff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import taskaff.graphs  # noqa: F401 - make the submodules attributes
    import taskaff.grouping  # noqa: F401
    import taskaff.learners  # noqa: F401
    import taskaff.planted  # noqa: F401
    import taskaff.tasks  # noqa: F401
    import taskaff

    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            ledger, metrics, report = trace(workload, args.seed, work, taskaff)
        else:
            ledger, metrics, report = measure(workload, args.seed, args.seconds, work,
                                              taskaff)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in report.items():
        print(f"{name:40s} {value!r}")
    for label, problems in sorted(ledger.problems.items()):
        for p in problems[:5]:
            print(f"FAILED {label}: {p}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import csv
import json
import multiprocessing
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from taskaff import cli, graphs, grouping
from tests.conftest import cut_evals, save_edge_list, two_block_graph
from tests.test_pool import fail_on, pooled, raise_training_error


def run(argv):
    return cli.main(argv)


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this taskaff and the
    bench's modules; it fails the test unless it exits 0."""
    import os
    import subprocess
    import sys

    import taskaff
    src = os.path.dirname(os.path.dirname(taskaff.__file__))
    bench = os.path.join(os.path.dirname(src), "bench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, bench]))
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# A small bench SBM dataset: generates its inputs into directory d.
SBM_INPUTS = (
    "import sbm\n"
    "paths = sbm.generate(sbm.SbmConfig(num_nodes=300, num_blocks=6, min_block=20,"
    " max_block=80, num_edges=2400, feature_dim=4), 3, d)\n"
    "split = ['split', '--edges', paths['edges'], '--communities', paths['communities'],"
    " '--features', paths['features'], '--top-k', '6', '--seed', '1']\n"
)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def npz_arrays(path):
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


AFFINITY = ["--alpha", "4", "--num-subsets", "120", "--learner", "linear",
            "--metric", "negative-mse", "--seed", "2"]

GEN = ["generate", "--tasks", "12", "--groups", "3", "--dim", "8", "--nodes", "150",
       "--observed", "120", "--within-sep", "0.3", "--between-sep", "5.0",
       "--label-bound", "2.0", "--noise-std", "0.25"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated instance with affinity artifacts shared by read tests."""
    root = tmp_path_factory.mktemp("pipeline")
    inst_dir = str(root / "inst")
    aff_dir = str(root / "aff")
    assert run(GEN + ["--seed", "1", "--out", inst_dir]) == 0
    assert run(["affinity", "--dataset", inst_dir, *AFFINITY, "--out", aff_dir]) == 0
    return root, inst_dir, aff_dir


class TestGenerate:
    def test_deterministic_outputs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(GEN + ["--seed", "3", "--out", a]) == 0
        assert run(GEN + ["--seed", "3", "--out", b]) == 0
        for name in ("instance.npz", "meta.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_missing_required_flag_usage_error(self, capsys):
        assert run(["generate", "--tasks", "5"]) == 64  # --out missing

    def test_unknown_command_usage_error(self):
        assert run(["frobnicate", "--out", "x"]) == 64

    def test_meta_separations_consistent(self, pipeline):
        _, inst_dir, _ = pipeline
        meta = read_json(inst_dir + "/meta.json")
        assert meta["achieved_within"] <= meta["config"]["within_sep"] + 1e-9
        assert meta["achieved_between"] >= meta["config"]["between_sep"] - 1e-9

    def test_generation_error_exit_code(self, tmp_path):
        code = run(["generate", "--tasks", "6", "--groups", "2", "--dim", "4",
                    "--nodes", "60", "--observed", "50", "--within-sep", "0.0",
                    "--between-sep", "80.0", "--label-bound", "0.01",
                    "--noise-std", "0.0", "--seed", "0",
                    "--out", str(tmp_path / "bad")])
        assert code == 2


    def test_memory_error_exit_2_without_traceback(self, tmp_path, monkeypatch, capsys):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 30.0 GiB for an array")

        monkeypatch.setattr(cli.pl_mod, "generate", exhausted)
        capsys.readouterr()
        assert run(GEN + ["--seed", "1", "--out", str(tmp_path / "g")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["taskaff: out of memory: Unable to allocate 30.0 GiB for an array"]


class TestSettingsThatCannotTrain:
    """A learner or planted setting under which nothing could train, or no
    instance could be drawn, exits 2 with one line before any --out."""

    @pytest.mark.parametrize("flags,fragment", [
        (["--ridge", "nan"], "ridge must lie in [0, inf), got nan"),
        (["--ridge", "inf"], "ridge must lie in [0, inf), got inf"),
        (["--learner", "mlp", "--learning-rate", "nan"],
         "learning_rate must lie in (0, inf), got nan"),
        (["--learner", "mlp", "--learning-rate", "0"],
         "learning_rate must lie in (0, inf), got 0.0"),
    ], ids=["ridge-nan", "ridge-inf", "learning-rate-nan", "learning-rate-0"])
    def test_affinity_refuses_learner(self, tmp_path, pipeline, capsys, flags, fragment):
        _, inst_dir, _ = pipeline
        out = tmp_path / "aff"
        capsys.readouterr()
        assert run(["affinity", "--dataset", inst_dir, *AFFINITY, *flags,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"taskaff: {fragment}"]
        assert not out.exists()

    @pytest.mark.parametrize("flags,fragment", [
        (["--label-bound", "nan"], "label_bound must lie in (0, inf), got nan"),
        (["--noise-std", "nan"], "noise_std must lie in [0, inf), got nan"),
        (["--between-sep", "inf"], "need 0 <= within_sep < between_sep < inf, got 0.3 and inf"),
        (["--within-sep", "nan"], "need 0 <= within_sep < between_sep < inf, got nan and 5.0"),
    ], ids=["label-bound-nan", "noise-std-nan", "between-sep-inf", "within-sep-nan"])
    def test_generate_refuses_non_finite(self, tmp_path, capsys, flags, fragment):
        out = tmp_path / "inst"
        capsys.readouterr()
        assert run(GEN + flags + ["--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"taskaff: {fragment}"]
        assert not out.exists()


class TestAffinity:
    def test_single_subset_log(self, tmp_path, pipeline):
        _, inst_dir, _ = pipeline
        out = str(tmp_path / "aff1")
        assert run(["affinity", "--dataset", inst_dir, "--alpha", "4",
                    "--num-subsets", "1", "--min-pair-coverage", "0",
                    "--learner", "linear", "--metric", "negative-mse",
                    "--seed", "5", "--out", out]) == 0
        lines = (tmp_path / "aff1" / "evals.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + one subset's four member rows

    def test_idempotent_rerun(self, pipeline, monkeypatch):
        root, inst_dir, aff_dir = pipeline
        import hashlib, os

        def digest():
            out = {}
            for name in sorted(os.listdir(aff_dir)):
                with open(os.path.join(aff_dir, name), "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
            return out

        def no_rewrite(*args, **kwargs):
            raise AssertionError("a complete log is not rewritten")

        before = digest()
        monkeypatch.setattr(cli.aff_mod, "save_eval_log", no_rewrite)
        assert run(["affinity", "--dataset", inst_dir, "--alpha", "4",
                    "--num-subsets", "120", "--learner", "linear",
                    "--metric", "negative-mse", "--seed", "2",
                    "--out", aff_dir]) == 0
        assert digest() == before

    def test_complete_rerun_reads_no_dataset(self, tmp_path, pipeline, monkeypatch):
        # T comes from meta.json; the fingerprint still hashes the dataset files
        import shutil

        _, inst_dir, aff_dir = pipeline
        rerun = tmp_path / "rerun"
        shutil.copytree(aff_dir, rerun)
        before = {p.name: p.read_bytes() for p in rerun.iterdir()}

        def no_load(*args, **kwargs):
            raise AssertionError("a complete log needs no dataset")

        monkeypatch.setattr(cli, "_load_dataset", no_load)
        assert run(["affinity", "--dataset", inst_dir, "--alpha", "4",
                    "--num-subsets", "120", "--learner", "linear",
                    "--metric", "negative-mse", "--seed", "2",
                    "--out", str(rerun)]) == 0
        assert {p.name: p.read_bytes() for p in rerun.iterdir()} == before

    def test_pending_subsets_still_load_the_dataset(self, tmp_path, pipeline, monkeypatch):
        import os
        import shutil

        _, inst_dir, aff_dir = pipeline
        resumed = tmp_path / "resumed"
        shutil.copytree(aff_dir, resumed)
        cut_evals(resumed, 40)
        loads = []
        real = cli._load_dataset
        monkeypatch.setattr(cli, "_load_dataset", lambda *a: loads.append(a) or real(*a))
        assert run(["affinity", "--dataset", inst_dir, "--alpha", "4",
                    "--num-subsets", "120", "--learner", "linear",
                    "--metric", "negative-mse", "--seed", "2",
                    "--out", str(resumed)]) == 0
        assert len(loads) == 1
        for name in ("evals.csv", "theta.csv", "counts.csv"):
            assert (resumed / name).read_bytes() == \
                   Path(aff_dir, name).read_bytes()

    def test_resume_after_kill_matches_clean_run(self, tmp_path, pipeline):
        _, inst_dir, aff_dir = pipeline
        import os
        import shutil

        resumed = str(tmp_path / "resumed")
        shutil.copytree(aff_dir, resumed)
        cut_evals(resumed, 40, 2)  # a kill while subset 40's rows were written
        os.remove(os.path.join(resumed, "theta.csv"))
        assert run(["affinity", "--dataset", inst_dir, "--alpha", "4",
                    "--num-subsets", "120", "--learner", "linear",
                    "--metric", "negative-mse", "--seed", "2",
                    "--out", resumed]) == 0
        for name in ("evals.csv", "subsets.json", "theta.csv",
                     "counts.csv", "affinity.json", "convergence.csv",
                     "manifest.json"):
            assert (tmp_path / "resumed" / name).read_bytes() == \
                   Path(aff_dir, name).read_bytes(), name

    def test_defaults_match_published_settings(self):
        args = cli.build_parser().parse_args(["affinity", "--dataset", "x", "--out", "y"])
        assert args.alpha == 10
        assert args.num_subsets == 2000

    @pytest.mark.parametrize("change", ["seed", "learner", "dataset"])
    def test_rerun_with_different_plan_refused(self, tmp_path, pipeline, change):
        _, inst_dir, aff_dir = pipeline
        import os
        import shutil

        out = str(tmp_path / "aff")
        shutil.copytree(aff_dir, out)
        argv = {"seed": "2", "ridge": "0.0", "dataset": inst_dir}
        if change == "seed":
            argv["seed"] = "3"
        elif change == "learner":
            argv["ridge"] = "0.5"
        else:
            argv["dataset"] = str(tmp_path / "other")
            assert run(GEN + ["--seed", "9", "--out", argv["dataset"]]) == 0
        before = {n: Path(out, n).read_bytes() for n in os.listdir(out)}
        assert run(["affinity", "--dataset", argv["dataset"], "--alpha", "4",
                    "--num-subsets", "120", "--learner", "linear",
                    "--metric", "negative-mse", "--ridge", argv["ridge"],
                    "--seed", argv["seed"], "--out", out]) == 2
        after = {n: Path(out, n).read_bytes() for n in os.listdir(out)}
        assert after == before

    @pytest.mark.parametrize("argv", [["affinity", "--min-pair-coverage", "1"],
                                      ["verify-theory"]], ids=["affinity", "verify-theory"])
    def test_unreachable_coverage_exit_2_naming_a_pair(self, tmp_path, pipeline, capsys,
                                                       argv):
        # the 10x cap allows 10 draws of 2 of 12 tasks: at most 10 of 66 pairs covered
        _, inst_dir, _ = pipeline
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(argv + ["--dataset", inst_dir, "--alpha", "2", "--num-subsets", "1",
                           "--seed", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and re.fullmatch(
            r"taskaff: pair coverage 1 unreachable within 10 subsets: (5[6-9]|6[0-5]) pairs "
            r"uncovered, first \(\d+, \d+\)", err[0]), err
        assert not out.exists()


class TestClusterEvaluate:
    def test_budget_one_single_group(self, tmp_path, pipeline):
        _, _, aff_dir = pipeline
        out = str(tmp_path / "c1")
        assert run(["cluster", "--affinity-dir", aff_dir, "--budget", "1",
                    "--seed", "0", "--out", out]) == 0
        grp = read_json(out + "/grouping.json")
        assert grp["groups"] == [list(range(12))]

    def test_default_budget_is_twenty(self):
        args = cli.build_parser().parse_args(["cluster", "--affinity-dir", "x", "--out", "y"])
        assert args.budget == 20

    def test_missing_upstream_exit_66(self, tmp_path):
        assert run(["cluster", "--affinity-dir", str(tmp_path / "nope"),
                    "--budget", "2", "--seed", "0",
                    "--out", str(tmp_path / "c")]) == 66

    def test_full_pipeline_recovers_planted_groups(self, tmp_path, pipeline):
        _, inst_dir, aff_dir = pipeline
        clus = str(tmp_path / "clus")
        assert run(["cluster", "--affinity-dir", aff_dir, "--budget", "3",
                    "--seed", "4", "--out", clus]) == 0
        grp = read_json(clus + "/grouping.json")
        meta = read_json(inst_dir + "/meta.json")
        truth = meta["group_of"]
        # each derived group must be exactly one planted group
        got = {tuple(sorted(g)) for g in grp["groups"]}
        expected = set()
        for gid in set(truth):
            expected.add(tuple(i for i, t in enumerate(truth) if t == gid))
        assert got == expected
        # evaluate: grouped objective beats the naive baseline
        ev = str(tmp_path / "eval")
        assert run(["evaluate", "--dataset", inst_dir, "--grouping-dir", clus,
                    "--with-baseline", "--seed", "0", "--out", ev]) == 0
        report = read_json(ev + "/evaluation.json")
        assert report["objective"] >= report["baseline_objective"]
        assert len(report["per_task_scores"]) == 12

    def test_baseline_is_the_budget_one_grouping(self, tmp_path, pipeline):
        _, inst_dir, aff_dir = pipeline
        objectives = []
        for budget, extra in (("3", ["--with-baseline"]), ("1", [])):
            clus, ev = str(tmp_path / f"clus{budget}"), str(tmp_path / f"eval{budget}")
            assert run(["cluster", "--affinity-dir", aff_dir, "--budget", budget,
                        "--seed", "4", "--out", clus]) == 0
            assert run(["evaluate", "--dataset", inst_dir, "--grouping-dir", clus,
                        "--seed", "0", "--out", ev] + extra) == 0
            objectives.append(read_json(ev + "/evaluation.json"))
        assert objectives[0]["baseline_objective"] == objectives[1]["objective"]

    @pytest.mark.parametrize("group", [[2, 99], [-1, 0]])
    def test_evaluate_task_id_out_of_range_exit_2_before_any_training(
            self, tmp_path, pipeline, monkeypatch, capsys, group):
        # T = 12: id 99 is past the last task, and -1 would index the last one;
        # before the check, group [0, 1] trained before the refusal
        _, inst_dir, _ = pipeline
        gdir = tmp_path / "grp"
        gdir.mkdir()
        grouping.save_grouping([[0, 1], group], np.zeros(24, dtype=np.int64), 2,
                               gdir / "grouping.json")

        def no_training(*args, **kwargs):
            raise AssertionError("a group was trained before the ids were checked")

        monkeypatch.setattr(cli.learners, "train_subset", no_training)
        capsys.readouterr()
        out = tmp_path / "eval"
        assert run(["evaluate", "--dataset", inst_dir, "--grouping-dir", str(gdir),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"taskaff: task id out of range in subset {group}"]
        assert not out.exists()

    def test_evaluate_empty_group_exit_2_before_any_training(self, tmp_path, pipeline,
                                                             monkeypatch, capsys):
        # before the check, group [0, 1] trained and the refusal named neither
        # the file nor the group
        _, inst_dir, _ = pipeline
        gdir, out = tmp_path / "grp", tmp_path / "eval"
        gdir.mkdir()
        grouping.save_grouping([[0, 1], [], list(range(2, 12))], np.zeros(24, dtype=np.int64),
                               3, gdir / "grouping.json")
        monkeypatch.setattr(cli.learners, "train_subset", no_training)
        capsys.readouterr()
        assert run(["evaluate", "--dataset", inst_dir, "--grouping-dir", str(gdir),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"taskaff: {gdir / 'grouping.json'}: group 1 is empty"]
        assert not out.exists()


class TestHoldoutWithoutTrainingRows:
    # 3 observed rows at --holdout-frac 0.4: 2 val rows and 1 test row. The
    # linear learner used to fit on no rows and exit 0, and the MLP to exit 3
    # and leave a log that failed again on every resume.
    @pytest.mark.parametrize("argv", [
        ["affinity", "--alpha", "2", "--num-subsets", "10"],
        ["affinity", "--alpha", "2", "--num-subsets", "10", "--learner", "mlp", "--epochs", "5"],
        ["evaluate", "--grouping-dir", "GROUPS"],
    ])
    def test_exit_2_with_one_line_and_no_output(self, tmp_path, capsys, argv):
        inst, gdir, out = tmp_path / "inst", tmp_path / "grp", tmp_path / "out"
        assert run(["generate", "--tasks", "4", "--groups", "2", "--dim", "2", "--nodes", "12",
                    "--observed", "3", "--within-sep", "0.1", "--between-sep", "1",
                    "--seed", "1", "--out", str(inst)]) == 0
        gdir.mkdir()
        grouping.save_grouping([[0, 1], [2, 3]], np.array([0, 0, 1, 1] * 2), 2,
                               gdir / "grouping.json")
        capsys.readouterr()
        argv = [str(gdir) if a == "GROUPS" else a for a in argv]
        assert run(argv + ["--dataset", str(inst), "--holdout-frac", "0.4",
                           "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "taskaff: holdout_frac 0.4 holds out all 3 observed rows, leaving none to train on"]
        assert not out.exists()


def _as_p_triplets(arrays):
    """Rewrite instance.npz's arrays as the format that stored X and P's triplets."""
    n, d = arrays.pop("design").shape
    del arrays["observed_design"]
    arrays.update(features=np.ones((n, d)), p_row=np.arange(n), p_col=np.arange(n),
                  p_val=np.ones(n))


class TestVerifyTheory:
    def test_sampled_gap_report(self, tmp_path, pipeline):
        _, inst_dir, _ = pipeline
        out = str(tmp_path / "ver")
        assert run(["verify-theory", "--dataset", inst_dir, "--alpha", "4",
                    "--num-subsets", "150", "--seed", "5", "--out", out]) == 0
        rep = read_json(out + "/verify.json")
        assert rep["pass"] is True
        assert rep["global_gap"] > 0
        assert len(rep["per_row_gaps"]) == 12

    @pytest.mark.parametrize("num_subsets,code", [("30", 2), ("400", 0)])
    def test_exit_2_exactly_when_the_gap_is_not_positive(self, tmp_path, num_subsets, code):
        # global gap -0.026 from 30 subsets, +0.019 from 400; verify.json is written either way
        inst, out = str(tmp_path / "inst"), str(tmp_path / "ver")
        assert run(["generate", "--tasks", "12", "--groups", "3", "--dim", "8", "--nodes", "150",
                    "--observed", "120", "--seed", "1", "--out", inst]) == 0
        assert run(["verify-theory", "--dataset", inst, "--alpha", "4", "--seed", "5",
                    "--num-subsets", num_subsets, "--out", out]) == code
        rep = read_json(out + "/verify.json")
        assert rep["pass"] is (code == 0)
        assert (rep["global_gap"] > 0) is rep["pass"]
        assert read_json(out + "/manifest.json")["command"] == "verify-theory"

    def test_nan_features_exit_2_without_traceback(self, tmp_path, pipeline, capsys):
        _, inst_dir, _ = pipeline
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(inst_dir, bad)
        arrays = npz_arrays(bad / "instance.npz")
        arrays["observed_design"][0, 0] = np.nan
        np.savez(bad / "instance.npz", **arrays)
        capsys.readouterr()
        assert run(["verify-theory", "--dataset", str(bad), "--alpha", "4",
                    "--num-subsets", "150", "--seed", "5",
                    "--out", str(tmp_path / "ver")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: ")

    def test_group_of_shorter_than_tasks_exit_2(self, tmp_path, capsys):
        # verify_block_structure would stop on a broadcast ValueError traceback
        inst = tmp_path / "inst"
        assert run(["generate", "--tasks", "6", "--groups", "2", "--dim", "4", "--nodes", "60",
                    "--observed", "50", "--seed", "1", "--out", str(inst)]) == 0
        meta = read_json(inst / "meta.json")
        meta["group_of"].pop()
        (inst / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert run(["verify-theory", "--dataset", str(inst), "--alpha", "3",
                    "--num-subsets", "40", "--out", str(tmp_path / "ver")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: ")
        assert "group_of holds 5 groups for 6 tasks" in err[0]
        assert not (tmp_path / "ver").exists()

    # fragment); the fixture instance has N=150 nodes, m=120 observed rows,
    # T=12 tasks and d=8 features
    MALFORMED = {
        "missing-array": (lambda a: a.pop("labels"), "'labels is not a file in the archive'"),
        "ragged-features-row": (lambda a: a.update(design=np.array(
            [np.append(a["design"][0], 1.0), *a["design"][1:]], dtype=object)),
                                "Object arrays cannot be loaded"),
        "non-numeric-features-row": (lambda a: a.update(
            observed_design=a["observed_design"].astype(str)), "observed_design is <U"),
        "ragged-labels-row": (lambda a: a.update(labels=np.array(
            [*a["labels"][:-1], np.array([1.0, 2.0])], dtype=object)),
                              "Object arrays cannot be loaded"),
        "non-numeric-labels-row": (lambda a: a.update(labels=a["labels"].astype(str)),
                                   "labels is <U"),
        "features-missing-node": (lambda a: a.update(design=a["design"][:-1]),
                                  "design is float64 of shape (149, 8), "
                                  "expected float64 of shape (150, 8)"),
        "features-extra-column": (lambda a: a.update(observed_design=np.hstack(
            [a["observed_design"], np.zeros((120, 1))])),
                                  "shape (120, 9), expected float64 of shape (120, 8)"),
        "observed-design-missing-row": (lambda a: a.update(
            observed_design=a["observed_design"][:-1]),
                                        "observed_design is float64 of shape (119, 8), "
                                        "expected float64 of shape (120, 8)"),
        "legacy-p-triplets": (_as_p_triplets, "holds P as triplets, a format no longer read"),
        "labels-missing-task": (lambda a: a.update(labels=a["labels"][:-1]),
                                "shape (11, 150), expected float64 of shape (12, 150)"),
        "labels-transposed": (lambda a: a.update(labels=a["labels"].T),
                              "shape (150, 12), expected float64 of shape (12, 150)"),
        "truncated": (lambda b: b[:len(b) // 2], "BadZipFile: File is not a zip file"),
        "crc-damaged": (lambda b: b[:len(b) // 2] + bytes([b[len(b) // 2] ^ 0xFF])
                        + b[len(b) // 2 + 1:], "BadZipFile: Bad CRC-32"),
        "empty": (lambda b: b"", "EOFError"),
        "garbage": (lambda b: b"not an npz\n" * 10, "ValueError"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_planted_file_exit_2(self, tmp_path, pipeline, capsys, case):
        import shutil

        _, inst_dir, _ = pipeline
        edit, fragment = self.MALFORMED[case]
        bad = tmp_path / "bad"
        shutil.copytree(inst_dir, bad)
        path = bad / "instance.npz"
        if case in ("truncated", "crc-damaged", "empty", "garbage"):
            path.write_bytes(edit(path.read_bytes()))
        else:
            arrays = npz_arrays(path)
            edit(arrays)
            np.savez(path, **arrays)
        capsys.readouterr()
        assert run(["verify-theory", "--dataset", str(bad), "--alpha", "4",
                    "--num-subsets", "150", "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: ") and str(path) in err[0], err
        assert fragment in err[0]

    def assert_csv_instance_refused(self, tmp_path, pipeline, capsys, files):
        import shutil

        _, inst_dir, _ = pipeline
        old = tmp_path / "old"
        shutil.copytree(inst_dir, old)
        (old / "instance.npz").unlink()
        for name in files:
            (old / name).write_text("0,0,1\n")
        capsys.readouterr()
        assert run(["verify-theory", "--dataset", str(old), "--alpha", "4",
                    "--num-subsets", "150", "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "re-run generate" in err[0]

    def test_dense_pg_csv_instance_exit_2(self, tmp_path, pipeline, capsys):
        # instances written before P was stored as sparse triplets
        self.assert_csv_instance_refused(tmp_path, pipeline, capsys,
                                         ("features.csv", "pg.csv", "labels.csv"))

    def test_coo_csv_instance_exit_2(self, tmp_path, pipeline, capsys):
        # instances written before instance.npz
        self.assert_csv_instance_refused(tmp_path, pipeline, capsys,
                                         ("features.csv", "pg_coo.csv", "labels.csv"))

    def test_planted_commands_do_not_import_scipy(self, tmp_path):
        # scipy.sparse serves the PPR paths only; the planted chain starts
        # one process per command and should not pay for its import
        run_python(
            "import taskaff.cli as cli\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            f"assert cli.main({GEN + ['--seed', '1', '--out', str(tmp_path / 'i')]!r}) == 0\n"
            f"assert cli.main(['verify-theory', '--dataset', {str(tmp_path / 'i')!r},"
            f" '--alpha', '4', '--num-subsets', '150', '--out', {str(tmp_path / 'v')!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'verify-theory'\n"
        )

    def test_exhaustive_mode(self, tmp_path, pipeline):
        _, inst_dir, _ = pipeline
        out = str(tmp_path / "verx")
        assert run(["verify-theory", "--dataset", inst_dir, "--alpha", "3",
                    "--exhaustive", "--seed", "0", "--out", out]) == 0
        assert read_json(out + "/verify.json")["config"]["exhaustive"] is True

    def test_community_dataset_rejected(self, tmp_path):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "meta.json").write_text('{"kind": "community"}')
        assert run(["verify-theory", "--dataset", str(ds), "--out",
                    str(tmp_path / "v")]) == 2


class TestDatasetMeta:
    @pytest.mark.parametrize("command", ["affinity", "evaluate", "predict-nt"])
    @pytest.mark.parametrize("meta", ["{}", '{"kind": "dense"}', "[1]"])
    def test_meta_without_known_kind_exit_2(self, tmp_path, pipeline, capsys, command, meta):
        _, _, aff_dir = pipeline
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "meta.json").write_text(meta)
        extra = {"affinity": [], "evaluate": ["--grouping-dir", str(tmp_path)],
                 "predict-nt": ["--affinity-dir", aff_dir]}[command]
        capsys.readouterr()
        assert run([command, "--dataset", str(ds), *extra, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: ") and "meta.json" in err[0]

    @pytest.mark.parametrize("meta", ['{"kind": "community"}', '{"kind": "planted"}',
                                      '{"kind": "planted", "config": {"num_tasks": "4"}}'])
    def test_affinity_needs_the_recorded_task_count(self, tmp_path, capsys, meta):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "meta.json").write_text(meta)
        capsys.readouterr()
        assert run(["affinity", "--dataset", str(ds), "--out", str(tmp_path / "o")]) == 2
        assert "records no task count" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestPredictNt:
    def test_f1_report(self, tmp_path, pipeline):
        _, inst_dir, aff_dir = pipeline
        out = str(tmp_path / "nt")
        assert run(["predict-nt", "--dataset", inst_dir, "--affinity-dir", aff_dir,
                    "--heldout-subsets", "40", "--seed", "6", "--out", out]) == 0
        rep = read_json(out + "/transfer_f1.json")
        assert 0.0 <= rep["macro_f1"] <= 1.0
        assert rep["num_heldout_subsets"] <= 40

    def test_predictions_agree_with_f1_report(self, tmp_path, pipeline):
        # each task's F1 from the label and thresholded score of its rows
        _, inst_dir, aff_dir = pipeline
        out = tmp_path / "nt"
        assert run(["predict-nt", "--dataset", inst_dir, "--affinity-dir", aff_dir,
                    "--heldout-subsets", "80", "--seed", "6", "--out", str(out)]) == 0
        rows = {}
        with open(out / "heldout_predictions.csv", "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                rows.setdefault(int(row["target"]), []).append(
                    (row["label"] == "1", float(row["score"]) >= 0.5))
        f1, excluded = {}, []
        for tid, pairs in sorted(rows.items()):
            tp = sum(label and pred for label, pred in pairs)
            wrong = sum(label != pred for label, pred in pairs)
            if any(label for label, _ in pairs):
                f1[str(tid)] = 2 * tp / (2 * tp + wrong)
            else:
                excluded.append(tid)
        rep = read_json(out / "transfer_f1.json")
        assert f1 and f1 == rep["per_task_f1"]
        assert excluded == rep["excluded_tasks"]

    def test_manifest_records_logistic_settings(self, tmp_path, pipeline):
        # transfer_f1.json depends on --l2, so the config must too
        _, inst_dir, aff_dir = pipeline
        configs = []
        for l2 in ("0.0001", "0.01"):
            out = tmp_path / l2
            assert run(["predict-nt", "--dataset", inst_dir, "--affinity-dir", aff_dir,
                        "--heldout-subsets", "40", "--seed", "6", "--l2", l2,
                        "--out", str(out)]) == 0
            configs.append(read_json(out / "manifest.json")["config"])
        assert [k for k in configs[0] if configs[0][k] != configs[1].get(k)] == ["l2"]
        assert configs[0]["learner"]["kind"] == "closed-form-linear"
        assert (configs[0]["logistic_epochs"], configs[0]["logistic_lr"]) == (1500, 0.5)

    @pytest.mark.parametrize("change,key", [("ridge", "learner"),
                                            ("holdout", "holdout_frac"),
                                            ("dataset", "dataset")])
    def test_affinity_dir_of_another_run_refused(self, tmp_path, pipeline, capsys,
                                                 change, key):
        # f_i(S) comes from the affinity log and f_i({i}) from predict-nt's own
        # learner and dataset; mixing two runs compares unlike scores
        _, inst_dir, aff_dir = pipeline
        dataset, extra = inst_dir, []
        if change == "ridge":
            extra = ["--ridge", "50"]
        elif change == "holdout":
            extra = ["--holdout-frac", "0.3"]
        else:
            dataset = str(tmp_path / "other")
            assert run(GEN + ["--seed", "9", "--out", dataset]) == 0
        capsys.readouterr()
        out = tmp_path / "nt"
        assert run(["predict-nt", "--dataset", dataset, "--affinity-dir", aff_dir,
                    "--heldout-subsets", "40", "--seed", "6", "--out", str(out)] + extra) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: ") and key in err[0]

    def test_task_in_no_logged_subset_refused_before_training(self, tmp_path, pipeline,
                                                              capsys, monkeypatch):
        # no predictor can be fit for a task that no logged subset holds, and the
        # held-out subsets are known before any model is trained
        _, inst_dir, _ = pipeline
        aff_dir = tmp_path / "aff"
        assert run(["affinity", "--dataset", inst_dir, "--alpha", "2", "--num-subsets", "2",
                    "--min-pair-coverage", "0", "--out", str(aff_dir)]) == 0

        def no_training(*args, **kwargs):
            raise AssertionError("predict-nt trained a model before refusing")

        monkeypatch.setattr(cli.aff_mod, "collect_evaluations", no_training)
        capsys.readouterr()
        out = tmp_path / "nt"
        assert run(["predict-nt", "--dataset", inst_dir, "--affinity-dir", str(aff_dir),
                    "--heldout-subsets", "20", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: held-out subsets hold task(s) ")
        assert "--num-subsets" in err[0] and "--min-pair-coverage 1" in err[0]
        named = json.loads(err[0].split("task(s) ")[1].split("]")[0] + "]")
        logged = {i for s in read_json(aff_dir / "subsets.json") for i in s}
        assert named and not logged & set(named)

    def test_no_heldout_subset_refused_before_training(self, tmp_path, capsys, monkeypatch):
        # at T=4 and alpha=2, 40 logged subsets cover all 6 pairs, so every
        # held-out draw is a logged subset and no predictor could be scored
        inst_dir, aff_dir = tmp_path / "inst", tmp_path / "aff"
        assert run(GEN + ["--tasks", "4", "--groups", "2", "--seed", "1",
                          "--out", str(inst_dir)]) == 0
        assert run(["affinity", "--dataset", str(inst_dir), "--alpha", "2",
                    "--num-subsets", "40", "--out", str(aff_dir)]) == 0
        assert len({tuple(s) for s in read_json(aff_dir / "subsets.json")}) == 6

        def no_training(*args, **kwargs):
            raise AssertionError("predict-nt trained a model before refusing")

        monkeypatch.setattr(cli.aff_mod, "collect_evaluations", no_training)
        capsys.readouterr()
        out = tmp_path / "nt"
        assert run(["predict-nt", "--dataset", str(inst_dir), "--affinity-dir", str(aff_dir),
                    "--heldout-subsets", "5", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: all 5 held-out draws ")
        assert str(aff_dir) in err[0]

    def test_constant_baseline_and_nt_rate_match_the_predictions(self, tmp_path, pipeline):
        # recounted from the labels of heldout_predictions.csv: always predicting
        # negative transfer scores F1 2p / (2p + negatives) on each task with a
        # positive, and the rate counts every held-out row
        _, inst_dir, aff_dir = pipeline
        out = tmp_path / "nt"
        assert run(["predict-nt", "--dataset", inst_dir, "--affinity-dir", aff_dir,
                    "--heldout-subsets", "80", "--seed", "6", "--out", str(out)]) == 0
        labels = {}
        with open(out / "heldout_predictions.csv", "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                labels.setdefault(int(row["target"]), []).append(row["label"] == "1")
        rep = read_json(out / "transfer_f1.json")
        scored = {tid: ls for tid, ls in labels.items() if any(ls)}
        assert sorted(set(labels) - set(scored)) == rep["excluded_tasks"]
        constant = [2 * sum(ls) / (len(ls) + sum(ls)) for ls in scored.values()]
        assert rep["constant_macro_f1"] == pytest.approx(sum(constant) / len(constant),
                                                         rel=1e-12)
        rows = [label for ls in labels.values() for label in ls]
        assert rep["heldout_nt_rate"] == sum(rows) / len(rows)

    @pytest.mark.parametrize("flag,value", [
        ("--logistic-epochs", "0"), ("--logistic-epochs", "-3"), ("--logistic-lr", "-1"),
        ("--logistic-lr", "0"), ("--logistic-lr", "nan"), ("--logistic-lr", "inf"),
        ("--l2", "-5"), ("--l2", "nan"), ("--l2", "inf")])
    def test_logistic_settings_that_cannot_fit_exit_2_before_training(
            self, tmp_path, pipeline, capsys, monkeypatch, flag, value):
        # before the refusal, epochs 0 and a negative step size exited 0 with
        # an untrained or ascended predictor, and l2 -5 exited 3 after 569 epochs
        _, inst_dir, aff_dir = pipeline
        monkeypatch.setattr(cli.aff_mod, "collect_evaluations", no_training)
        capsys.readouterr()
        out = tmp_path / "nt"
        assert run(["predict-nt", "--dataset", inst_dir, "--affinity-dir", aff_dir,
                    "--heldout-subsets", "40", flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: logistic settings need "), err
        assert not (out / "transfer_f1.json").exists() and not out.exists()

    def test_directory_without_affinity_log_exit_66(self, tmp_path, pipeline, capsys):
        # a cluster output directory holds no fingerprint.json
        _, inst_dir, aff_dir = pipeline
        clus = tmp_path / "clus"
        assert run(["cluster", "--affinity-dir", aff_dir, "--budget", "2",
                    "--out", str(clus)]) == 0
        out = tmp_path / "nt"
        capsys.readouterr()
        assert run(["predict-nt", "--dataset", inst_dir, "--affinity-dir", str(clus),
                    "--heldout-subsets", "40", "--out", str(out)]) == 66
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"taskaff: missing expected input: {clus / 'fingerprint.json'}"]
        assert not out.exists()

    def test_fingerprint_checked_before_the_dataset_is_read(self, tmp_path, pipeline, capsys):
        # the refusal needs only meta.json, so a dataset without its arrays
        # still gets it and not a missing-input error
        _, inst_dir, aff_dir = pipeline
        dataset = tmp_path / "ds"
        shutil.copytree(inst_dir, dataset)
        (dataset / "instance.npz").unlink()
        capsys.readouterr()
        assert run(["predict-nt", "--dataset", str(dataset), "--affinity-dir", aff_dir,
                    "--heldout-subsets", "40", "--holdout-frac", "0.3",
                    "--out", str(tmp_path / "nt")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "holdout_frac" in err[0], err


@pytest.fixture(scope="module")
def community_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("community")
    rng = np.random.default_rng(0)
    g = two_block_graph(rng, n_per=25, p_in=0.4, p_out=0.03)
    edges_path = root / "edges.txt"
    save_edge_list(g, edges_path)
    cmty_path = root / "cmty.txt"
    comm_a = rng.choice(25, size=12, replace=False)
    comm_b = 25 + rng.choice(25, size=12, replace=False)
    comm_c = rng.choice(25, size=8, replace=False)
    comm_d = 25 + rng.choice(25, size=8, replace=False)
    lines = [" ".join(map(str, c)) for c in (comm_a, comm_b, comm_c, comm_d)]
    cmty_path.write_text("\n".join(lines) + "\n")
    return root, str(edges_path), str(cmty_path)


class TestSplitAndPprSim:
    def test_split_builds_dataset(self, tmp_path, community_dataset):
        _, edges, cmty = community_dataset
        out = str(tmp_path / "ds")
        assert run(["split", "--edges", edges, "--communities", cmty,
                    "--top-k", "4", "--train-pos-frac", "0.3",
                    "--train-neg-frac", "0.3", "--val-frac", "0.2",
                    "--seed", "1", "--out", out]) == 0
        meta = read_json(out + "/meta.json")
        assert meta["kind"] == "community"
        assert meta["num_tasks"] == 4
        tset = read_json(out + "/taskset.json")
        assert len(tset["tasks"]) == 4

    def test_split_malformed_community_line_exit_2(self, tmp_path, community_dataset, capsys):
        _, edges, cmty = community_dataset
        bad = tmp_path / "cmty.txt"
        bad.write_text(Path(cmty).read_text() + "4 x 6\n")
        capsys.readouterr()
        assert run(["split", "--edges", edges, "--communities", str(bad), "--top-k", "4",
                    "--seed", "1", "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["taskaff: line 5: non-integer member id in '4 x 6'"]

    def test_warnings_show_level_and_source_once(self, tmp_path, community_dataset, capsys):
        _, edges, cmty = community_dataset
        looped = tmp_path / "edges.txt"
        looped.write_text(Path(edges).read_text() + "3 3\n")
        capsys.readouterr()
        for k in range(2):  # a second in-process run must not add a second handler
            assert run(["split", "--edges", str(looped), "--communities", cmty,
                        "--top-k", "4", "--seed", "1", "--out", str(tmp_path / f"ds{k}")]) == 0
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"taskaff WARNING taskaff.graphs: dropped 1 self-loop(s) "
                           f"while loading {looped}"]

    @pytest.mark.parametrize("flag", ["--edges", "--communities", "--features", "--config"])
    def test_directory_given_as_input_file_exit_66(self, tmp_path, community_dataset, capsys,
                                                   flag):
        _, edges, cmty = community_dataset
        argv = {"--edges": edges, "--communities": cmty}
        argv[flag] = str(tmp_path)
        out = tmp_path / "ds"
        capsys.readouterr()
        assert run(["split", *[x for pair in argv.items() for x in pair],
                    "--out", str(out)]) == 66
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"taskaff: expected a file, not the directory {tmp_path}"]
        assert not out.exists()

    def test_split_missing_edges_exit_66(self, tmp_path, community_dataset):
        _, _, cmty = community_dataset
        assert run(["split", "--edges", str(tmp_path / "no.txt"),
                    "--communities", cmty, "--out", str(tmp_path / "d")]) == 66

    @pytest.mark.parametrize("bad", [["--op", "pprr"], ["--hops", "-1"]])
    def test_split_rejects_bad_diffusion_settings(self, tmp_path, community_dataset, bad):
        _, edges, cmty = community_dataset
        out = tmp_path / "ds"
        assert run(["split", "--edges", edges, "--communities", cmty,
                    "--top-k", "4", "--seed", "1", "--out", str(out)] + bad) == 2
        assert not (out / "meta.json").exists()

    @pytest.mark.parametrize("top_k", ["0", "-1", "-3"])
    def test_split_rejects_top_k_below_one(self, tmp_path, community_dataset, capsys, top_k):
        _, edges, cmty = community_dataset
        out = tmp_path / "ds"
        capsys.readouterr()
        assert run(["split", "--edges", edges, "--communities", cmty,
                    "--top-k", top_k, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"taskaff: --top-k must be >= 1, got {top_k}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        (["--val-frac", "1.5"], "val_frac must lie in (0, 1), got 1.5"),
        (["--train-pos-frac", "0"], "train_pos_frac must lie in (0, 1), got 0.0"),
        (["--train-pos-frac", "0.6", "--val-frac", "0.5"],
         "train_pos_frac + val_frac must be < 1"),
    ])
    def test_split_rejects_bad_fractions_before_writing(self, tmp_path, community_dataset,
                                                        capsys, bad, message):
        _, edges, cmty = community_dataset
        out = tmp_path / "ds"
        capsys.readouterr()
        assert run(["split", "--edges", edges, "--communities", cmty,
                    "--top-k", "4", "--seed", "1", "--out", str(out)] + bad) == 2
        assert capsys.readouterr().err == f"taskaff: {message}\n"
        assert not out.exists()

    def test_ppr_operator_pipeline_on_community(self, tmp_path, community_dataset):
        _, edges, cmty = community_dataset
        ds = str(tmp_path / "ds")
        assert run(["split", "--edges", edges, "--communities", cmty,
                    "--top-k", "4", "--train-pos-frac", "0.3",
                    "--train-neg-frac", "0.3", "--val-frac", "0.2",
                    "--op", "ppr", "--hops", "2", "--seed", "1", "--out", ds]) == 0
        aff = str(tmp_path / "aff")
        assert run(["affinity", "--dataset", ds, "--alpha", "2",
                    "--num-subsets", "12", "--learner", "mlp",
                    "--hidden-width", "8", "--epochs", "60",
                    "--learning-rate", "0.2", "--seed", "2", "--out", aff]) == 0
        theta = np.loadtxt(aff + "/theta.csv", delimiter=",")
        assert theta.shape == (4, 4)
        assert np.isfinite(theta).all()

    def test_ppr_sim_on_community(self, tmp_path, community_dataset, monkeypatch):
        _, edges, cmty = community_dataset
        ds = str(tmp_path / "ds")
        assert run(["split", "--edges", edges, "--communities", cmty,
                    "--top-k", "4", "--train-pos-frac", "0.3",
                    "--train-neg-frac", "0.3", "--val-frac", "0.2",
                    "--seed", "1", "--out", ds]) == 0
        # grouping by block: community sizes are sorted, so tasks 0/1 are the
        # size-12 ones (one per block); recover membership from the taskset
        tset = read_json(ds + "/taskset.json")
        groups = [[], []]
        for tid, rec in enumerate(tset["tasks"]):
            block = 0 if np.mean([p < 25 for p in rec["positives"]]) > 0.5 else 1
            groups[block].append(tid)
        gdir = tmp_path / "grp"
        gdir.mkdir()
        grouping.save_grouping(groups, np.zeros(8, dtype=np.int64), 2, gdir / "grouping.json")
        out = str(tmp_path / "ppr")

        def no_diffusion(*args, **kwargs):
            raise AssertionError("ppr-sim needs no node features")

        monkeypatch.setattr(cli, "diffuse_features", no_diffusion)
        assert run(["ppr-sim", "--dataset", ds, "--grouping-dir", str(gdir),
                    "--seed", "0", "--out", out]) == 0
        rep = read_json(out + "/ppr_similarity.json")
        assert rep["within_mean"] > rep["between_mean"]

    @pytest.mark.parametrize("group", [[2, 4], [-1, 0]])
    def test_ppr_sim_task_id_out_of_range_exit_2_before_any_ppr(
            self, tmp_path, community_dataset, monkeypatch, capsys, group):
        # T = 4: id 4 is past the last task, and -1 would index the last one
        _, edges, cmty = community_dataset
        ds = str(tmp_path / "ds")
        assert run(["split", "--edges", edges, "--communities", cmty, "--top-k", "4",
                    "--seed", "1", "--out", ds]) == 0
        gdir = tmp_path / "grp"
        gdir.mkdir()
        grouping.save_grouping([[1, 3], group], np.zeros(4, dtype=np.int64), 2,
                               gdir / "grouping.json")

        def no_ppr(*args, **kwargs):
            raise AssertionError("a PPR vector computed before the ids were checked")

        monkeypatch.setattr(graphs, "_seeded_ppr", no_ppr)
        capsys.readouterr()
        out = tmp_path / "ppr"
        assert run(["ppr-sim", "--dataset", ds, "--grouping-dir", str(gdir),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"taskaff: task id out of range in subset {group}"]
        assert not (out / "ppr_similarity.json").exists()

    @pytest.mark.parametrize("op", ["row-normalized", "symmetric-normalized"])
    def test_commands_without_ppr_run_without_scipy(self, tmp_path, op):
        # With sys.modules['scipy'] = None, any import of scipy raises. The
        # linear learner refuses a community dataset (its tasks' train masks
        # differ), so the chain trains the MLP.
        run_python(
            "sys.modules['scipy'] = None\n"
            "import taskaff.cli as cli\n"
            f"d = {str(tmp_path)!r}\n" + SBM_INPUTS +
            f"assert cli.main(split + ['--op', {op!r}, '--out', d + '/ds']) == 0\n"
            "ds = ['--dataset', d + '/ds']\n"
            "mlp = ['--learner', 'mlp', '--epochs', '5', '--hidden-width', '8']\n"
            "assert cli.main(['affinity', *ds, *mlp, '--alpha', '3', '--num-subsets', '12',"
            " '--out', d + '/aff']) == 0\n"
            "assert cli.main(['cluster', '--affinity-dir', d + '/aff', '--budget', '2',"
            " '--out', d + '/grp']) == 0\n"
            "assert cli.main(['evaluate', *ds, *mlp, '--grouping-dir', d + '/grp',"
            " '--out', d + '/ev']) == 0\n"
            "assert cli.main(['predict-nt', *ds, *mlp, '--affinity-dir', d + '/aff',"
            " '--heldout-subsets', '4', '--out', d + '/nt']) == 0\n"
        )

    def test_ppr_paths_run_with_scipy(self, tmp_path):
        # split never reads the adjacency; a PPR hop and ppr-sim import scipy
        run_python(
            "import taskaff.cli as cli\n"
            f"d = {str(tmp_path)!r}\n" + SBM_INPUTS +
            "assert cli.main(split + ['--op', 'ppr', '--out', d + '/ds']) == 0\n"
            "assert 'scipy' not in sys.modules, 'split'\n"
            "ds = ['--dataset', d + '/ds']\n"
            "assert cli.main(['affinity', *ds, '--learner', 'mlp', '--epochs', '5',"
            " '--hidden-width', '8', '--alpha', '3', '--num-subsets', '12',"
            " '--out', d + '/aff']) == 0\n"
            "assert 'scipy.sparse' in sys.modules, 'affinity'\n"
            "assert cli.main(['cluster', '--affinity-dir', d + '/aff', '--budget', '2',"
            " '--out', d + '/grp']) == 0\n"
            "assert cli.main(['ppr-sim', *ds, '--grouping-dir', d + '/grp',"
            " '--out', d + '/ppr']) == 0\n"
        )

    def test_linear_affinity_on_community_exit_2_before_writing(self, tmp_path,
                                                                 community_affinity, capsys):
        # every community task has its own train mask, which the linear
        # learner cannot fit, so no subset can train and nothing is written
        ds, _ = community_affinity
        out = tmp_path / "aff"
        capsys.readouterr()
        assert run(["affinity", "--dataset", ds, "--alpha", "2", "--num-subsets", "6",
                    "--learner", "linear", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["taskaff: closed-form-linear needs one train mask and one val mask "
                       "shared by every task; use --learner mlp"]
        assert not out.exists()

    def test_linear_evaluate_on_community_exit_2_before_any_fit(
            self, tmp_path, community_affinity, monkeypatch, capsys):
        # before the check, the singleton group [0] was fit before [1, 2, 3] was refused
        ds, _ = community_affinity
        gdir, out = tmp_path / "grp", tmp_path / "eval"
        gdir.mkdir()
        grouping.save_grouping([[0], [1, 2, 3]], np.zeros(8, dtype=np.int64), 2,
                               gdir / "grouping.json")
        monkeypatch.setattr(cli.learners, "fit_closed_form", no_training)
        capsys.readouterr()
        assert run(["evaluate", "--dataset", ds, "--grouping-dir", str(gdir),
                    "--learner", "linear", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "taskaff: closed-form-linear needs one train mask and one val mask shared by "
            "every task; use --learner mlp"]
        assert not out.exists()

    def test_mlp_evaluate_uncovered_task_exit_2_before_any_training(
            self, tmp_path, community_affinity, monkeypatch, capsys):
        # before the check, both groups trained and the refusal, "task 3 is
        # covered by no deployed model", did not name the file; ppr-sim still
        # reads such a grouping
        ds, _ = community_affinity
        gdir, out = tmp_path / "grp", tmp_path / "eval"
        gdir.mkdir()
        grouping.save_grouping([[0, 1], [2]], np.zeros(8, dtype=np.int64), 2,
                               gdir / "grouping.json")
        monkeypatch.setattr(cli.learners, "train_subset", no_training)
        capsys.readouterr()
        assert run(["evaluate", "--dataset", ds, "--grouping-dir", str(gdir),
                    "--learner", "mlp", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"taskaff: {gdir / 'grouping.json'}: task 3 is in no group, and an MLP scores "
            "only its group's tasks"]
        assert not out.exists()
        assert run(["ppr-sim", "--dataset", ds, "--grouping-dir", str(gdir),
                    "--out", str(tmp_path / "ppr")]) == 0

    def test_ppr_sim_empty_group_exit_2_without_output(self, tmp_path, community_dataset,
                                                       monkeypatch, capsys):
        # before the check, ppr-sim exited 0 on this grouping
        _, edges, cmty = community_dataset
        ds = str(tmp_path / "ds")
        assert run(["split", "--edges", edges, "--communities", cmty, "--top-k", "4",
                    "--seed", "1", "--out", ds]) == 0
        gdir, out = tmp_path / "grp", tmp_path / "ppr"
        gdir.mkdir()
        grouping.save_grouping([[0, 1, 2, 3], []], np.zeros(8, dtype=np.int64), 2,
                               gdir / "grouping.json")
        monkeypatch.setattr(cli.learners, "train_subset", no_training)
        capsys.readouterr()
        assert run(["ppr-sim", "--dataset", ds, "--grouping-dir", str(gdir),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"taskaff: {gdir / 'grouping.json'}: group 1 is empty"]
        assert not out.exists()

    def test_mlp_affinity_pipeline_on_community(self, tmp_path, community_dataset):
        _, edges, cmty = community_dataset
        ds = str(tmp_path / "ds")
        assert run(["split", "--edges", edges, "--communities", cmty,
                    "--top-k", "4", "--train-pos-frac", "0.3",
                    "--train-neg-frac", "0.3", "--val-frac", "0.2",
                    "--seed", "1", "--out", ds]) == 0
        aff = str(tmp_path / "aff")
        assert run(["affinity", "--dataset", ds, "--alpha", "2",
                    "--num-subsets", "12", "--learner", "mlp",
                    "--hidden-width", "8", "--epochs", "60",
                    "--learning-rate", "0.2", "--seed", "2", "--out", aff]) == 0
        theta = np.loadtxt(aff + "/theta.csv", delimiter=",")
        assert theta.shape == (4, 4)
        clus = str(tmp_path / "clus")
        assert run(["cluster", "--affinity-dir", aff, "--budget", "2",
                    "--seed", "3", "--out", clus]) == 0
        grp = read_json(clus + "/grouping.json")
        assert set().union(*(set(g) for g in grp["groups"])) == {0, 1, 2, 3}

    def test_ppr_sim_rejects_planted(self, tmp_path, pipeline):
        _, inst_dir, _ = pipeline
        gdir = tmp_path / "grp"
        gdir.mkdir()
        grouping.save_grouping([[0]], np.zeros(24, dtype=np.int64), 1, gdir / "grouping.json")
        assert run(["ppr-sim", "--dataset", inst_dir, "--grouping-dir", str(gdir),
                    "--out", str(tmp_path / "p")]) == 2


class TestConfigFile:
    def test_flags_override_config_file(self, tmp_path, pipeline):
        _, inst_dir, _ = pipeline
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha": 3, "num-subsets": 10,
                                        "learner": "linear",
                                        "metric": "negative-mse"}))
        out = str(tmp_path / "affc")
        assert run(["affinity", "--dataset", inst_dir, "--config", str(cfg_path),
                    "--num-subsets", "15", "--min-pair-coverage", "0",
                    "--seed", "2", "--out", out]) == 0
        subsets = read_json(out + "/subsets.json")
        assert len(subsets) == 15      # flag wins
        assert len(subsets[0]) == 3    # file value used where no flag given

    @pytest.mark.parametrize("argv,key,dest,file_value,flag", [
        (["cluster", "--affinity-dir", "x"], "budget", "budget", 7, "3"),
        (["affinity", "--dataset", "x"], "ridge", "ridge", 0.5, "0.25"),
        (["cluster", "--affinity-dir", "x"], "seed", "seed", 7, "3"),
        (["evaluate", "--dataset", "x", "--grouping-dir", "y"], "with-baseline",
         "with_baseline", True, None),
    ])
    def test_file_beats_default_and_flag_beats_file(self, tmp_path, argv, key, dest,
                                                     file_value, flag):
        # seed and with-baseline were ignored in a config file before the
        # file became the parser's defaults; every flag name is now a key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: file_value}))
        parser = cli.build_parser()
        default = getattr(parser.parse_args(argv + ["--out", "o"]), dest)
        assert default != file_value
        argv = argv + ["--out", "o", "--config", str(cfg_path)]
        assert getattr(cli.build_parser().parse_args(argv), dest) == file_value
        if flag is not None:
            flagged = cli.build_parser().parse_args(argv + ["--" + key, flag])
            assert getattr(flagged, dest) == type(file_value)(flag)

    def test_key_of_another_command_ignored(self, tmp_path, pipeline):
        _, _, aff_dir = pipeline
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"budget": 3, "alpha": 99, "teleport": 0.5}))
        out = tmp_path / "c"
        assert run(["cluster", "--affinity-dir", aff_dir, "--config", str(cfg_path),
                    "--out", str(out)]) == 0
        assert read_json(str(out / "manifest.json"))["config"]["budget"] == 3
        args = cli.build_parser().parse_args(["cluster", "--affinity-dir", aff_dir,
                                              "--config", str(cfg_path), "--out", "o"])
        assert not hasattr(args, "alpha") and not hasattr(args, "teleport")

    def test_values_parse_as_their_flags_would(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"budget": "4", "seed": 3, "affinity-dir": "a"}))
        args = cli.build_parser().parse_args(["cluster", "--config", str(cfg_path),
                                              "--affinity-dir", "b", "--out", "o"])
        assert (args.budget, args.seed, args.affinity_dir) == (4, 3, "b")

    # the last six hold values that the flag would refuse on the command line
    @pytest.mark.parametrize("content", ['{"budget": 3,,}', "[1, 2]", '{"budget": 2.5}',
                                         '{"budget": null}', '{"budget": "x"}',
                                         '{"budget": [3]}', '{"budget": true}',
                                         '{"seed": "7", "affinity-dir": false}'])
    def test_malformed_config_exit_2(self, tmp_path, pipeline, capsys, content):
        _, _, aff_dir = pipeline
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        capsys.readouterr()
        out = tmp_path / "c"
        assert run(["cluster", "--affinity-dir", aff_dir, "--config", str(cfg_path),
                    "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: ") and str(cfg_path) in err[0]


MLP_AFFINITY = ["--alpha", "2", "--num-subsets", "12", "--learner", "mlp",
                "--hidden-width", "8", "--epochs", "60", "--learning-rate", "0.2",
                "--seed", "2"]


@pytest.fixture(scope="module")
def community_affinity(tmp_path_factory, community_dataset):
    """A split community dataset and one complete MLP affinity run on it."""
    root = tmp_path_factory.mktemp("community_affinity")
    _, edges, cmty = community_dataset
    ds, aff = str(root / "ds"), str(root / "aff")
    assert run(["split", "--edges", edges, "--communities", cmty, "--top-k", "4",
                "--train-pos-frac", "0.3", "--train-neg-frac", "0.3", "--val-frac", "0.2",
                "--seed", "1", "--out", ds]) == 0
    assert run(["affinity", "--dataset", ds, "--out", aff] + MLP_AFFINITY) == 0
    return ds, aff


class TestInterruptedLog:
    """An affinity run stopped during an append: evals.csv holds the rows of
    the subsets committed before it, part of the next one's and may end in a
    cut row."""

    def interrupted_copy(self, tmp_path, aff_dir, committed, tail=""):
        copy = tmp_path / "aff"
        shutil.copytree(aff_dir, copy)
        cut_evals(copy, committed, 1, tail)
        (copy / "theta.csv").unlink()
        return copy

    @pytest.mark.parametrize("tail", [pytest.param("", id="no-tail"), "3", "3\r\n", "7,1,-0.6",
                                      "7,1,-0.6931,negative-cr"])
    def test_cut_last_row_is_dropped_on_resume(self, tmp_path, community_affinity, tail):
        ds, aff_dir = community_affinity
        copy = self.interrupted_copy(tmp_path, aff_dir, 5, tail)
        assert run(["affinity", "--dataset", ds, "--out", str(copy)] + MLP_AFFINITY) == 0
        for name in ("evals.csv", "theta.csv", "counts.csv", "manifest.json"):
            assert (copy / name).read_bytes() == Path(aff_dir, name).read_bytes(), name

    def test_predict_nt_on_a_cut_log_exit_2(self, tmp_path, community_affinity, capsys):
        # predict-nt reads only a finished log; subset 5 holds one of its rows
        ds, aff_dir = community_affinity
        copy = self.interrupted_copy(tmp_path, aff_dir, 5)
        shutil.copy(Path(aff_dir, "theta.csv"), copy / "theta.csv")
        task = read_json(copy / "subsets.json")[5][1]
        capsys.readouterr()
        out = tmp_path / "nt"
        assert run(["predict-nt", "--dataset", ds, "--affinity-dir", str(copy),
                    "--heldout-subsets", "20", "--out", str(out)] + MLP_AFFINITY[4:]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"taskaff: {copy / 'evals.csv'} holds no row for task {task} of subset 5; rerun "
            "affinity with the same flags to finish the log"]
        assert not out.exists()

    def test_malformed_inner_row_exit_2(self, tmp_path, community_affinity, capsys):
        ds, aff_dir = community_affinity
        copy = self.interrupted_copy(tmp_path, aff_dir, 5)
        lines = (copy / "evals.csv").read_bytes().split(b"\r\n")
        lines[4] = b"3"
        (copy / "evals.csv").write_bytes(b"\r\n".join(lines))
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        capsys.readouterr()
        assert run(["affinity", "--dataset", ds, "--out", str(copy)] + MLP_AFFINITY) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"taskaff: line 5: malformed row '3' in {copy / 'evals.csv'}"]
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before


class TestEvalLogFile:
    """evals.csv tags each row with the run's metric and its subset's seed,
    base seed XOR subset index; every read refuses a row of another metric."""

    @staticmethod
    def columns(aff_dir):
        with open(Path(aff_dir, "evals.csv"), "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return {(metric, int(seed) ^ int(k)) for k, _, _, metric, seed in rows}

    @pytest.mark.parametrize("log", ["linear", "mlp"])
    def test_fresh_and_resumed_runs_write_the_run_seed_and_metric(
            self, tmp_path, pipeline, community_affinity, log):
        # both runs use --seed 2; the MLP run its default metric
        if log == "linear":
            dataset, aff_dir = pipeline[1:]
            argv, metric = AFFINITY, "negative-mse"
        else:
            (dataset, aff_dir), argv = community_affinity, MLP_AFFINITY
            metric = "negative-cross-entropy"
        assert self.columns(aff_dir) == {(metric, 2)}
        resumed = tmp_path / "resumed"
        shutil.copytree(aff_dir, resumed)
        cut_evals(resumed, 5)
        assert run(["affinity", "--dataset", dataset, *argv, "--out", str(resumed)]) == 0
        assert self.columns(resumed) == {(metric, 2)}
        assert (resumed / "evals.csv").read_bytes() == Path(aff_dir, "evals.csv").read_bytes()

    @pytest.mark.parametrize("rows", ["every", "one"])
    @pytest.mark.parametrize("command", ["predict-nt", "complete-rerun", "resume"])
    def test_another_metric_exit_2_with_one_line(self, tmp_path, pipeline, monkeypatch,
                                                 capsys, command, rows):
        # before the check, a log relabelled in every row passed predict-nt and
        # a complete rerun with exit 0
        _, inst_dir, aff_dir = pipeline
        copy = tmp_path / "aff"
        shutil.copytree(aff_dir, copy)
        evals = copy / "evals.csv"
        lines = evals.read_bytes().split(b"\r\n")
        first = 2 if rows == "every" else 7
        for k in range(first - 1, len(lines) if rows == "every" else first):
            lines[k] = lines[k].replace(b",negative-mse,", b",f1,")
        evals.write_bytes(b"\r\n".join(lines))
        if command == "resume":
            cut_evals(copy, 40)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        monkeypatch.setattr(cli, "_load_dataset", no_training)
        argv = {"predict-nt": ["predict-nt", "--dataset", inst_dir, "--affinity-dir", str(copy),
                               "--heldout-subsets", "40"],
                "complete-rerun": ["affinity", "--dataset", inst_dir, *AFFINITY],
                "resume": ["affinity", "--dataset", inst_dir, *AFFINITY]}[command]
        out = tmp_path / "nt" if command == "predict-nt" else copy
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"taskaff: line {first}: {evals} holds f1 scores, not negative-mse"]
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before
        assert not (tmp_path / "nt").exists()


def no_training(*args, **kwargs):
    raise AssertionError("a model was trained")


@pytest.fixture
def featured_community(tmp_path, community_dataset):
    """A community dataset split from its own copy of the edge list and a
    feature CSV, and a complete MLP affinity run on it."""
    _, edges, cmty = community_dataset
    inputs = {"edges": tmp_path / "edges.txt", "features": tmp_path / "features.csv"}
    shutil.copy(edges, inputs["edges"])
    rows = graphs.load_edge_list(edges).num_nodes
    np.savetxt(inputs["features"], np.random.default_rng(4).random((rows, 3)), delimiter=",")
    ds, aff = tmp_path / "ds", tmp_path / "aff"
    assert run(["split", "--edges", str(inputs["edges"]), "--communities", cmty,
                "--features", str(inputs["features"]), "--top-k", "4",
                "--train-pos-frac", "0.3", "--train-neg-frac", "0.3", "--val-frac", "0.2",
                "--seed", "1", "--out", str(ds)]) == 0
    assert run(["affinity", "--dataset", str(ds), "--out", str(aff)] + MLP_AFFINITY) == 0
    return inputs, str(ds), aff


def _reverse_lines(path):
    path.write_text("".join(reversed(path.read_text().splitlines(keepends=True))))


class TestStaleInputs:
    """The scores of a community affinity log were trained on the edge list
    and feature CSV that its dataset's meta.json names. Once either changes
    at its path, the log is refused before any training."""

    def test_fingerprint_hashes_the_inputs_by_role(self, featured_community, pipeline):
        inputs, _, aff = featured_community
        dataset = read_json(aff / "fingerprint.json")["dataset"]
        assert sorted(dataset) == ["edges", "features", "meta.json", "taskset.json"]
        assert dataset["features"] == cli._sha256(inputs["features"])
        # a planted dataset has no external input
        assert list(read_json(Path(pipeline[2], "fingerprint.json"))["dataset"]) == ["meta.json"]

    @pytest.mark.parametrize("role", ["features", "edges"])
    def test_resume_after_an_input_changed_exit_2(self, featured_community, capsys, role):
        # A cut run resumed after the input was rewritten at the same path (its
        # rows reversed). Earlier versions resumed and appended scores trained
        # on the new input to the old ones (exit 0).
        inputs, ds, aff = featured_community
        cut_evals(aff, 6)
        _reverse_lines(inputs[role])
        before = {p.name: p.read_bytes() for p in aff.iterdir()}
        capsys.readouterr()
        assert run(["affinity", "--dataset", ds, "--out", str(aff)] + MLP_AFFINITY) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"taskaff: {aff} holds an affinity log whose dataset {role} differ from this run; "
            "remove it or choose another directory"]
        assert {p.name: p.read_bytes() for p in aff.iterdir()} == before  # nothing trained

    @pytest.mark.parametrize("role", ["features", "edges"])
    def test_predict_nt_after_an_input_changed_exit_2_before_training(
            self, tmp_path, featured_community, capsys, monkeypatch, role):
        # 4 subsets log 3 of the 6 pairs and all 4 tasks, which leaves held-out
        # pairs to score on: with the input unchanged, predict-nt exits 0, and
        # earlier versions exited 0 after the change too.
        inputs, ds, _ = featured_community
        aff = tmp_path / "aff4"
        learner = MLP_AFFINITY[4:]
        assert run(["affinity", "--dataset", ds, "--alpha", "2", "--num-subsets", "4",
                    "--min-pair-coverage", "0", "--out", str(aff)] + learner) == 0
        _reverse_lines(inputs[role])
        monkeypatch.setattr(cli.aff_mod, "collect_evaluations", no_training)
        capsys.readouterr()
        out = tmp_path / "nt"
        assert run(["predict-nt", "--dataset", ds, "--affinity-dir", str(aff),
                    "--heldout-subsets", "20", "--out", str(out)] + learner) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"whose dataset {role} differ from this run" in err[0]
        assert not out.exists()


class TestPooledMlp:
    """MLP training on three fork workers writes what one process writes, and
    a failure in a worker exits 3 with the log kept for resume."""

    def test_affinity_matches_one_process(self, tmp_path, monkeypatch, community_affinity):
        ds, aff_dir = community_affinity
        pools = pooled(monkeypatch, 3)
        out = tmp_path / "aff"
        assert run(["affinity", "--dataset", ds, "--out", str(out)] + MLP_AFFINITY) == 0
        assert pools == [3]
        for path in sorted(Path(aff_dir).iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_interrupted_run_resumes_to_the_same_log(self, tmp_path, monkeypatch, capsys,
                                                     community_affinity):
        ds, aff_dir = community_affinity
        subsets = [tuple(s) for s in read_json(Path(aff_dir, "subsets.json"))]
        first = max(subsets.index(s) for s in subsets)  # where a failing subset first occurs
        pooled(monkeypatch, 3)
        out = tmp_path / "aff"
        argv = ["affinity", "--dataset", ds, "--out", str(out)] + MLP_AFFINITY
        with monkeypatch.context() as failing:
            fail_on(failing, subsets[first], raise_training_error)
            capsys.readouterr()
            assert run(argv) == 3
        assert capsys.readouterr().err == (
            "affinity: training failed, log retained for resume: training loss became "
            f"non-finite, epoch 3, subset {first}\n")
        assert multiprocessing.active_children() == []
        clean = Path(aff_dir, "evals.csv").read_bytes().splitlines(keepends=True)
        assert (out / "evals.csv").read_bytes() == b"".join(clean[:1 + 2 * first])  # alpha 2
        assert run(argv) == 0
        for name in ("evals.csv", "theta.csv", "counts.csv", "manifest.json"):
            assert (out / name).read_bytes() == Path(aff_dir, name).read_bytes(), name

    def test_evaluate_matches_one_process_and_names_a_failed_group(
            self, tmp_path, monkeypatch, capsys, community_affinity):
        ds, aff_dir = community_affinity
        grp = str(tmp_path / "grp")
        assert run(["cluster", "--affinity-dir", aff_dir, "--budget", "2", "--seed", "3",
                    "--out", grp]) == 0
        argv = ["evaluate", "--dataset", ds, "--grouping-dir", grp] + MLP_AFFINITY[4:]
        assert run(argv + ["--out", str(tmp_path / "serial")]) == 0
        pools = pooled(monkeypatch, 3)
        assert run(argv + ["--out", str(tmp_path / "pooled")]) == 0
        assert pools == [2]  # one worker per group
        for name in ("evaluation.json", "manifest.json"):
            assert (tmp_path / "pooled" / name).read_bytes() == \
                   (tmp_path / "serial" / name).read_bytes()
        fail_on(monkeypatch, read_json(grp + "/grouping.json")["groups"][1],
                raise_training_error)
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "failed")]) == 3
        assert capsys.readouterr().err == ("taskaff: training error: training loss became "
                                           "non-finite, epoch 3, group 1\n")
        assert multiprocessing.active_children() == []


def _drop_key(path, *keys):
    """Delete payload[keys[0]]...[keys[-1]] from a JSON file."""
    payload = read_json(path)
    node = payload
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class TestMalformedArtifacts:
    """An artifact a later command reads, edited into a malformed one, stops
    that command with one `taskaff:` line naming the file (exit 2)."""

    def _clustered(self, tmp_path, pipeline):
        """grouping.json of the planted pipeline, and the evaluate argv that reads it."""
        _, inst_dir, aff_dir = pipeline
        clus = tmp_path / "clus"
        assert run(["cluster", "--affinity-dir", aff_dir, "--budget", "3",
                    "--seed", "4", "--out", str(clus)]) == 0
        return clus / "grouping.json", ["evaluate", "--dataset", inst_dir,
                                        "--grouping-dir", str(clus)]

    def grouping(self, tmp_path, pipeline, community_affinity, community_dataset):
        # evaluate and ppr-sim read only the groups key
        path, argv = self._clustered(tmp_path, pipeline)
        _drop_key(path, "groups")
        return path, argv, "'groups'"

    def affinity(self, tmp_path, pipeline, community_affinity, community_dataset):
        import shutil

        _, _, aff_dir = pipeline
        copy = tmp_path / "aff"
        shutil.copytree(aff_dir, copy)
        (copy / "affinity.json").write_text(
            '{"imputed": [[0, 12]], "orientation": "performance"}')
        return (copy / "affinity.json", ["cluster", "--affinity-dir", str(copy),
                                         "--budget", "3"], "not the zero counts")

    def negative_imputed(self, tmp_path, pipeline, community_affinity, community_dataset):
        path, argv, _ = self.affinity(tmp_path, pipeline, community_affinity,
                                         community_dataset)
        path.write_text('{"imputed": [[-1, 2]], "orientation": "performance"}')
        return path, argv, "not the zero counts"

    def grouping_float_id(self, tmp_path, pipeline, community_affinity, community_dataset):
        path, argv = self._clustered(tmp_path, pipeline)
        payload = read_json(path)
        payload["groups"][0][0] += 0.5
        path.write_text(json.dumps(payload))
        return path, argv, "ids must be integers"

    def task_set(self, tmp_path, pipeline, community_affinity, community_dataset):
        import shutil

        ds, _ = community_affinity
        copy = tmp_path / "ds"
        shutil.copytree(ds, copy)
        _drop_key(copy / "taskset.json", "tasks", 2, "positives")
        return (copy / "taskset.json", ["affinity", "--dataset", str(copy)] + MLP_AFFINITY,
                "'positives'")

    def _task_set_first_id(self, tmp_path, community_affinity, key, change):
        """A copy of the community dataset whose task 0 has its first ``key`` id changed."""
        ds, _ = community_affinity
        copy = tmp_path / "ds"
        shutil.copytree(ds, copy)
        payload = read_json(copy / "taskset.json")
        ids = payload["tasks"][0][key]
        ids[0] = change(ids[0])
        (copy / "taskset.json").write_text(json.dumps(payload))
        return (copy / "taskset.json", ["affinity", "--dataset", str(copy)] + MLP_AFFINITY,
                "ids must be integers")

    def task_set_empty_train(self, tmp_path, pipeline, community_affinity, community_dataset):
        # before the check, affinity exited 3 after writing a log that could never resume
        ds, _ = community_affinity
        copy = tmp_path / "ds"
        shutil.copytree(ds, copy)
        payload = read_json(copy / "taskset.json")
        payload["tasks"][2]["train"] = []
        (copy / "taskset.json").write_text(json.dumps(payload))
        return (copy / "taskset.json", ["affinity", "--dataset", str(copy)] + MLP_AFFINITY,
                ": task 2 has an empty train mask")

    def task_set_float_train(self, tmp_path, pipeline, community_affinity, community_dataset):
        return self._task_set_first_id(tmp_path, community_affinity, "train", lambda i: i + 0.5)

    def task_set_string_positive(self, tmp_path, pipeline, community_affinity,
                                 community_dataset):
        return self._task_set_first_id(tmp_path, community_affinity, "positives", str)

    def planted_meta(self, tmp_path, pipeline, community_affinity, community_dataset):
        import shutil

        _, inst_dir, _ = pipeline
        copy = tmp_path / "inst"
        shutil.copytree(inst_dir, copy)
        meta = read_json(copy / "meta.json")
        meta["config"]["colour"] = "red"
        (copy / "meta.json").write_text(json.dumps(meta))
        return (copy / "meta.json", ["verify-theory", "--dataset", str(copy), "--alpha", "4",
                                     "--num-subsets", "150"], "colour")

    def planted_meta_float_row(self, tmp_path, pipeline, community_affinity, community_dataset):
        _, inst_dir, _ = pipeline
        copy = tmp_path / "inst"
        shutil.copytree(inst_dir, copy)
        meta = read_json(copy / "meta.json")
        meta["observed_rows"][0] += 0.5
        (copy / "meta.json").write_text(json.dumps(meta))
        return (copy / "meta.json", ["verify-theory", "--dataset", str(copy), "--alpha", "4",
                                     "--num-subsets", "150"], "ids must be integers")

    def _planted_npz(self, tmp_path, pipeline, name, command):
        """A copy of the planted instance whose ``name`` array holds one NaN,
        read by ``command``; before the check, affinity wrote an all-NaN theta."""
        _, inst_dir, _ = pipeline
        copy = tmp_path / "inst"
        shutil.copytree(inst_dir, copy)
        arrays = npz_arrays(copy / "instance.npz")
        arrays[name][0, 1] = np.nan
        np.savez(copy / "instance.npz", **arrays)
        extra = {"affinity": AFFINITY, "verify-theory": ["--alpha", "4", "--num-subsets", "150"]}
        return (copy / "instance.npz", [command, "--dataset", str(copy), *extra[command]],
                f"{name} holds a non-finite value")

    def planted_nan_labels(self, tmp_path, pipeline, community_affinity, community_dataset):
        return self._planted_npz(tmp_path, pipeline, "labels", "affinity")

    def planted_nan_design(self, tmp_path, pipeline, community_affinity, community_dataset):
        return self._planted_npz(tmp_path, pipeline, "design", "verify-theory")

    def planted_nan_observed_design(self, tmp_path, pipeline, community_affinity,
                                    community_dataset):
        return self._planted_npz(tmp_path, pipeline, "observed_design", "affinity")

    def _features(self, tmp_path, community_dataset, row_7):
        """A split of the community graph whose feature CSV has ``row_7`` as row 7."""
        _, edges, cmty = community_dataset
        feats = tmp_path / "features.csv"
        rows = [f"{k},1,0.5,2" for k in range(50)]
        rows[7] = row_7
        feats.write_text("\n".join(rows) + "\n")
        ds = str(tmp_path / "ds")
        assert run(["split", "--edges", edges, "--communities", cmty, "--top-k", "4",
                    "--features", str(feats), "--seed", "1", "--out", ds]) == 0
        return feats, ["affinity", "--dataset", ds] + MLP_AFFINITY

    def features(self, tmp_path, pipeline, community_affinity, community_dataset):
        return (*self._features(tmp_path, community_dataset, "1,2,x,4"), "could not convert")

    # Earlier versions trained on these and exited 3 (a non-finite loss).
    def features_nan(self, tmp_path, pipeline, community_affinity, community_dataset):
        return (*self._features(tmp_path, community_dataset, "1,2,nan,4"),
                "the row of node 7 holds a non-finite value")

    def features_inf(self, tmp_path, pipeline, community_affinity, community_dataset):
        return (*self._features(tmp_path, community_dataset, "1,-inf,0,4"),
                "the row of node 7 holds a non-finite value")

    def _community_meta(self, tmp_path, community_affinity, key, value, command):
        """A copy of the community dataset whose meta.json sets ``key`` to
        ``value`` (drops it for None), read by ``command``."""
        ds, _ = community_affinity
        copy = tmp_path / "ds"
        shutil.copytree(ds, copy)
        meta = read_json(copy / "meta.json")
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        (copy / "meta.json").write_text(json.dumps(meta))
        extra = {"affinity": MLP_AFFINITY, "ppr-sim": ["--grouping-dir", str(tmp_path)]}[command]
        return (copy / "meta.json", [command, "--dataset", str(copy), *extra],
                "edges must be a string, features a string or null")

    # Checked before any file loads: open() takes an int edges value as a
    # file descriptor (0 reads stdin).
    def community_meta_no_edges(self, tmp_path, pipeline, community_affinity,
                                community_dataset):
        return self._community_meta(tmp_path, community_affinity, "edges", None, "affinity")

    def community_meta_no_edges_ppr_sim(self, tmp_path, pipeline, community_affinity,
                                        community_dataset):
        return self._community_meta(tmp_path, community_affinity, "edges", None, "ppr-sim")

    def community_meta_string_hops(self, tmp_path, pipeline, community_affinity,
                                   community_dataset):
        return self._community_meta(tmp_path, community_affinity, "hops", "2", "affinity")

    def community_meta_bool_hops(self, tmp_path, pipeline, community_affinity,
                                 community_dataset):
        return self._community_meta(tmp_path, community_affinity, "hops", True, "affinity")

    def community_meta_negative_hops(self, tmp_path, pipeline, community_affinity,
                                     community_dataset):
        return self._community_meta(tmp_path, community_affinity, "hops", -1, "affinity")

    def community_meta_int_edges(self, tmp_path, pipeline, community_affinity,
                                 community_dataset):
        return self._community_meta(tmp_path, community_affinity, "edges", 0, "ppr-sim")

    def community_meta_list_features(self, tmp_path, pipeline, community_affinity,
                                     community_dataset):
        return self._community_meta(tmp_path, community_affinity, "features", ["f.csv"],
                                    "affinity")

    @pytest.mark.parametrize("case", ["grouping", "affinity", "negative_imputed", "task_set",
                                      "planted_meta", "features", "features_nan",
                                      "features_inf", "grouping_float_id",
                                      "task_set_float_train", "task_set_string_positive",
                                      "task_set_empty_train",
                                      "planted_meta_float_row", "planted_nan_labels",
                                      "planted_nan_design", "planted_nan_observed_design",
                                      "community_meta_no_edges",
                                      "community_meta_no_edges_ppr_sim",
                                      "community_meta_string_hops", "community_meta_bool_hops",
                                      "community_meta_negative_hops",
                                      "community_meta_int_edges",
                                      "community_meta_list_features"])
    def test_exit_2_with_one_line(self, tmp_path, pipeline, community_affinity,
                                  community_dataset, capsys, case):
        path, argv, fragment = getattr(self, case)(tmp_path, pipeline, community_affinity,
                                                   community_dataset)
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"taskaff: {path}"), err
        assert fragment in err[0]
        assert not out.exists()


def _drop_row_3(lines):
    return lines[:2] + lines[3:]


def _set_score(lines, row, value):
    """evals.csv lines with the score field of lines[row] replaced by ``value``."""
    lines = list(lines)
    fields = lines[row].split(",")
    fields[2] = value
    lines[row] = ",".join(fields)
    return lines


def _float_id_in_row_0(lines):
    """subsets.json with the second id of subset 0 raised by 0.7 (a cast truncates it back)."""
    subsets = json.loads(lines[0])
    subsets[0][1] += 0.7
    return [json.dumps(subsets)]


def _edit_subsets(edit):
    """An edit of subsets.json that applies ``edit`` to its list of subsets."""
    def apply(lines):
        subsets = json.loads(lines[0])
        edit(subsets)
        return [json.dumps(subsets)]
    return apply


def _set_last_id(subsets):
    subsets[-1][-1] = 99


def _repeat_first_id(subsets):
    subsets[0][1] = subsets[0][0]


def _reverse_first_row(subsets):
    subsets[0].reverse()


class TestMalformedAffinityDir:
    """A file of an affinity directory edited into a malformed one stops the
    command that reads it with one `taskaff:` line naming the file (exit 2)."""

    @pytest.mark.parametrize("name,edit,command", [
        ("fingerprint.json", lambda lines: ["{"], "affinity"),
        ("fingerprint.json", lambda lines: ["{"], "predict-nt"),
        ("subsets.json", lambda lines: ["[[1,2"], "affinity"),
        ("subsets.json", lambda lines: ["[[1,2"], "predict-nt"),
        ("theta.csv", lambda lines: lines[:2] + ["x" + lines[2]] + lines[3:], "cluster"),
        ("theta.csv", _drop_row_3, "cluster"),
        ("counts.csv", _drop_row_3, "cluster"),
        ("theta.csv", lambda lines: lines[:2] + ["nan" + lines[2][lines[2].index(","):]]
         + lines[3:], "cluster"),
        ("theta.csv", lambda lines: lines[:2] + ["inf" + lines[2][lines[2].index(","):]]
         + lines[3:], "cluster"),
        ("subsets.json", _float_id_in_row_0, "affinity"),
        ("subsets.json", _float_id_in_row_0, "predict-nt"),
        ("evals.csv", lambda lines: _set_score(lines, 2, "inf"), "affinity"),
        ("evals.csv", lambda lines: _set_score(lines, -1, "nan"), "affinity"),
        ("evals.csv", lambda lines: _set_score(lines, 2, "-inf"), "predict-nt"),
        ("subsets.json", _edit_subsets(_set_last_id), "affinity"),
        ("subsets.json", _edit_subsets(_set_last_id), "predict-nt"),
        ("subsets.json", _edit_subsets(_repeat_first_id), "affinity"),
        ("subsets.json", _edit_subsets(_repeat_first_id), "predict-nt"),
        ("subsets.json", _edit_subsets(_reverse_first_row), "affinity"),
        ("subsets.json", _edit_subsets(_reverse_first_row), "predict-nt"),
    ], ids=["fingerprint-affinity",
            "fingerprint-predict-nt", "subsets-affinity", "subsets-predict-nt", "theta-x",
            "theta-row-deleted", "counts-row-deleted", "theta-nan", "theta-inf",
            "subsets-float-affinity", "subsets-float-predict-nt", "evals-inf-affinity",
            "evals-nan-last-line", "evals-inf-predict-nt", "subsets-id-99-affinity",
            "subsets-id-99-predict-nt", "subsets-repeated-id-affinity",
            "subsets-repeated-id-predict-nt", "subsets-unsorted-affinity",
            "subsets-unsorted-predict-nt"])
    def test_exit_2_with_one_line(self, tmp_path, pipeline, capsys, name, edit, command):
        _, inst_dir, aff_dir = pipeline
        copy = tmp_path / "aff"
        shutil.copytree(aff_dir, copy)
        path = copy / name
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        argv = {"affinity": ["affinity", "--dataset", inst_dir, *AFFINITY, "--out", str(copy)],
                "predict-nt": ["predict-nt", "--dataset", inst_dir, "--affinity-dir", str(copy),
                               "--heldout-subsets", "40", "--out", str(tmp_path / "nt")],
                "cluster": ["cluster", "--affinity-dir", str(copy), "--budget", "3",
                            "--out", str(tmp_path / "c")]}[command]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("taskaff: ") and str(path) in err[0], err


# The path flags of every command and the kind of path each takes.
PATH_FLAGS = {
    "generate": {},
    "split": {"--edges": "file", "--communities": "file", "--features": "file"},
    "affinity": {"--dataset": "dir"},
    "cluster": {"--affinity-dir": "dir"},
    "evaluate": {"--dataset": "dir", "--grouping-dir": "dir"},
    "predict-nt": {"--dataset": "dir", "--affinity-dir": "dir"},
    "verify-theory": {"--dataset": "dir"},
    "ppr-sim": {"--dataset": "dir", "--grouping-dir": "dir"},
}


class TestPathArguments:
    """A path flag given a missing path or one of the wrong kind, or an --out
    that is a regular file, stops the command before it does any work: one
    `taskaff:` line naming the path, exit 66, no --out."""

    @pytest.fixture
    def valid(self, tmp_path, pipeline, community_affinity, community_dataset):
        """The path flags of each command, set to paths of the right kind that
        the command would run on."""
        _, inst_dir, aff_dir = pipeline
        ds, _ = community_affinity
        _, edges, cmty = community_dataset
        features = tmp_path / "features.csv"
        features.write_text("".join(f"{k},1,0.5\n" for k in range(50)))
        grouping = tmp_path / "clus"
        assert run(["cluster", "--affinity-dir", aff_dir, "--budget", "2",
                    "--out", str(grouping)]) == 0
        return {"generate": {}, "split": {"--edges": edges, "--communities": cmty,
                                          "--features": str(features)},
                "affinity": {"--dataset": inst_dir}, "cluster": {"--affinity-dir": aff_dir},
                "evaluate": {"--dataset": inst_dir, "--grouping-dir": str(grouping)},
                "predict-nt": {"--dataset": inst_dir, "--affinity-dir": aff_dir},
                "verify-theory": {"--dataset": inst_dir},
                "ppr-sim": {"--dataset": ds, "--grouping-dir": str(grouping)}}

    @pytest.mark.parametrize("command,flag,case", [
        *[(command, flag, case) for command, flags in PATH_FLAGS.items() for flag in flags
          for case in ("missing", "wrong-kind")],
        *[(command, "--out", "wrong-kind") for command in PATH_FLAGS]])
    def test_exit_66_with_one_line_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                   valid, command, flag, case):
        def no_load(*args):
            raise AssertionError("the dataset was loaded")

        monkeypatch.setattr(cli, "_load_dataset", no_load)
        monkeypatch.setattr(cli, "_load_graph_and_tasks", no_load)
        afile = tmp_path / "afile"
        afile.write_text("x\n")
        # a missing path, or a file where a directory is expected and back
        kind = "dir" if flag == "--out" else PATH_FLAGS[command][flag]
        want = "missing" if case == "missing" else kind
        bad = {"missing": tmp_path / "nope", "dir": afile, "file": tmp_path}[want]
        argv = dict(valid[command], **{"--out": str(tmp_path / "out")})
        argv[flag] = str(bad)
        capsys.readouterr()
        assert run([command, *[x for pair in argv.items() for x in pair]]) == 66
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [{"missing": f"taskaff: missing expected input: {bad}",
                        "file": f"taskaff: expected a file, not the directory {bad}",
                        "dir": f"taskaff: expected a directory, not the file {bad}"}[want]]
        assert not (tmp_path / "out").exists() and afile.read_text() == "x\n"


class TestSeedArgument:
    """--seed takes an integer >= 0, as numpy's generators do: a negative one
    is refused when the arguments are parsed, before any path is read."""

    @pytest.mark.parametrize("command", sorted(PATH_FLAGS))
    def test_negative_seed_exit_64_before_any_work(self, tmp_path, capsys, command):
        # the path flags name nothing: with a valid seed they would exit 66
        paths = [x for flag in PATH_FLAGS[command] for x in (flag, str(tmp_path / "nope"))]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([command, *paths, "--seed", "-1", "--out", str(out)]) == 64
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == (f"taskaff {command}: error: argument --seed: "
                           "invalid seed value: '-1'")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(PATH_FLAGS))
    def test_negative_seed_in_config_exit_2(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": -1}')
        paths = [x for flag in PATH_FLAGS[command] for x in (flag, str(tmp_path / "nope"))]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([command, *paths, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"taskaff: {cfg_path}: invalid value -1 for seed"]
        assert not out.exists()

    def test_zero_and_large_seeds_parse(self):
        for seed in ("0", str(2**64)):
            args = cli.build_parser().parse_args(["generate", "--seed", seed, "--out", "o"])
            assert args.seed == int(seed)

import csv
import os

import numpy as np
import pytest

import checks
import sbm
import taskaff.cli
import taskaff.graphs
import taskaff.learners
import taskaff.planted
import taskaff.tasks
import taskaff


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    data, aff = str(root / "data"), str(root / "aff")
    assert taskaff.cli.main(["generate", "--tasks", "8", "--groups", "2", "--dim", "6",
                             "--nodes", "120", "--observed", "100", "--seed", "3",
                             "--out", data]) == 0
    assert taskaff.cli.main(["affinity", "--dataset", data, "--alpha", "3",
                             "--num-subsets", "6", "--min-pair-coverage", "0",
                             "--learner", "linear", "--metric", "negative-mse",
                             "--seed", "4", "--out", aff]) == 0
    return data, aff


@pytest.fixture(scope="module")
def community_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("community")
    cfg = sbm.SbmConfig(num_nodes=240, num_blocks=4, min_block=40, max_block=80,
                        num_edges=1500, feature_dim=4)
    inputs = sbm.generate(cfg, 2, str(root / "inputs"))
    data, aff = str(root / "data"), str(root / "aff")
    assert taskaff.cli.main(["split", "--edges", inputs["edges"],
                             "--communities", inputs["communities"],
                             "--features", inputs["features"], "--top-k", "4",
                             "--seed", "1", "--out", data]) == 0
    assert taskaff.cli.main(["affinity", "--dataset", data, "--alpha", "2",
                             "--num-subsets", "3", "--min-pair-coverage", "0",
                             "--learner", "mlp", "--epochs", "20", "--seed", "5",
                             "--out", aff]) == 0
    return data, aff


def _copy(src, dst):
    os.makedirs(dst)
    for name in os.listdir(src):
        with open(os.path.join(src, name), "rb") as a, open(os.path.join(dst, name), "wb") as b:
            b.write(a.read())
    return dst


def _rewrite_matrix(path, i, j, change, fmt):
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    m[i, j] = change(m[i, j])
    np.savetxt(path, m, delimiter=",", fmt=fmt)


def _perturb_score(aff_dir, factor):
    path = os.path.join(aff_dir, "evals.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = repr(float(rows[1][2]) * factor)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return int(rows[1][0])


def _covered_entry(aff_dir):
    counts = np.loadtxt(os.path.join(aff_dir, "counts.csv"), delimiter=",", ndmin=2)
    i, j = np.argwhere(counts > 0)[-1]
    return int(i), int(j)


@pytest.mark.parametrize("run", ["planted_run", "community_run"])
def test_outputs_pass_every_oracle(run, request):
    data, aff = request.getfixturevalue(run)
    assert checks.check_theta(aff) == []
    assert checks.check_finite(aff) == []
    if run == "planted_run":
        assert checks.check_planted_scores(taskaff, data, aff, 3) == []
    else:
        assert checks.check_community_scores(taskaff, data, aff, 3) == []


@pytest.mark.parametrize("run", ["planted_run", "community_run"])
def test_theta_oracle_rejects_one_ulp(run, request, tmp_path):
    _, aff = request.getfixturevalue(run)
    aff = _copy(aff, str(tmp_path / "aff"))
    i, j = _covered_entry(aff)
    _rewrite_matrix(os.path.join(aff, "theta.csv"), i, j,
                    lambda v: np.nextafter(v, np.inf), "%.17g")
    problems = checks.check_theta(aff)
    assert len(problems) == 1 and f"theta[{i},{j}]" in problems[0]


def test_counts_oracle_rejects_one_off(planted_run, tmp_path):
    _, aff = planted_run
    aff = _copy(aff, str(tmp_path / "aff"))
    i, j = _covered_entry(aff)
    _rewrite_matrix(os.path.join(aff, "counts.csv"), i, j, lambda v: v + 1, "%d")
    problems = checks.check_theta(aff)
    assert len(problems) == 1 and f"counts[{i},{j}]" in problems[0]


def test_planted_score_oracle_tolerance(planted_run, tmp_path):
    data, aff = planted_run
    within = _copy(aff, str(tmp_path / "within"))
    _perturb_score(within, 1 + checks.PLANTED_SCORE_RTOL / 10)
    assert checks.check_planted_scores(taskaff, data, within, 6) == []
    beyond = _copy(aff, str(tmp_path / "beyond"))
    k = _perturb_score(beyond, 1 + checks.PLANTED_SCORE_RTOL * 10)
    problems = checks.check_planted_scores(taskaff, data, beyond, 6)
    assert len(problems) == 1 and problems[0].startswith(f"subset {k}:")


def test_community_score_oracle_tolerance(community_run, tmp_path):
    data, aff = community_run
    beyond = _copy(aff, str(tmp_path / "beyond"))
    k = _perturb_score(beyond, 1 + checks.MLP_SCORE_RTOL * 10)
    problems = checks.check_community_scores(taskaff, data, beyond, 3)
    assert len(problems) == 1 and problems[0].startswith(f"subset {k}:")


def test_finite_check_flags_nan_reports(planted_run, tmp_path):
    _, aff = planted_run
    report = tmp_path / "r.json"
    report.write_text('{"a": [1.0, NaN]}')
    assert checks.check_finite(aff, str(report)) != []
    report.write_text('{"a": null}')
    assert checks.check_finite(aff, str(report)) != []


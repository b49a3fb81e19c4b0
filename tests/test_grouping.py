import itertools
import json

import numpy as np
import pytest

from taskaff import affinity, grouping, learners, planted
from taskaff.affinity import AffinityMatrix
from taskaff.errors import InvalidInputError, TaskAffError


def perf_aff(theta):
    theta = np.asarray(theta, dtype=float)
    counts = np.ones_like(theta, dtype=np.int64)
    return AffinityMatrix(theta, counts)


def block_matrix(sizes, within=1.0, between=0.0, rng=None, noise=0.0):
    n = sum(sizes)
    labels = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
    a = np.where(labels[:, None] == labels[None, :], within, between).astype(float)
    if rng is not None and noise > 0:
        flip = rng.random((n, n)) < noise
        flip = np.triu(flip, 1)
        flip = flip | flip.T
        a[flip] = 1.0 - a[flip]
        np.fill_diagonal(a, within)
    return a, labels


class TestBuildClusterMatrix:
    def test_symmetric_theta_gives_rescaled_a1(self):
        theta = np.array([[0.0, 2.0], [2.0, 4.0]])
        full = grouping.build_cluster_matrix(perf_aff(theta))
        np.testing.assert_allclose(full[:2, :2], theta / 4.0)

    def test_block_form_arithmetic(self):
        theta = np.array([[1.0, 2.0], [3.0, 4.0]])
        full = grouping.build_cluster_matrix(perf_aff(theta))
        # undo the rescale (offset min 1, scale max - min 3): A1 must equal [[1, 2.5], [2.5, 4]]
        offset, scale = 1.0, 3.0
        a1_raw = full[:2, :2] * scale + offset
        np.testing.assert_allclose(a1_raw, [[1.0, 2.5], [2.5, 4.0]])
        assert full.shape == (4, 4)
        np.testing.assert_array_equal(full[2:, 2:], np.zeros((2, 2)))
        scaled = (theta - offset) / scale
        np.testing.assert_allclose(full[:2, 2:], scaled)
        np.testing.assert_allclose(full[2:, :2], scaled.T)

    def test_full_matrix_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        theta = rng.random((10, 10))
        full = grouping.build_cluster_matrix(perf_aff(theta))
        assert np.array_equal(full, full.T)

    def test_constant_theta_degenerate(self):
        with pytest.raises(InvalidInputError, match="^matrix is constant"):
            grouping.build_cluster_matrix(perf_aff(np.full((3, 3), 0.5)))


class TestSpectralCluster:
    def test_exact_two_blocks(self):
        a, truth = block_matrix([4, 4])
        labels = grouping.spectral_cluster(a, 2, seed=0)
        assert grouping.adjusted_rand_index(labels, truth) == 1.0

    def test_k_one_single_label(self):
        a, _ = block_matrix([3, 3])
        labels = grouping.spectral_cluster(a, 1, seed=0)
        assert set(labels.tolist()) == {0}

    def test_permuted_noisy_three_blocks(self):
        rng = np.random.default_rng(1)
        a, truth = block_matrix([6, 6, 6], rng=rng, noise=0.05)
        perm = rng.permutation(18)
        a_p = a[np.ix_(perm, perm)]
        labels_p = grouping.spectral_cluster(a_p, 3, seed=2)
        # brute-force best relabeling against the permuted ground truth
        truth_p = truth[perm]
        best = max(
            np.mean([mapping[l] == t for l, t in zip(labels_p, truth_p)])
            for mapping in (dict(zip((0, 1, 2), p))
                            for p in itertools.permutations((0, 1, 2)))
        )
        assert best == 1.0

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(3)
        a, _ = block_matrix([5, 5, 5], rng=rng, noise=0.02)
        perm = rng.permutation(15)
        labels = grouping.spectral_cluster(a, 3, seed=7)
        labels_p = grouping.spectral_cluster(a[np.ix_(perm, perm)], 3, seed=7)
        assert grouping.adjusted_rand_index(labels_p, labels[perm]) == 1.0

    def test_k_exceeds_size(self):
        with pytest.raises(InvalidInputError):
            grouping.spectral_cluster(np.ones((3, 3)), 4, seed=0)

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidInputError):
            grouping.spectral_cluster(np.array([[0.0, -1.0], [-1.0, 0.0]]), 2, seed=0)

    def test_zero_degree_rows_guarded(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        labels = grouping.spectral_cluster(a, 2, seed=0)
        assert labels.shape == (4,)

    def test_exact_blocks_on_cluster_matrix(self):
        # ideal case through the full doubled-matrix pathway
        theta, truth = block_matrix([4, 4], within=0.9, between=0.1)
        cm = grouping.build_cluster_matrix(perf_aff(theta))
        labels = grouping.spectral_cluster(cm, 2, seed=1)
        assert grouping.adjusted_rand_index(labels[:8], truth) == 1.0
        assert grouping.adjusted_rand_index(labels[8:], truth) == 1.0


class TestDeriveGroups:
    def test_aligned_copies(self):
        labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        assert grouping.derive_groups(labels, num_tasks=4) == [[0, 1], [2, 3]]

    def test_source_copies_add_overlap(self):
        # task 0's source copy lands in cluster 1: it joins both groups
        labels = np.array([0, 0, 1, 1, 1, 0, 1, 1])
        assert grouping.derive_groups(labels, num_tasks=4) == [[0, 1], [0, 2, 3]]

    def test_all_targets_one_cluster(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert grouping.derive_groups(labels, num_tasks=3) == [[0, 1, 2], [0, 1, 2]]

    def test_every_task_covered(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            t = int(rng.integers(3, 9))
            b = int(rng.integers(2, 5))
            labels = rng.integers(0, b, size=2 * t)
            covered = set()
            for g in grouping.derive_groups(labels, t):
                covered |= set(g)
            assert covered == set(range(t))

    def test_one_group_per_label_holding_both_copies(self):
        # each copy puts its own task in its cluster: no label yields an
        # empty group, so none is dropped and no task needs a fallback
        rng = np.random.default_rng(9)
        for _ in range(500):
            t, b = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            labels = rng.integers(0, b, size=2 * t)
            clusters = sorted(set(labels.tolist()))
            assert grouping.derive_groups(labels, t) == [
                sorted({i % t for i in np.flatnonzero(labels == c)}) for c in clusters]

    def test_planted_partition_recovered(self, small_instance):
        inst = small_instance
        pop = planted.population_theta(inst, 3)
        cm = grouping.build_cluster_matrix(pop)
        labels = grouping.spectral_cluster(cm, 2, seed=5)
        got = {tuple(sorted(g)) for g in grouping.derive_groups(labels, 6)}
        assert got == {(0, 1, 2), (3, 4, 5)}


class TestTrainAndEvaluateGroups:
    @pytest.fixture()
    def holdout_setup(self, small_instance):
        tasks, feats = planted.to_task_set(small_instance, holdout_frac=0.2)
        spec = learners.LearnerSpec(kind="closed-form-linear", metric="negative-mse")
        return small_instance, tasks, feats, spec

    def test_single_group_is_naive_mtl(self, holdout_setup):
        _, tasks, feats, spec = holdout_setup
        models = grouping.train_groups(tasks, [list(range(6))], spec, seed=0, features=feats)
        assert len(models) == 1
        direct = learners.train_subset(None, tasks, list(range(6)), spec, seed=0,
                                       features=feats)
        np.testing.assert_array_equal(models[0].weights, direct.weights)

    def test_singleton_groups_are_stl(self, holdout_setup):
        _, tasks, feats, spec = holdout_setup
        models = grouping.train_groups(tasks, [[i] for i in range(6)], spec, seed=3,
                                       features=feats)
        for i, model in enumerate(models):
            stl = learners.train_subset(None, tasks, [i], spec, seed=3 ^ i,
                                        features=feats)
            np.testing.assert_array_equal(model.weights, stl.weights)

    def test_group_weights_match_group_mean_fit(self, holdout_setup):
        # per-group W equals the closed-form fit against the group's mean label
        _, tasks, feats, spec = holdout_setup
        groups = [[0, 1, 2], [3, 4, 5]]
        models = grouping.train_groups(tasks, groups, spec, seed=1, features=feats)
        mask = tasks.train_mask[0]
        z = feats[mask]
        for model, members in zip(models, groups):
            w = learners.fit_closed_form(z, np.mean([tasks.labels[i][mask] for i in members],
                                                    axis=0), 0.0)
            np.testing.assert_allclose(model.weights, w, atol=1e-12)

    def test_single_model_objective(self, holdout_setup):
        _, tasks, feats, spec = holdout_setup
        models = grouping.train_groups(tasks, [list(range(6))], spec, seed=0, features=feats)
        per_task, objective = grouping.evaluate_grouping(models, tasks, "negative-mse")
        for i, li in enumerate(per_task):
            assert li == learners.evaluate(models[0], tasks, i, "test", "negative-mse")
        assert objective == pytest.approx(sum(per_task))

    def test_duplicate_models_do_not_change_objective(self, holdout_setup):
        _, tasks, feats, spec = holdout_setup
        models = grouping.train_groups(tasks, [list(range(6))], spec, seed=0, features=feats)
        _, obj_one = grouping.evaluate_grouping(models, tasks, "negative-mse")
        _, obj_two = grouping.evaluate_grouping(models * 2, tasks, "negative-mse")
        assert obj_one == obj_two

    def test_mlp_missing_head_is_coverage_error(self):
        rng = np.random.default_rng(6)
        from tests.test_learners import toy_binary_tasks

        ts, x = toy_binary_tasks(rng, num_tasks=3)
        spec = learners.LearnerSpec(kind="shared-encoder-mlp", hidden_width=4,
                                    epochs=10, learning_rate=0.1)
        model = learners.train_subset(None, ts, [0, 1], spec, seed=0, features=x)
        with pytest.raises(TaskAffError, match="^task 2 is covered by no deployed model$"):
            grouping.evaluate_grouping([model], ts, "negative-cross-entropy")

    def test_grouped_beats_naive_on_planted(self, holdout_setup):
        inst, tasks, feats, spec = holdout_setup
        planted_groups = [[0, 1, 2], [3, 4, 5]]
        naive = [list(range(6))]
        m_grp = grouping.train_groups(tasks, planted_groups, spec, 0, features=feats)
        m_nv = grouping.train_groups(tasks, naive, spec, 0, features=feats)
        _, obj_grp = grouping.evaluate_grouping(m_grp, tasks, "negative-mse")
        _, obj_nv = grouping.evaluate_grouping(m_nv, tasks, "negative-mse")
        assert obj_grp >= obj_nv


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        assert grouping.adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_disagreement_below_one(self):
        assert grouping.adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) < 1.0

    def test_matches_known_value(self):
        # hand-computed contingency: pairs (2, 6, 6, 15) -> (2-2.4)/(6-2.4)
        a = [0, 0, 1, 1, 0, 1]
        b = [0, 0, 0, 1, 1, 1]
        got = grouping.adjusted_rand_index(a, b)
        assert got == pytest.approx(-1.0 / 9.0, abs=1e-9)


class TestGroupingPersistence:
    def test_roundtrip(self, tmp_path):
        groups, assignments = [[0, 2], [1, 3]], np.array([0, 1, 0, 1, 0, 1, 0, 1])
        grouping.save_grouping(groups, assignments, 2, tmp_path / "g.json")
        assert grouping.load_grouping(tmp_path / "g.json", 4) == groups
        assert json.loads((tmp_path / "g.json").read_text()) == {
            "assignments": assignments.tolist(), "budget": 2, "groups": groups}

    def test_file_with_null_score_keys_loads(self, tmp_path):
        # grouping.json files written before the objective and per_task_scores
        # keys (always null) were dropped
        path = tmp_path / "g.json"
        path.write_text('{"assignments": [0, 1, 1, 0], "budget": 2, "groups": [[0, 1], [1]], '
                        '"objective": null, "per_task_scores": null}')
        assert grouping.load_grouping(path, 2) == [[0, 1], [1]]

    def test_file_of_groups_alone_loads(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"groups": [[0, 1], [1]]}')
        assert grouping.load_grouping(path, 2) == [[0, 1], [1]]

    @pytest.mark.parametrize("group", [[3, 1], [0, -1]])
    def test_task_id_outside_the_tasks_refused(self, tmp_path, group):
        # T = 3: id 3 is past the last task, and -1 would index the last one
        grouping.save_grouping([[0, 2], group], np.zeros(6, dtype=np.int64), 2,
                               tmp_path / "g.json")
        with pytest.raises(InvalidInputError,
                           match=rf"^task id out of range in subset \{sorted(group)}$"):
            grouping.load_grouping(tmp_path / "g.json", 3)

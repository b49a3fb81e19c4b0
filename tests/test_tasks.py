import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaff import graphs, tasks
from taskaff.errors import InvalidInputError, ParseError
from tests.conftest import two_block_graph


def ring_graph(n):
    return graphs.build_graph([(i, (i + 1) % n) for i in range(n)])


class TestLoadCommunities:
    def test_top_one_by_size(self, tmp_path):
        g = ring_graph(5)
        path = tmp_path / "cmty.txt"
        path.write_text("0 1 2\n3 4\n")
        comms = tasks.load_communities(path, g, top_k=1)
        assert len(comms) == 1
        assert set(comms[0]) == {0, 1, 2}

    def test_shortfall(self, tmp_path):
        g = ring_graph(5)
        path = tmp_path / "cmty.txt"
        path.write_text("0 1 2\n3 4\n")
        with pytest.raises(InvalidInputError,
                           match=r"^requested top 5 communities \(available: 2\)$"):
            tasks.load_communities(path, g, top_k=5)

    def test_sizes_sorted_non_increasing(self, tmp_path):
        rng = np.random.default_rng(0)
        g = ring_graph(200)
        lines = []
        for _ in range(20):
            size = int(rng.integers(3, 40))
            members = rng.choice(200, size=size, replace=False)
            lines.append(" ".join(map(str, members)))
        path = tmp_path / "cmty.txt"
        path.write_text("\n".join(lines) + "\n")
        comms = tasks.load_communities(path, g, top_k=20)
        sizes = [c.size for c in comms]
        assert sizes == sorted(sizes, reverse=True)

    def test_members_absent_from_graph_dropped(self, tmp_path):
        g = graphs.load_edge_list(write_edges(tmp_path, "10 20\n20 30\n"))
        path = tmp_path / "cmty.txt"
        path.write_text("10 20 999\n")
        comms = tasks.load_communities(path, g, top_k=1)
        assert comms[0].size == 2


def write_edges(tmp_path, text):
    p = tmp_path / "edges.txt"
    p.write_text(text)
    return p


class TestMakeSplits:
    def test_paper_fractions_arithmetic(self):
        # |C|=10, fracs (0.1, 0.1, 0.2), N=100 -> 1 pos, 1 neg, 20 val
        g = ring_graph(100)
        comm = [np.arange(10)]
        policy = tasks.SplitPolicy(0.1, 0.1, 0.2, seed=0)
        ts = tasks.make_splits(comm, g, policy)
        train = ts.train_mask[0]
        assert train.size == 2
        assert ts.labels[0][train].sum() == 1  # exactly one positive
        assert ts.val_mask[0].size == 20
        assert ts.test_mask[0].size == 100 - 2 - 20

    def test_deterministic_under_seed(self):
        g = ring_graph(60)
        comm = [np.arange(12), np.arange(20, 31)]
        policy = tasks.SplitPolicy(0.2, 0.2, 0.25, seed=5)
        a = tasks.make_splits(comm, g, policy)
        b = tasks.make_splits(comm, g, policy)
        for i in range(a.num_tasks):
            np.testing.assert_array_equal(a.train_mask[i], b.train_mask[i])
            np.testing.assert_array_equal(a.val_mask[i], b.val_mask[i])
            np.testing.assert_array_equal(a.test_mask[i], b.test_mask[i])

    def test_different_seed_same_counts(self):
        g = ring_graph(80)
        comm = [np.arange(15), np.arange(30, 52)]
        a = tasks.make_splits(comm, g, tasks.SplitPolicy(0.15, 0.15, 0.2, seed=1))
        b = tasks.make_splits(comm, g, tasks.SplitPolicy(0.15, 0.15, 0.2, seed=2))
        changed = False
        for i in range(a.num_tasks):
            assert a.train_mask[i].size == b.train_mask[i].size
            assert a.val_mask[i].size == b.val_mask[i].size
            assert a.test_mask[i].size == b.test_mask[i].size
            changed |= not np.array_equal(a.val_mask[i], b.val_mask[i])
        assert changed

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_masks_disjoint_and_in_range(self, seed):
        rng = np.random.default_rng(seed)
        g = ring_graph(70)
        comm = [np.sort(rng.choice(70, size=int(rng.integers(4, 30)), replace=False))
                for _ in range(5)]
        ts = tasks.make_splits(comm, g, tasks.SplitPolicy(0.2, 0.2, 0.3, seed=seed))
        for i in range(ts.num_tasks):
            tr, va, te = (set(ts.train_mask[i]), set(ts.val_mask[i]), set(ts.test_mask[i]))
            assert not (tr & va) and not (tr & te) and not (va & te)
            assert (tr | va | te) <= set(range(70))

    def test_tiny_community_rejected(self):
        g = ring_graph(30)
        ts = tasks.make_splits([np.array([3]), np.arange(10)], g,
                               tasks.SplitPolicy(0.2, 0.2, 0.2, seed=0))
        assert ts.num_tasks == 1

    def test_train_has_both_classes(self):
        rng = np.random.default_rng(8)
        g = ring_graph(50)
        comm = [np.sort(rng.choice(50, size=7, replace=False)) for _ in range(4)]
        ts = tasks.make_splits(comm, g, tasks.SplitPolicy(0.1, 0.1, 0.2, seed=3))
        for i in range(ts.num_tasks):
            y = ts.labels[i][ts.train_mask[i]]
            assert (y == 1).any() and (y == 0).any()


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        g = two_block_graph(rng, n_per=15)
        comm = [np.arange(8), np.arange(15, 26)]
        ts = tasks.make_splits(comm, g, tasks.SplitPolicy(0.2, 0.2, 0.25, seed=4))
        path = tmp_path / "taskset.json"
        tasks.save_task_set(ts, path)
        loaded = tasks.load_task_set(path)
        assert loaded.num_tasks == ts.num_tasks
        for i in range(ts.num_tasks):
            np.testing.assert_array_equal(loaded.labels[i], ts.labels[i])
            np.testing.assert_array_equal(loaded.train_mask[i], ts.train_mask[i])
            np.testing.assert_array_equal(loaded.val_mask[i], ts.val_mask[i])
            np.testing.assert_array_equal(loaded.test_mask[i], ts.test_mask[i])

    def test_test_mask_is_the_rest_and_a_stored_one_ignored(self, tmp_path):
        # files written before the test mask was left out still hold a "test" list
        import json

        g = two_block_graph(np.random.default_rng(2), n_per=15)
        ts = tasks.make_splits([np.arange(8)], g, tasks.SplitPolicy(0.2, 0.2, 0.25, seed=4))
        path = tmp_path / "taskset.json"
        tasks.save_task_set(ts, path)
        payload = json.loads(path.read_text())
        assert "test" not in payload["tasks"][0]
        payload["tasks"][0]["test"] = [0]
        path.write_text(json.dumps(payload))
        test = tasks.load_task_set(path).test_mask[0]
        assert np.array_equal(test, ts.test_mask[0])
        assert np.array_equal(test, np.setdiff1d(np.arange(30), np.concatenate(
            [ts.train_mask[0], ts.val_mask[0]])))

    @pytest.mark.parametrize("node", [-1, 30])
    def test_positive_outside_the_nodes_refused(self, tmp_path, node):
        # -1 would label node 29 by wrap-around, 30 would index past the end
        import json

        g = two_block_graph(np.random.default_rng(2), n_per=15)
        ts = tasks.make_splits([np.arange(8)], g, tasks.SplitPolicy(0.2, 0.2, 0.25, seed=4))
        path = tmp_path / "taskset.json"
        tasks.save_task_set(ts, path)
        payload = json.loads(path.read_text())
        payload["tasks"][0]["positives"].append(node)
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="task 0 has a positive node id outside 0..29"):
            tasks.load_task_set(path)

    @pytest.mark.parametrize("kind", ["train", "val"])
    def test_empty_mask_refused(self, tmp_path, kind):
        # no model trains on an empty train mask or is scored on an empty val mask
        import json

        g = two_block_graph(np.random.default_rng(2), n_per=15)
        comm = [np.arange(8), np.arange(15, 26), np.arange(4, 12)]
        ts = tasks.make_splits(comm, g, tasks.SplitPolicy(0.2, 0.2, 0.25, seed=4))
        path = tmp_path / "taskset.json"
        tasks.save_task_set(ts, path)
        payload = json.loads(path.read_text())
        payload["tasks"][2][kind] = []
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: task 2 has an empty "
                                             f"{kind} mask$"):
            tasks.load_task_set(path)


def old_taskset_json(communities, n, policy):
    """taskset.json as the setdiff1d splits and json.dump wrote it, less the
    test masks, and those masks (the oracle)."""
    import json
    import math

    all_nodes = np.arange(n)
    recs, tests = [], []
    for idx, comm in enumerate(communities):
        if comm.size < 2:
            continue
        outside = np.setdiff1d(all_nodes, comm, assume_unique=False)
        if outside.size == 0:
            continue
        rng = np.random.default_rng([policy.seed, idx])
        n_pos = math.ceil(policy.train_pos_frac * comm.size)
        n_neg = min(math.ceil(policy.train_neg_frac * comm.size), outside.size)
        train = np.concatenate([rng.choice(comm, size=n_pos, replace=False),
                                rng.choice(outside, size=n_neg, replace=False)])
        rest = np.setdiff1d(all_nodes, train)
        val = rng.choice(rest, size=math.ceil(policy.val_frac * rest.size), replace=False)
        tests.append(np.setdiff1d(rest, val))
        recs.append({"positives": comm.tolist(), "train": np.sort(train).tolist(),
                     "val": np.sort(val).tolist()})
    buf = io.StringIO()
    json.dump({"num_nodes": n, "tasks": recs}, buf, sort_keys=True)
    return buf.getvalue(), tests


class TestSplitsMatchSetdiffSplits:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 2024])
    def test_taskset_json_bytes(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = 300
        g = ring_graph(n)
        comms = [np.sort(rng.choice(n, size=int(rng.integers(1, 120)), replace=False))
                 for _ in range(8)] + [np.array([5]), np.arange(n)]  # no positives, no negatives
        policy = tasks.SplitPolicy(0.15, 0.1, 0.25, seed=seed)
        path = tmp_path / "taskset.json"
        tasks.save_task_set(tasks.make_splits(comms, g, policy), path)
        text, test_masks = old_taskset_json(comms, n, policy)
        assert path.read_text(encoding="utf-8") == text
        loaded = tasks.load_task_set(path)
        assert len(loaded.test_mask) == len(test_masks)
        for got, want in zip(loaded.test_mask, test_masks):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestValidation:
    def test_policy_fraction_bounds(self):
        with pytest.raises(InvalidInputError):
            tasks.SplitPolicy(train_pos_frac=0.0)
        with pytest.raises(InvalidInputError):
            tasks.SplitPolicy(train_pos_frac=0.9, val_frac=0.2)

    def test_overlapping_masks_rejected(self):
        y = np.zeros(10)
        with pytest.raises(InvalidInputError):
            tasks.TaskSet(10, (y,), (np.array([0, 1]),), (np.array([1, 2]),),
                          (np.array([3]),))

    @pytest.mark.parametrize("val,test", [([2], [1]), ([3], [3]), ([4, 9], [9])])
    def test_any_shared_node_rejected(self, val, test):
        y = np.zeros(10)
        with pytest.raises(InvalidInputError, match="disjoint"):
            tasks.TaskSet(10, (y,), (np.array([0, 1]),), (np.array(val),), (np.array(test),))

    def test_duplicates_inside_one_mask_accepted(self):
        y = np.zeros(10)
        ts = tasks.TaskSet(10, (y,), (np.array([0, 0, 1]),), (np.array([2, 2]),),
                           (np.array([], dtype=np.int64),))
        assert ts.num_tasks == 1

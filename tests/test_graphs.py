import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskaff import graphs
from taskaff.errors import InvalidInputError, ParseError, TaskAffError
from tests.conftest import block_task_set, save_edge_list, two_block_graph


def residual(err) -> float:
    """The residual that the refusal of a PPR iteration at its cap names."""
    text = re.fullmatch(r"PPR propagation did not converge \(residual: (.+)\)", str(err.value))
    return float(text.group(1))


def ppr(g, seeds, teleport, tol=graphs.PPR_DEFAULT_TOL):
    """personalized_pagerank of ``g``'s walk, the one the caller builds."""
    return graphs.personalized_pagerank(graphs._transposed_walk(g), seeds, teleport, tol)


def adjacency(g):
    """The graph's 0/1 adjacency as a scipy CSR matrix, from its indptr and
    indices."""
    from scipy import sparse

    return sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                             shape=(g.num_nodes, g.num_nodes))


def scipy_operator(g, kind):
    """The row- or symmetric-normalized operator as scipy's sparse products
    build it: diags(1/deg) @ A plus a 1.0 self-loop on each isolated node, or
    D^-1/2 A D^-1/2. The reference the numpy kernel must match bit for bit."""
    from scipy import sparse

    adj = adjacency(g)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    if kind == "symmetric-normalized":
        inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
        d = sparse.diags(inv_sqrt)
        return (d @ adj @ d).tocsr()
    isolated = np.where(deg == 0)[0]
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    p = sparse.diags(inv) @ adj
    if isolated.size:
        p = (p + sparse.csr_matrix((np.ones(isolated.size), (isolated, isolated)),
                                   shape=(g.num_nodes, g.num_nodes))).tocsr()
    return p.tocsr()


@st.composite
def small_graphs(draw, isolated):
    """A graph of up to 26 nodes with 1-4 standard-normal feature columns:
    with ``isolated`` one node no edge touches, else a ring through every
    node so that none is isolated."""
    n = draw(st.integers(2, 25))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=4 * n))
    if isolated:
        n += 1
    else:
        pairs += [(i, (i + 1) % n) for i in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, draw(st.integers(1, 4))))
    return graphs.build_graph(pairs, num_nodes=n).with_features(x)


def write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_two_edge_path(self, tmp_path):
        g = graphs.load_edge_list(write(tmp_path, "0 1\n1 2\n"))
        assert g.num_nodes == 3
        assert g.indices.size == 2 * 2

    def test_comment_only_file_is_invalid(self, tmp_path):
        with pytest.raises(InvalidInputError):
            graphs.load_edge_list(write(tmp_path, "# comment\n# another\n"))

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(ParseError, match="^line 2: "):
            graphs.load_edge_list(write(tmp_path, "0 1\n0 1 2\n"))

    def test_non_integer_id(self, tmp_path):
        with pytest.raises(ParseError):
            graphs.load_edge_list(write(tmp_path, "0 x\n"))

    def test_snap_fragment_node_count(self, tmp_path):
        # 50-line fragment with sparse non-contiguous ids, duplicates included
        rng = np.random.default_rng(0)
        ids = rng.choice(10_000, size=40, replace=False)
        lines = []
        for k in range(50):
            u, v = rng.choice(ids, size=2, replace=False)
            lines.append(f"{u} {v}")
        path = write(tmp_path, "# SNAP-style fragment\n" + "\n".join(lines) + "\n")
        g = graphs.load_edge_list(path)
        # one-pass oracle over distinct ids
        distinct = set()
        for line in lines:
            a, b = line.split()
            distinct.update((int(a), int(b)))
        assert g.num_nodes == len(distinct)

    def test_duplicate_edges_deduplicated(self, tmp_path):
        g = graphs.load_edge_list(write(tmp_path, "0 1\n1 0\n0 1\n"))
        assert g.indices.size == 2 * 1

    def test_idmap_persisted(self, tmp_path):
        import json

        idmap = tmp_path / "idmap.json"
        g = graphs.load_edge_list(write(tmp_path, "7 9\n9 13\n"), idmap_path=idmap)
        stored = json.loads(idmap.read_text())
        assert stored == {str(int(o)): i for i, o in enumerate(g.orig_ids)}

    def test_roundtrip_edge_multiset(self, tmp_path):
        rng = np.random.default_rng(3)
        g = two_block_graph(rng, n_per=10, p_in=0.4, p_out=0.1)
        out = tmp_path / "saved.txt"
        save_edge_list(g, out)
        g2 = graphs.load_edge_list(out)

        def edge_set(graph):
            from scipy import sparse

            coo = sparse.triu(adjacency(graph), k=1).tocoo()
            ids = graph.orig_ids
            return {tuple(sorted((int(ids[u]), int(ids[v]))))
                    for u, v in zip(coo.row, coo.col)}

        assert edge_set(g) == edge_set(g2)


def old_load_edge_list(path):
    """The line-loop loader that the array parse replaced, kept as the oracle:
    (orig_ids, CSR adjacency, idmap dict, self-loop count)."""
    from scipy import sparse

    remap, edges, n_self = {}, [], 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected two node ids, got {line!r}")
            try:
                u_raw, v_raw = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer node id in {line!r}") from None
            u = remap.setdefault(u_raw, len(remap))
            v = remap.setdefault(v_raw, len(remap))
            if u == v:
                n_self += 1
                continue
            edges.append((u, v))
    if not remap:
        raise InvalidInputError(f"edge list {path} holds no edges")
    orig_ids = np.empty(len(remap), dtype=np.int64)
    for orig, internal in remap.items():
        orig_ids[internal] = orig
    n = len(remap)
    seen = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    if seen:
        arr = np.array(seen, dtype=np.int64)
        adj = sparse.csr_matrix((np.ones(2 * len(seen)),
                                 (np.concatenate([arr[:, 0], arr[:, 1]]),
                                  np.concatenate([arr[:, 1], arr[:, 0]]))), shape=(n, n))
    else:
        adj = sparse.csr_matrix((n, n))
    return orig_ids, adj, {str(int(o)): i for i, o in enumerate(orig_ids)}, n_self


ID = st.sampled_from([0, 1, 2, 3, 7, 42, 10**6, 10**12, -5])
GAP = st.sampled_from([" ", "\t", "  ", " \t ", "\u3000", "\x0b", "\xa0", "\x85", "\u200b"])
DATA_LINE = st.builds(lambda pad, u, gap, v, end: f"{pad}{u}{gap}{v}{end}",
                      st.sampled_from(["", " ", "\t"]), ID, GAP, ID,
                      st.sampled_from(["", " ", "\t"]))
SELF_LOOP = ID.map(lambda u: f"{u} {u}")
OTHER_LINE = st.sampled_from(["", "   ", "\t", "# comment", "  # indented comment",
                              "#", "# 1 2"])
# Lines the loop accepts or refuses in its own ways: inline comments,
# three fields, floats, underscores, non-ASCII digits, a sign.
ODD_LINE = st.sampled_from(["1 2 # x", "1 2 3", "1.0 2", "x 1", "1_0 2", "\u0663 2",
                            "+1 -2", "01 2", "1", "1 2#"])


@st.composite
def edge_files(draw, odd=False):
    line = st.one_of(DATA_LINE, DATA_LINE.map(lambda l: " ".join(reversed(l.split()))),
                     SELF_LOOP, OTHER_LINE, *([ODD_LINE] if odd else []))
    lines = draw(st.lists(line, min_size=0, max_size=30))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestLoadEdgeListMatchesLineLoop:
    def check_same(self, tmp_path, text, caplog):
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = old_load_edge_list(path)
        except (ParseError, InvalidInputError) as exc:
            with pytest.raises(type(exc)) as err:
                graphs.load_edge_list(path)
            assert str(err.value) == str(exc)
            return
        idmap = tmp_path / "idmap.json"
        caplog.clear()
        g = graphs.load_edge_list(path, idmap_path=idmap)
        orig_ids, adj, ids, n_self = expected
        np.testing.assert_array_equal(g.orig_ids, orig_ids)
        assert g.orig_ids.dtype == orig_ids.dtype
        for name in ("indptr", "indices"):
            got, want = getattr(g, name), getattr(adj, name)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        assert (adj.data == 1.0).all()
        assert idmap.read_text() == json.dumps(ids, sort_keys=True, indent=0)
        warned = [r.getMessage() for r in caplog.records if "self-loop" in r.getMessage()]
        assert warned == ([f"dropped {n_self} self-loop(s) while loading {path}"]
                          if n_self else [])

    # check_same clears caplog before each example
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=edge_files())
    def test_well_formed_files(self, tmp_path_factory, caplog, text):
        self.check_same(tmp_path_factory.mktemp("e"), text, caplog)

    # check_same clears caplog before each example
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=edge_files(odd=True))
    def test_files_with_odd_lines(self, tmp_path_factory, caplog, text):
        self.check_same(tmp_path_factory.mktemp("e"), text, caplog)

    def test_generated_snap_file(self, tmp_path, caplog):
        rng = np.random.default_rng(5)
        ids = rng.choice(10**9, size=300, replace=False)
        pairs = ids[rng.integers(0, 300, size=(2000, 2))]
        lines = [f"{u}\t{v}" for u, v in pairs.tolist()]
        self.check_same(tmp_path, "# header\n" + "\n".join(lines) + "\n", caplog)

    @pytest.mark.parametrize("text,lineno", [
        ("0 1\n# c\n\n1 2 3\n", 4),
        ("0 1\n1.0 2\n", 2),
        ("# c\n0 1\n0 x\n", 3),
        ("0 1\n1 2 # comment\n2 3\n", 2),
    ])
    def test_parse_error_line_numbers(self, tmp_path, text, lineno):
        with pytest.raises(ParseError, match=f"^line {lineno}: "):
            graphs.load_edge_list(write(tmp_path, text))


class TestDiffuseFeatures:
    def test_zero_hops_is_identity(self):
        g = graphs.build_graph([(0, 1), (1, 2)]).with_features(np.arange(6.0).reshape(3, 2))
        out = graphs.diffuse_features(g, graphs.DiffusionOperator(), hops=0)
        np.testing.assert_array_equal(out, g.node_features)

    def test_two_node_path_swaps(self):
        g = graphs.build_graph([(0, 1)]).with_features(np.array([[1.0], [0.0]]))
        out = graphs.diffuse_features(g, graphs.DiffusionOperator("row-normalized"), hops=1)
        np.testing.assert_allclose(out[:, 1], [0.0, 1.0])

    @pytest.mark.parametrize("kind", ["row-normalized", "symmetric-normalized", "ppr"])
    def test_matches_dense_power_oracle(self, kind):
        rng = np.random.default_rng(7)
        g = two_block_graph(rng, n_per=5, p_in=0.7, p_out=0.3)
        g = g.with_features(rng.standard_normal((10, 3)))
        op = graphs.DiffusionOperator(kind)
        out = graphs.diffuse_features(g, op, hops=2)
        if kind == "ppr":
            walk = scipy_operator(g, "row-normalized").toarray()
            a = graphs.PPR_TELEPORT
            p = a * np.linalg.solve(np.eye(10) - (1 - a) * walk.T, np.eye(10))
        else:
            p = scipy_operator(g, kind).toarray()
        expected = np.hstack([g.node_features, p @ g.node_features,
                              p @ p @ g.node_features])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("isolated", [False, True])
    @pytest.mark.parametrize("kind", ["row-normalized", "symmetric-normalized"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_scipy_operator(self, kind, isolated, data):
        g = data.draw(small_graphs(isolated))
        hops = data.draw(st.integers(1, 3))
        p = scipy_operator(g, kind)
        blocks = [g.node_features]
        for _ in range(hops):
            blocks.append(np.asarray(p @ blocks[-1]))
        out = graphs.diffuse_features(g, graphs.DiffusionOperator(kind), hops)
        want = np.hstack(blocks)
        assert out.shape == want.shape and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("isolated", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_transposed_walk_is_scipy_transpose(self, isolated, data):
        g = data.draw(small_graphs(isolated))
        got = graphs._transposed_walk(g)
        want = scipy_operator(g, "row-normalized").T.tocsr()
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_ppr_nonconvergence_raises(self, monkeypatch):
        edges = [(i, (i + 1) % 40) for i in range(40)]
        rng = np.random.default_rng(0)
        g = graphs.build_graph(edges).with_features(rng.standard_normal((40, 2)))
        monkeypatch.setattr(graphs, "PPR_TELEPORT", 0.001)
        op = graphs.DiffusionOperator("ppr")
        with pytest.raises(TaskAffError) as err:
            graphs.diffuse_features(g, op, hops=1)
        assert residual(err) > 0

    def test_ppr_zero_column_stays_zero(self):
        rng = np.random.default_rng(6)
        g = two_block_graph(rng, n_per=6, p_in=0.5, p_out=0.2)
        x = rng.standard_normal((12, 3))
        x[:, 1] = 0.0
        out = graphs.diffuse_features(g.with_features(x),
                                      graphs.DiffusionOperator("ppr"), hops=2)
        assert not out[:, [1, 4, 7]].any()
        assert out[:, [3, 5, 6, 8]].all()

    def test_ppr_memory_is_linear_in_graph_size(self):
        # A dense N x N solve peaks near 4 * N^2 * 8 B (~290 MB) on this graph.
        import tracemalloc

        rng = np.random.default_rng(8)
        n, d = 3000, 16
        chords = zip(range(n), rng.integers(0, n, size=n).tolist())
        ring = [(i, (i + 1) % n) for i in range(n)]
        g = graphs.build_graph(ring + list(chords), num_nodes=n).with_features(
            rng.standard_normal((n, d)))
        op = graphs.DiffusionOperator("ppr")
        tracemalloc.start()
        try:
            out = graphs.diffuse_features(g, op, hops=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(out).all()
        assert peak < 16 * n * d * 8

    def test_prefix_consistency(self):
        rng = np.random.default_rng(9)
        g = two_block_graph(rng, n_per=6, p_in=0.5, p_out=0.2)
        g = g.with_features(rng.standard_normal((12, 2)))
        op = graphs.DiffusionOperator()
        h2 = graphs.diffuse_features(g, op, hops=2)
        h3 = graphs.diffuse_features(g, op, hops=3)
        np.testing.assert_array_equal(h3[:, : h2.shape[1]], h2)

    def test_row_normalized_rows_sum_to_one_with_isolated(self):
        # node 3 isolated: self-loop row keeps the operator stochastic
        g = graphs.build_graph([(0, 1), (1, 2)], num_nodes=4).with_features(np.ones((4, 1)))
        out = graphs.diffuse_features(g, graphs.DiffusionOperator("row-normalized"), 1)
        np.testing.assert_allclose(out[:, 1], 1.0)


class TestPersonalizedPagerank:
    def test_isolated_seed_keeps_mass(self):
        g = graphs.build_graph([(0, 1)], num_nodes=3)
        r = ppr(g, [2], teleport=0.2)
        assert r[2] == pytest.approx(1.0, abs=1e-9)

    def test_teleport_one_returns_seed_distribution(self):
        g = graphs.build_graph([(0, 1), (1, 2), (2, 3)])
        r = ppr(g, [0, 2], teleport=1.0)
        np.testing.assert_allclose(r, [0.5, 0.0, 0.5, 0.0])

    def test_bitwise_equal_to_reference_power_loop(self):
        rng = np.random.default_rng(12)
        g = two_block_graph(rng, n_per=40, p_in=0.2, p_out=0.02)
        seeds = rng.choice(80, size=5, replace=False)
        pt = scipy_operator(g, "row-normalized").T.tocsr()
        s = np.zeros(80)
        s[seeds] = 1.0 / 5
        r = s.copy()
        while True:
            r_next = 0.15 * s + 0.85 * (pt @ r)
            residual = float(np.abs(r_next - r).sum())
            r = r_next
            if residual < 1e-10:
                break
        out = ppr(g, seeds, teleport=0.15)
        assert out.tobytes() == r.tobytes()

    def test_cycle_matches_dense_solve(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        g = graphs.build_graph(edges)
        alpha = 0.15
        r = ppr(g, [0], teleport=alpha, tol=1e-12)
        p = scipy_operator(g, "row-normalized").toarray()
        s = np.zeros(5)
        s[0] = 1.0
        oracle = np.linalg.solve(np.eye(5) - (1 - alpha) * p.T, alpha * s)
        np.testing.assert_allclose(r, oracle, atol=1e-10)

    def test_nonconvergence_raises(self):
        edges = [(i, (i + 1) % 40) for i in range(40)]
        g = graphs.build_graph(edges)
        with pytest.raises(TaskAffError) as err:
            ppr(g, [0], teleport=0.001, tol=1e-15)
        assert residual(err) > 0

    def test_empty_seed_rejected(self):
        g = graphs.build_graph([(0, 1)])
        with pytest.raises(InvalidInputError):
            ppr(g, [], teleport=0.2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), teleport=st.floats(0.05, 1.0))
    def test_output_is_probability_vector(self, seed, teleport):
        rng = np.random.default_rng(seed)
        g = two_block_graph(rng, n_per=8, p_in=0.5, p_out=0.1)
        seeds = rng.choice(16, size=3, replace=False)
        r = ppr(g, seeds, teleport=teleport, tol=1e-10)
        assert r.min() >= -1e-12
        assert abs(r.sum() - 1.0) < 1e-8


class TestPprGroupSimilarity:
    def test_identical_seed_sets_give_within_one(self):
        rng = np.random.default_rng(1)
        g = two_block_graph(rng, n_per=10)
        pos = np.arange(3)
        y = np.zeros(20)
        y[pos] = 1.0
        from taskaff.tasks import TaskSet

        ts = TaskSet(20, (y, y.copy()), (pos, pos.copy()),
                     (np.array([15]), np.array([16])),
                     (np.array([17]), np.array([18])))
        within, between = graphs.ppr_group_similarity(g, ts, [[0, 1]])
        assert within == pytest.approx(1.0, abs=1e-9)
        assert between is None

    def test_singleton_groups_have_no_within(self):
        rng = np.random.default_rng(2)
        g = two_block_graph(rng)
        ts = block_task_set(g, rng, tasks_per_block=1)
        within, between = graphs.ppr_group_similarity(g, ts, [[0], [1]])
        assert within is None
        assert between is not None

    def test_two_blocks_within_exceeds_between(self):
        rng = np.random.default_rng(4)
        g = two_block_graph(rng)
        ts = block_task_set(g, rng)
        grouping = [[0, 1], [2, 3]]
        within, between = graphs.ppr_group_similarity(g, ts, grouping)
        assert within > between
        # independent cosine recomputation
        vecs = []
        for i in range(4):
            seeds = ts.train_mask[i][ts.labels[i][ts.train_mask[i]] == 1]
            vecs.append(ppr(g, seeds, 0.15))
        cos = lambda u, v: float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        expect_within = np.mean([cos(vecs[0], vecs[1]), cos(vecs[2], vecs[3])])
        expect_between = np.mean([cos(vecs[i], vecs[j])
                                  for i in (0, 1) for j in (2, 3)])
        assert within == pytest.approx(expect_within, abs=1e-12)
        assert between == pytest.approx(expect_between, abs=1e-12)

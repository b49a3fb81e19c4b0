import filecmp

import numpy as np
import pytest

import sbm
from taskaff import graphs, tasks

SMALL = sbm.SbmConfig(num_nodes=300, num_blocks=6, min_block=20, max_block=80,
                      num_edges=2400, feature_dim=4)


def _files(out):
    return [out / "edges.txt", out / "communities.txt", out / "features.csv"]


def test_same_seed_gives_identical_files(tmp_path):
    a = sbm.generate(SMALL, 5, str(tmp_path / "a"))
    b = sbm.generate(SMALL, 5, str(tmp_path / "b"))
    for fa, fb in zip(_files(tmp_path / "a"), _files(tmp_path / "b")):
        assert filecmp.cmp(fa, fb, shallow=False)
    assert np.array_equal(a["block_of"], b["block_of"])


def test_other_seed_gives_other_graph(tmp_path):
    sbm.generate(SMALL, 5, str(tmp_path / "a"))
    sbm.generate(SMALL, 6, str(tmp_path / "b"))
    assert not filecmp.cmp(tmp_path / "a" / "edges.txt", tmp_path / "b" / "edges.txt",
                           shallow=False)


def test_block_sizes_respect_bounds_and_total():
    sizes = sbm.block_sizes(SMALL, np.random.default_rng(0))
    assert sizes.sum() == SMALL.num_nodes
    assert sizes.min() >= SMALL.min_block and sizes.max() <= SMALL.max_block


def test_files_have_the_promised_quirks_and_load(tmp_path):
    out = sbm.generate(SMALL, 3, str(tmp_path))
    lines = (tmp_path / "edges.txt").read_text().splitlines()
    assert lines[0].startswith("#")
    pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert sum(u == v for u, v in pairs) == sbm.SELF_LOOPS
    ids = {u for p in pairs for u in p}
    assert len(ids) == SMALL.num_nodes
    assert max(ids) >= 2 * SMALL.num_nodes  # external ids are not 0..N-1

    g = graphs.load_edge_list(out["edges"])
    feats = graphs.load_features_csv(out["features"], g.num_nodes)
    comms = tasks.load_communities(out["communities"], g, SMALL.num_blocks)
    # Feature rows follow the loader's internal order: each community's
    # members share their block, so their rows cluster around one centroid.
    for comm in comms:
        assert np.unique(out["block_of"][comm]).size == 1
    assert feats.shape == (SMALL.num_nodes, SMALL.feature_dim)


def test_impossible_bounds_are_rejected():
    bad = sbm.SbmConfig(num_nodes=100, num_blocks=2, min_block=60, max_block=80,
                        num_edges=400)
    with pytest.raises(ValueError):
        sbm.block_sizes(bad, np.random.default_rng(0))

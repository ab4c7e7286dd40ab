import random

import numpy as np
import pytest

from plexmine.graph import MultiplexGraph
from plexmine.matcher import (
    MatchError,
    code_embeddings,
    match_array,
    mis_support_array,
    node_set_ids,
)
from plexmine.miner import MiningConfig, mine
from plexmine.pattern import Pattern, PatternEdge, Strategy, canonical_code

from oracles import (
    brute_embeddings,
    enumerate_embeddings,
    image_table,
    mis_support,
    random_connected_pattern,
    random_multiplex,
)


def test_single_edge_pattern_counts_edges():
    g = MultiplexGraph(range(6), [(0, 1, 0), (2, 3, 0), (4, 5, 0)], directed=False)
    p = Pattern(False, ("_", "_"), (PatternEdge(0, 1, 0, False),))
    embs = enumerate_embeddings(p, g)
    # each undirected edge admits two injective maps of a symmetric pattern
    assert len(embs) == 6
    assert mis_support(embs, 2) == 6


def test_image_table_figure(image_table_graph, chain_pattern):
    embs = enumerate_embeddings(chain_pattern, image_table_graph)
    assert embs == [(1, 3, 6, 8), (1, 3, 6, 9), (8, 5, 2, 1), (9, 7, 4, 1)]
    table = image_table(embs, 4)
    assert [len(s) for s in table] == [3, 3, 3, 3]
    assert mis_support(embs, 4) == 3


def test_star_center_limits_support():
    # one hub with 5 leaves: many embeddings, support pinned by the center
    edges = [(0, i, 0) for i in range(1, 6)]
    g = MultiplexGraph(range(6), edges, attrs={0: "c", **{i: "l" for i in range(1, 6)}},
                       directed=False)
    star = Pattern(False, ("c", "l", "l"),
                   (PatternEdge(0, 1, 0, False), PatternEdge(0, 2, 0, False)))
    embs = enumerate_embeddings(star, g)
    assert len(embs) == 20  # 5*4 ordered leaf pairs
    assert mis_support(embs, 3) == 1  # the center image set is {0}


def test_mixed_arity_rejected():
    with pytest.raises(MatchError):
        mis_support([(0, 1), (0, 1, 2)], 2)


def test_empty_embeddings_support_zero():
    assert mis_support([], 3) == 0
    g = MultiplexGraph(range(2), [(0, 1, 0)], directed=False)
    p = Pattern(False, ("nope",), ())
    assert enumerate_embeddings(p, g) == []


def test_directedness_mismatch_rejected():
    g = MultiplexGraph(range(2), [(0, 1, 0)], directed=True)
    p = Pattern(False, ("_", "_"), (PatternEdge(0, 1, 0, False),))
    with pytest.raises(MatchError):
        match_array(p, g)


def test_direction_respected_in_directed_graphs():
    g = MultiplexGraph(range(2), [(0, 1, 0)], directed=True)
    fwd = Pattern(True, ("_", "_"), (PatternEdge(0, 1, 0, True),))
    rev = Pattern(True, ("_", "_"), (PatternEdge(0, 1, 0, False),))
    assert enumerate_embeddings(fwd, g) == [(0, 1)]
    assert enumerate_embeddings(rev, g) == [(1, 0)]


def test_matches_bruteforce_on_random_instances():
    rng = random.Random(123)
    checked = 0
    for _ in range(120):
        g = random_multiplex(rng, max_nodes=8)
        p = random_connected_pattern(
            rng, max_nodes=3, n_layers=max(1, len(g.layers)),
            labels=sorted(set(g.attrs.values())), directed=g.directed)
        if not p.layers <= g.layers:
            continue
        got = enumerate_embeddings(p, g)
        want = brute_embeddings(p, g)
        assert got == want
        checked += 1
    assert checked > 60


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("directed", [False, True])
def test_code_walk_matches_bruteforce(strategy, directed):
    # codes use up to three labels and layers, so many graphs lack one of them
    rng = random.Random(31)
    found = missing = 0
    for _ in range(200):
        g = random_multiplex(rng, max_nodes=7, directed=directed)
        p = random_connected_pattern(rng, max_nodes=4, n_layers=3, labels="abc",
                                     directed=directed)
        code = canonical_code(p, strategy)
        E = code_embeddings(code, g)
        assert E.dtype == np.int32 and E.shape[1] == p.k
        assert [tuple(row) for row in E.tolist()] == brute_embeddings(code.pattern, g)
        found += len(E) > 0
        missing += not (p.layers <= g.layers and set(p.node_labels) <= set(g.attrs.values()))
    assert found > 20 and missing > 20


def test_mis_array_agrees_with_list_form(image_table_graph, chain_pattern):
    E = match_array(chain_pattern, image_table_graph)
    assert mis_support_array(E, 1, np.zeros(10, dtype=bool)) == 3


def test_sigma_bounded_support_matches_set_oracle():
    # exact at or above sigma, below sigma otherwise, marks left clean
    rng = np.random.default_rng(17)
    for _ in range(300):
        width = int(rng.integers(1, 30))
        n = int(rng.choice([0, 1, int(rng.integers(2, 60))]))
        k = int(rng.integers(1, 5))
        E = rng.integers(0, width, size=(n, k)).astype(np.int64)
        E[: min(n, 1), 0] = width - 1  # the largest id the marks must hold
        true = mis_support([tuple(row) for row in E.tolist()], k)
        marks = np.zeros(width, dtype=bool)
        for sigma in range(0, width + 3):
            got = mis_support_array(E, sigma, marks)
            if true >= sigma:
                assert got == true
            else:
                assert got < sigma
            assert not marks.any()


def _assert_ids_follow_node_sets(E, ids):
    """Equal ids exactly for equal node sets: each determines the other."""
    sets = [frozenset(row) for row in E.tolist()]
    ids = ids.tolist()
    assert all(0 <= i < len(E) for i in ids)
    assert len(set(zip(ids, sets))) == len(set(ids)) == len(set(sets))


@pytest.mark.parametrize("width", [9, 2**40])
def test_node_set_ids_are_equal_exactly_for_equal_node_sets(width):
    """Rows are injective, as embeddings are; at width 2**40 three nodes
    no longer pack into one int64, so the ids are ranked on the way. int32
    rows, as mined embeddings are, take node ids that fit them."""
    rng = random.Random(width)
    for dtype in (np.int64, np.int32):
        for k in (1, 2, 3, 4):
            nodes = rng.sample(range(min(width, np.iinfo(dtype).max)), 6)
            rows = [rng.sample(nodes, k) for _ in range(40)]
            E = np.array(rows, dtype=dtype)
            ids = node_set_ids(E, width)
            assert ids.dtype == np.int32
            _assert_ids_follow_node_sets(E, ids)


def test_node_set_ids_of_int32_rows_pack_in_int64():
    """At width 2**20, 1 * width and 4097 * width agree modulo 2**32, so
    packing int32 rows without promoting them would give these two node
    sets one id."""
    E = np.array([[1, 10_000], [4097, 10_000]], dtype=np.int32)
    _assert_ids_follow_node_sets(E, node_set_ids(E, 2**20))


@pytest.mark.parametrize("directed", [False, True])
def test_node_set_ids_of_mined_embeddings(directed):
    """Symmetric patterns map one node set several ways, so ids repeat."""
    rng = random.Random(8)
    repeated = 0
    for _ in range(10):
        g = random_multiplex(rng, max_nodes=7, directed=directed)
        for rec in mine(g, MiningConfig(1, 3)):
            E = rec.embeddings
            ids = rec.node_set_ids(g.index().width)
            _assert_ids_follow_node_sets(E, ids)
            repeated += len(set(ids.tolist())) < len(E)
    assert repeated >= 10

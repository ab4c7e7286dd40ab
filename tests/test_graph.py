import random

import numpy as np
import pytest

from plexmine import graph
from plexmine.graph import GraphError, MultiplexGraph, flatten_monoplex

from oracles import random_multiplex


def test_loops_dropped_and_duplicates_collapse():
    g = MultiplexGraph([1, 2], [(1, 2, 0), (2, 1, 0), (1, 1, 0)],
                       attrs={1: "a", 2: "a"}, directed=True)
    assert g.n_edges == 2  # both arcs survive, loop dropped
    gu = MultiplexGraph([1, 2], [(1, 2, 0), (2, 1, 0), (1, 1, 0)], directed=False)
    assert gu.n_edges == 1  # (1,2) and (2,1) identified


def test_default_attribute_label():
    g = MultiplexGraph([0, 1], [(0, 1, 0)], directed=False)
    assert g.attrs == {0: "_", 1: "_"}


def test_edge_endpoint_validation():
    with pytest.raises(GraphError):
        MultiplexGraph([0, 1], [(0, 2, 0)])
    with pytest.raises(GraphError):
        MultiplexGraph([0, 1], [(0, 1, 0)], attrs={5: "a"})


def test_flatten_union_semantics():
    g = MultiplexGraph([1, 2], [(1, 2, 0), (1, 2, 1)], directed=False,
                       layers=[0, 1])
    f = flatten_monoplex(g)
    assert f.edges == frozenset({(1, 2, 0)})
    assert f.layers == frozenset({0})


def test_flatten_filter_keeps_nodes():
    g = MultiplexGraph([1, 2, 3, 4], [(1, 2, 0), (3, 4, 1)], directed=False)
    f = flatten_monoplex(g, keep_layers=[0])
    assert f.edges == frozenset({(1, 2, 0)})
    assert f.nodes == g.nodes


def test_flatten_empty_keep_rejected():
    g = MultiplexGraph([1, 2], [(1, 2, 0)])
    with pytest.raises(GraphError):
        flatten_monoplex(g, keep_layers=[])


def test_flatten_matches_distinct_pair_enumeration():
    # oracle: count distinct pairs by brute force on random 3-layer graphs
    rng = random.Random(5)
    for _ in range(25):
        g = random_multiplex(rng, max_nodes=9, max_layers=3)
        f = flatten_monoplex(g)
        pairs = {(u, v) for u, v, _ in g.edges}
        assert f.n_edges == len(pairs)
        assert f.nodes == g.nodes
        assert f.n_edges <= len(pairs)


def test_index_adjacency_matches_edges():
    rng = random.Random(9)
    for _ in range(20):
        g = random_multiplex(rng)
        idx = g.index()
        assert idx.node_arr.dtype == np.int32
        assert all(members.dtype == np.int32 for members in idx.nodes_by_label.values())
        for l in g.layers:
            for table, flip in ((idx.out_, False), (idx.in_, g.directed)):
                indptr, indices = table[l]
                assert indptr.dtype == np.int64 and indices.dtype == np.int32
                listed = set()
                assert len(indptr) == g.n_nodes + 1  # indexed by rank
                for u in g.nodes:
                    r = idx.rank[u]
                    row = indices[indptr[r]:indptr[r + 1]]
                    assert list(row) == sorted(row)  # the miner's row order needs this
                    listed.update((u, int(v)) for v in row)
                expected = set()
                for a, b, el in g.edges:
                    if el != l:
                        continue
                    expected.add((b, a) if flip else (a, b))
                    if not g.directed:
                        expected.add((b, a))
                assert listed == expected


def test_neighbor_expansion_holds_int32_node_ids():
    """Row positions stay int64; the neighbor ids are int32, also when no
    anchor has a neighbor."""
    g = MultiplexGraph(range(4), [(0, 1, 0), (0, 2, 0)], directed=True, layers=[0, 1])
    idx = g.index()
    for layer, anchors in ((0, [0, 3, 0]), (1, [0, 1])):
        rows, nbrs = idx.neighbors_flat(idx.node_arr[anchors], layer, incoming=False)
        assert rows.dtype == np.int64 and nbrs.dtype == np.int32
    assert nbrs.size == 0


def test_index_refuses_node_ids_past_int32():
    # raised before any width-sized array is allocated
    g = MultiplexGraph([0, np.iinfo(np.int32).max], [])
    with pytest.raises(GraphError, match="largest"):
        g.index()


@pytest.mark.parametrize("directed", [False, True])
def test_pair_index_matches_edge_set(directed):
    # non-contiguous node and layer ids; 40 layers need 80 direction bits
    rng = random.Random(41 + directed)
    layer_sets = [[0], [3, 7, 100], [-2, 5], list(range(0, 80, 2))]
    for trial in range(40):
        layers = layer_sets[trial % len(layer_sets)]
        nodes = rng.sample(range(30), rng.randint(2, 12))
        edges = {(rng.choice(nodes), rng.choice(nodes), rng.choice(layers))
                 for _ in range(rng.randint(0, 60))}
        g = MultiplexGraph(nodes, edges, directed=directed, layers=layers)
        idx = g.index()
        assert idx.n_words == -(-2 * len(layers) // 64)
        us = np.repeat(np.arange(idx.width), idx.width)
        vs = np.tile(np.arange(idx.width), idx.width)
        for l in layers:
            want = [g.has_edge(int(u), int(v), l) for u, v in zip(us, vs)]
            assert idx.has_pairs(us, vs, l).tolist() == want


def _gapped(g: MultiplexGraph, rng: random.Random, offset: int) -> MultiplexGraph:
    """``g`` with its node ids sent, in order, to random ids from ``offset``
    up, with gaps between them."""
    ids = sorted(rng.sample(range(offset, offset + 3 * g.n_nodes), g.n_nodes))
    to = dict(zip(sorted(g.nodes), ids))
    return MultiplexGraph(to.values(), [(to[u], to[v], l) for u, v, l in g.edges],
                          attrs={to[n]: a for n, a in g.attrs.items()},
                          directed=g.directed, layers=g.layers)


@pytest.mark.parametrize("directed", [False, True])
def test_pair_rows_and_pairs_agree_with_has_edge(directed, monkeypatch):
    """On graphs whose node ids have gaps, ``pair_rows`` gives a joined
    pair its row of ``pair_bits`` and every other pair, ids that are not
    nodes included, the trailing zero row, in its input's shape; ``pairs``
    lists the joined pairs ascending in (u, v), in row order. Every id in
    ``[0, width)`` is probed at offset 0; from 46,341 up, where a product
    of two ids passes 2**31, the ids from the offset up and a few below.
    Each graph is probed both ways: by the sorted keys (no graph is sparse
    enough for a table at 0 entries per pair) and by the rank-pair table."""
    rng = random.Random(17 + directed)
    for offset in [0] * 20 + [46_341] * 10:
        g = _gapped(random_multiplex(rng, max_nodes=9, max_layers=3, directed=directed),
                    rng, offset)
        ids = np.unique(np.r_[0:3, offset:max(g.nodes) + 1]).astype(np.int32)
        us, vs = np.meshgrid(ids, ids, indexing="ij")
        edge = {l: np.array([[g.has_edge(int(u), int(v), l) for v in ids] for u in ids])
                for l in g.layers}
        for per_pair in (0, 2**31):
            monkeypatch.setattr(graph, "TABLE_ENTRIES_PER_PAIR", per_pair)
            idx = graph.GraphIndex(g)
            zero = len(idx.pair_bits) - 1
            assert (idx.pair_keys is None) == ((g.n_nodes + 1)**2 <= per_pair * zero)
            assert (idx.pair_pos is None) != (idx.pair_keys is None)
            rows = idx.pair_rows(us, vs)
            assert rows.shape == us.shape
            joined = np.zeros(us.shape, dtype=bool)
            for l, pos in idx.layer_pos.items():
                joined |= edge[l] | edge[l].T
                word, shift = divmod(2 * pos, 64)
                bits = idx.pair_bits[rows, word]
                assert (bits >> np.uint64(shift) & np.uint64(1) == edge[l]).all()
                assert (bits >> np.uint64(shift + 1) & np.uint64(1) == edge[l].T).all()
            assert ((rows == zero) == ~joined).all() and not idx.pair_bits[zero].any()
            pu, pv = idx.pairs()
            assert len(pu) == zero == joined.sum()
            assert (pu[rows[joined]] == us[joined]).all()
            assert (pv[rows[joined]] == vs[joined]).all()
            key = pu.astype(np.int64) * idx.width + pv
            assert (np.diff(key) > 0).all()


def test_subgraph_of_edges_restricts_nodes():
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0)], attrs={0: "a", 1: "b", 2: "c"})
    sub = g.subgraph_of_edges({(0, 1, 0)})
    assert sub.nodes == frozenset({0, 1})
    assert sub.attrs == {0: "a", 1: "b"}
    with pytest.raises(GraphError):
        g.subgraph_of_edges({(0, 2, 0)})

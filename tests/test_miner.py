import random

import numpy as np
import pytest

from plexmine import miner
from plexmine.datagen import SynthConfig, generate
from plexmine.graph import MultiplexGraph
from plexmine.matcher import match_array
from plexmine.miner import MiningConfig, MiningError, PatternSet, mine
from plexmine.pattern import Strategy
from plexmine.pipeline import run_mining

from oracles import brute_canonical_key, brute_mine, random_multiplex


def _mined_by_brute_key(ps: PatternSet) -> dict:
    return {brute_canonical_key(rec.pattern): rec.support for rec in ps}


def test_minimal_mining_single_edge():
    g = MultiplexGraph([0, 1], [(0, 1, 0)], attrs={0: "a", 1: "b"}, directed=False)
    ps = mine(g, MiningConfig(1, 2))
    sizes = sorted((rec.pattern.k, len(rec.pattern.edges)) for rec in ps)
    assert sizes == [(1, 0), (1, 0), (2, 1)]  # two label singletons + the edge
    assert all(rec.support == 1 for rec in ps)


def test_equal_labels_single_seed():
    g = MultiplexGraph([0, 1], [(0, 1, 0)], directed=False)
    ps = mine(g, MiningConfig(1, 2))
    assert sorted((rec.pattern.k, len(rec.pattern.edges)) for rec in ps) == [
        (1, 0), (2, 1)]


def test_image_table_chain_is_found(image_table_graph, chain_pattern):
    ps = mine(image_table_graph, MiningConfig(3, 4))
    key = brute_canonical_key(chain_pattern)
    mined = _mined_by_brute_key(ps)
    assert mined[key] == 3


def test_fractional_sigma_bounds():
    g = MultiplexGraph([0, 1], [(0, 1, 0)])
    with pytest.raises(MiningError):
        mine(g, MiningConfig(1.5, 2))
    with pytest.raises(MiningError):
        mine(g, MiningConfig(0, 2))
    with pytest.raises(MiningError):
        mine(g, MiningConfig(0.0, 2))


def test_fractional_sigma_scales_with_nodes():
    # 10 nodes, sigma=0.4 -> image threshold 4
    edges = [(i, i + 1, 0) for i in range(9)]
    g = MultiplexGraph(range(10), edges, directed=False)
    ps = mine(g, MiningConfig(0.4, 2))
    assert all(rec.support >= 4 for rec in ps)


def test_oracle_equivalence_sample():
    # The full 200-graph gate lives in the acceptance suite; keep a quick
    # version here so regressions surface in unit runs.
    rng = random.Random(2024)
    for trial in range(30):
        g = random_multiplex(rng, max_nodes=7, max_layers=2, max_labels=2,
                             n_edges=rng.randint(4, 8))
        sigma = rng.choice((1, 2, 3))
        s = rng.choice((2, 3, 4))
        ps = mine(g, MiningConfig(sigma, s))
        assert _mined_by_brute_key(ps) == brute_mine(g, sigma, s)


def test_inherited_extensions_skip_only_infrequent_candidates(monkeypatch):
    # each record tries, in order, a subset of the candidates it would try
    # with nothing inherited, and every candidate it skips is infrequent
    expanded = []
    extensions = miner._extensions

    def recording(parent, g, cfg, sigma, marks, inherited):
        tried = []
        expanded.append((parent, tried))
        for delta, E in extensions(parent, g, cfg, sigma, marks, inherited):
            tried.append(delta)
            yield delta, E

    monkeypatch.setattr(miner, "_extensions", recording)
    rng = random.Random(2501)
    skipped = 0
    for trial in range(60):
        g = random_multiplex(rng, max_nodes=7, max_layers=3, max_labels=3,
                             directed=trial % 2 == 1)
        sigma = rng.choice((1, 2, 3))
        cfg = MiningConfig(sigma, rng.randint(2, 5), rng.choice(list(Strategy)))
        expanded.clear()
        ps = mine(g, cfg)
        assert _mined_by_brute_key(ps) == brute_mine(g, sigma, cfg.max_nodes)
        assert [rec for rec, _ in expanded] == list(ps)
        marks = np.zeros(g.index().width, dtype=bool)
        for rec, tried in expanded:
            every = dict(extensions(rec, g, cfg, sigma, marks, None))
            kept = set(tried)
            assert [delta for delta in every if delta in kept] == tried
            for delta in every.keys() - kept:
                assert miner.mis_support_array(every[delta], sigma, marks) < sigma
                skipped += 1
    assert skipped > 0


def test_standin_mine_counts_support_of_inherited_candidates_only(monkeypatch):
    # the criterion-5 stand-in: without inheritance the search counts the
    # support of 26,571 candidates, with it 12,301, for the same output
    calls = []
    support = miner.mis_support_array

    def counting(*args):
        calls.append(None)
        return support(*args)

    monkeypatch.setattr(miner, "mis_support_array", counting)
    g = generate(SynthConfig(n=61, layers=5, avg_degree=4, n_labels=1, seed=11))
    run = run_mining(g, 0.4, 4, 0.5)
    assert len(calls) <= 12_301
    assert (len(run.patterns), len(run.rules)) == (1032, 2933)


def test_bfs_dfs_same_pattern_sets():
    rng = random.Random(31)
    for _ in range(12):
        g = random_multiplex(rng, max_nodes=7)
        a = mine(g, MiningConfig(1, 3, Strategy.BFS))
        b = mine(g, MiningConfig(1, 3, Strategy.DFS))
        assert _mined_by_brute_key(a) == _mined_by_brute_key(b)


def test_invariance_under_node_permutation():
    rng = random.Random(63)
    for _ in range(8):
        g = random_multiplex(rng, max_nodes=7)
        nodes = sorted(g.nodes)
        perm = nodes[:]
        rng.shuffle(perm)
        mapping = dict(zip(nodes, perm))
        g2 = MultiplexGraph(
            [mapping[n] for n in nodes],
            [(mapping[u], mapping[v], l) for u, v, l in g.edges],
            attrs={mapping[n]: g.attrs[n] for n in nodes},
            directed=g.directed,
            layers=g.layers,
        )
        codes1 = {rec.code for rec in mine(g, MiningConfig(1, 3))}
        codes2 = {rec.code for rec in mine(g2, MiningConfig(1, 3))}
        assert codes1 == codes2


def test_cycle_closures_continue_at_node_cap():
    # at max_nodes, parallel/cycle edges must still extend
    g = MultiplexGraph([0, 1], [(0, 1, 0), (0, 1, 1)], directed=False,
                       layers=[0, 1])
    ps = mine(g, MiningConfig(1, 2))
    edge_counts = sorted(len(rec.pattern.edges) for rec in ps)
    assert edge_counts[-1] == 2  # the two-parallel-edge pattern is mined


def test_pattern_dump_stable(image_table_graph):
    a = mine(image_table_graph, MiningConfig(2, 3)).dump()
    b = mine(image_table_graph, MiningConfig(2, 3)).dump()
    assert a == b
    assert a.splitlines() == sorted(a.splitlines())


def test_mining_many_layers_matches_oracle():
    # 40 layers: direction bits of later layers live in the second word
    layers = list(range(0, 80, 2))
    rng = random.Random(404)
    for trial in range(6):
        directed = trial % 2 == 1
        n = rng.randint(4, 6)
        hot = [layers[0], layers[31], layers[33], layers[39]]  # bits 0-1, 62-63, 66-67, 78-79
        edges = set()
        for _ in range(rng.randint(5, 9)):
            u, v = rng.sample(range(n), 2)
            edges.add((u, v, rng.choice(hot + [rng.choice(layers)])))
        g = MultiplexGraph(range(n), edges, attrs={u: rng.choice("ab") for u in range(n)},
                           directed=directed, layers=layers)
        ps = mine(g, MiningConfig(1, 3))
        assert _mined_by_brute_key(ps) == brute_mine(g, 1, 3)


def test_embeddings_keep_lexicographic_row_order():
    rng = random.Random(123)
    for _ in range(25):
        g = random_multiplex(rng, max_nodes=8)
        sigma = rng.choice((1, 2))
        for rec in mine(g, MiningConfig(sigma, 3)):
            E = rec.embeddings
            assert np.array_equal(np.lexsort(E.T[::-1]), np.arange(len(E)))
            # seeds and children alike keep every embedding
            assert np.array_equal(E, match_array(rec.pattern, g))

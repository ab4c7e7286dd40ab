"""Graphs whose node ids start at 46,341, the smallest id whose product
with itself passes 2**31, or near 1,000,000.

Node ids are int32, so every product of a node id and the graph width
must be taken in int64: the pair keys that ``GraphIndex`` searches on a
sparse graph, the first digit of ``matcher.node_set_ids`` and the
candidate keys of ``predict.encode_keys``. Only ``rank`` and
``node_label`` in the index grow with the ids. Each graph here
is a small random graph with every node id shifted up by one of
``OFFSETS``. Mining it, deriving its folds from that mine, scoring them
and enumerating their candidates must agree with the brute-force oracles
and, ids shifted back, with the unshifted graph.
"""

import random

import numpy as np
import pytest

from plexmine.evaluate import candidate_universe, kfold_split
from plexmine.graph import TABLE_ENTRIES_PER_PAIR, MultiplexGraph
from plexmine.miner import MiningConfig, mine, restrict
from plexmine.pattern import Strategy
from plexmine.pipeline import run_mining
from plexmine.predict import apply_rules
from plexmine.rules import RuleBuilder, RuleTable, derive_rules_posthoc

from oracles import (
    brute_apply_rules,
    brute_canonical_key,
    brute_mine,
    brute_universe,
    random_multiplex,
)
from test_evaluate import _decoded
from test_shared_mine import _hex_sorted, _table_text

OFFSETS = (46_341, 999_983)
CONFIDENCE = 0.5


def _shift(g: MultiplexGraph, by: int) -> MultiplexGraph:
    return MultiplexGraph([n + by for n in g.nodes],
                          [(u + by, v + by, l) for u, v, l in g.edges],
                          attrs={n + by: a for n, a in g.attrs.items()},
                          directed=g.directed, layers=g.layers)


def _graphs(seed: int, directed: bool, count: int):
    """(rng, offset, graph, graph shifted by the offset) for ``count``
    random graphs per offset of ``OFFSETS``."""
    rng = random.Random(seed)
    for offset in OFFSETS:
        for _ in range(count):
            g = random_multiplex(rng, max_nodes=8, directed=directed)
            yield rng, offset, g, _shift(g, offset)


def _shift_keys(scores: dict, by: int) -> dict:
    """``scores`` with the node ids of each (u, v, l) or (u, l) key shifted."""
    return {(*(n + by for n in key[:-1]), key[-1]): s for key, s in scores.items()}


@pytest.mark.parametrize("directed", [False, True])
def test_mine_matches_brute_force_and_the_unshifted_graph(directed):
    for rng, offset, g, wide in _graphs(23 + directed, directed, 25):
        sigma, size = rng.choice((1, 2)), rng.choice((2, 3))
        strategy = rng.choice(list(Strategy))
        got = run_mining(wide, sigma, size, CONFIDENCE, strategy)
        want = run_mining(g, sigma, size, CONFIDENCE, strategy)
        assert {brute_canonical_key(r.pattern): r.support for r in got.patterns} \
            == brute_mine(wide, sigma, size)
        assert got.patterns.dump() == want.patterns.dump()
        assert got.rules.to_tsv() == want.rules.to_tsv()
        for rec in got.patterns:
            assert rec.array.dtype == np.int32
            assert (rec.embeddings - offset).tolist() \
                == want.patterns.get(rec.code).embeddings.tolist()


@pytest.mark.parametrize("directed", [False, True])
def test_derived_fold_tables_match_fold_mining_and_brute_force(directed):
    """A fold derived from the shifted graph's mine scores as mining the
    fold does, and as the oracle scores the unshifted fold."""
    lost = 0
    for rng, offset, _, wide in _graphs(5 + directed, directed, 12):
        sigma, size = rng.choice((1, 2)), 3
        strategy = rng.choice(list(Strategy))
        offers = RuleBuilder()
        ps_src = mine(wide, MiningConfig(sigma, size, strategy), rule_sink=offers)
        table = RuleTable(offers.result(), ps_src)
        k = min(4, wide.n_edges)
        for split in kfold_split(wide, k, seed=rng.randrange(100)):
            fold = split.train
            derived = restrict(ps_src, fold, sigma)
            selected = table.select(derived, CONFIDENCE)
            rules = selected.rule_set()
            direct = mine(fold, MiningConfig(sigma, size, strategy))
            assert derived.dump() == direct.dump()
            assert rules.to_tsv() == derive_rules_posthoc(direct, CONFIDENCE, strategy).to_tsv()
            for rec in derived:
                assert rec.array.dtype == np.int32
                lost += rec.rows is not None
            for dedupe in (False, True):
                got = apply_rules(fold, selected, dedupe_rule_firings=dedupe,
                                  track_provenance=True)
                want = apply_rules(fold, RuleTable(rules, direct).select(direct, 0.0),
                                   dedupe_rule_firings=dedupe, track_provenance=True)
                assert _table_text(got) == _table_text(want)
                oldold, oldnew = brute_apply_rules(_shift(fold, -offset), rules, dedupe)
                assert _hex_sorted(got.oldold) == _hex_sorted(_shift_keys(oldold, offset))
                assert _hex_sorted(got.oldnew) == _hex_sorted(_shift_keys(oldnew, offset))
    assert lost > 40


@pytest.mark.parametrize("directed", [False, True])
def test_candidate_universe_matches_brute_force(directed):
    for rng, _, _, wide in _graphs(71 + directed, directed, 15):
        k = rng.randint(2, min(4, wide.n_edges))
        split = kfold_split(wide, k, seed=rng.randrange(100))[rng.randrange(k)]
        for n_neg in (None, rng.randint(1, 20)):
            assert _decoded(candidate_universe(split, n_neg, seed=3)) \
                == brute_universe(split, n_neg, seed=3)


def _index_nbytes(idx) -> int:
    """Bytes of every array a ``GraphIndex`` holds, the CSR tables' too."""
    total = 0
    for value in vars(idx).values():
        for item in value.values() if isinstance(value, dict) else [value]:
            for a in item if isinstance(item, tuple) else [item]:
                total += a.nbytes if isinstance(a, np.ndarray) else 0
    return total


def test_index_of_sparse_ids_is_sized_by_node_count():
    """Only ``rank`` and ``node_label`` take an entry per id up to the
    largest; the rest of the index grows with the node count."""
    rng = random.Random(3)
    g = random_multiplex(rng, max_nodes=8, max_layers=3, directed=True, n_edges=12)
    while g.n_nodes < 8 or len(g.layers) < 3:
        g = random_multiplex(rng, max_nodes=8, max_layers=3, directed=True, n_edges=12)
    wide = _shift(g, OFFSETS[1])
    idx = wide.index()
    assert idx.width == OFFSETS[1] + 8
    assert idx.rank.nbytes + idx.node_label.nbytes == 8 * idx.width
    assert _index_nbytes(idx) <= 10 * 2**20
    assert _index_nbytes(idx) - 8 * idx.width == _index_nbytes(g.index()) - 8 * g.index().width


def test_index_of_a_large_sparse_graph_grows_with_its_pairs():
    """A graph with more than ``TABLE_ENTRIES_PER_PAIR`` rank pairs per
    indexed pair keeps its sorted pair keys rather than a rank-pair table:
    a 20,000-node path indexes in under 4 MiB, where the table alone
    would take 1.6 GB."""
    n = 20_000
    g = MultiplexGraph(range(n), [(u, u + 1, 0) for u in range(n - 1)], directed=False)
    idx = g.index()
    assert idx.pair_pos is None and len(idx.pair_keys) == len(idx.pairs()[0]) + 1
    assert len(idx.pair_u) == 2 * (n - 1) and (n + 1)**2 > TABLE_ENTRIES_PER_PAIR * 2 * (n - 1)
    assert _index_nbytes(idx) < 4 * 2**20
    ids = np.arange(n, dtype=np.int32)
    assert idx.has_pairs(ids[:-1], ids[1:], 0).all() and idx.has_pairs(ids[1:], ids[:-1], 0).all()
    assert not idx.has_pairs(ids[:-2], ids[2:], 0).any()

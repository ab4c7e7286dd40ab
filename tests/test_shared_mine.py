"""A rule scorer mines the root its folds (and their internal splits) were
cut from once and derives each of them from that mine; per-split ``mine``
stays the reference.

Every comparison is exact: pattern dumps and supports, sorted canonical
embedding rows, rule dumps, and score tables and provenance down to
``float.hex``.
"""

import random

import numpy as np
import pytest

from plexmine import pipeline
from plexmine.datagen import SynthConfig, generate
from plexmine.evaluate import Split, kfold_split, sharma_score, temporal_split
from plexmine.graph import MultiplexGraph, TemporalMultiplexGraph
from plexmine.miner import MiningConfig, MiningInvariantError, mine, restrict
from plexmine.pattern import Strategy
from plexmine.pipeline import SOURCE_MINE_MAX_LACKING, evaluate_split, make_rule_scorer
from plexmine.predict import apply_rules
from plexmine.rules import RuleBuilder, RuleTable, derive_rules_posthoc

from oracles import brute_apply_rules, random_multiplex

CONFIDENCE = 0.5


def _graph(directed=False, seed=4, n=30, n_labels=2):
    g = generate(SynthConfig(n=n, layers=3, avg_degree=4, n_labels=n_labels, seed=seed))
    return MultiplexGraph(g.nodes, g.edges, g.attrs, directed=directed) if directed else g


def _table_text(table) -> list:
    """Both segments in insertion order, scores as ``float.hex``, and the provenance."""
    return [[(k, s.hex()) for k, s in table.oldold.items()],
            [(k, s.hex()) for k, s in table.oldnew.items()],
            table.baseline.hex(), table.provenance]


def _rows(rec) -> list:
    """The embedding rows, columns in canonical node indexing, sorted."""
    return sorted(map(tuple, rec.embeddings[:, list(rec.orderings[0])].tolist()))


def _assert_same_mine(got_ps, got_rules, want_ps, want_rules):
    assert got_ps.dump() == want_ps.dump()
    assert {r.code: r.support for r in got_ps} == {r.code: r.support for r in want_ps}
    for rec in want_ps:
        assert _rows(got_ps.get(rec.code)) == _rows(rec)
    assert got_rules.to_tsv() == want_rules.to_tsv()


def _reference(g, support, size, strategy, min_confidence=CONFIDENCE):
    ps = mine(g, MiningConfig(support, size, strategy))
    return ps, derive_rules_posthoc(ps, min_confidence, strategy)


def _derived(ps_src, offers, g, sigma, min_confidence=CONFIDENCE):
    ps = restrict(ps_src, g, sigma)
    return ps, RuleTable(offers, ps_src).select(ps, min_confidence).rule_set()


def _mine_source(src, sigma, size, strategy):
    offers = RuleBuilder()
    return mine(src, MiningConfig(sigma, size, strategy), rule_sink=offers), offers.result()


def _assert_same_tables(g, got, want, brute=False):
    """Tables with provenance, dedupe off and on, of the derived and the
    reference mine are equal, and with ``brute`` equal to the oracle's."""
    for dedupe in (False, True):
        tables = [apply_rules(g, RuleTable(rules, ps).select(ps, 0.0), dedupe_rule_firings=dedupe,
                              track_provenance=True) for ps, rules in (got, want)]
        assert _table_text(tables[0]) == _table_text(tables[1])
        if brute:
            oldold, oldnew = brute_apply_rules(g, got[1], dedupe_rule_firings=dedupe)
            assert _hex_sorted(tables[0].oldold) == _hex_sorted(oldold)
            assert _hex_sorted(tables[0].oldnew) == _hex_sorted(oldnew)


def _hex_sorted(scores: dict) -> list:
    return sorted((k, s.hex()) for k, s in scores.items())


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("support", [0.1, 3])
def test_restricted_folds_equal_per_fold_mining(strategy, directed, support):
    g = _graph(directed)
    folds = kfold_split(g, 5, seed=1)
    cfg = MiningConfig(support, 3, strategy)
    sigma_src = min(cfg.resolve_support(f.train) for f in folds)
    ps_src, offers = _mine_source(g, sigma_src, 3, strategy)
    for split in folds:
        got = _derived(ps_src, offers, split.train, cfg.resolve_support(split.train))
        want = _reference(split.train, support, 3, strategy)
        _assert_same_mine(*got, *want)
        _assert_same_tables(split.train, got, want)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("directed", [False, True])
def test_derived_fold_tables_equal_per_fold_mining_and_brute_force(strategy, directed):
    g = _graph(directed, n=16)
    folds = kfold_split(g, 10, seed=1)
    ps_src, offers = _mine_source(g, 3, 3, strategy)
    for split in folds:
        got = _derived(ps_src, offers, split.train, 3)
        want = _reference(split.train, 3, 3, strategy)
        _assert_same_mine(*got, *want)
        _assert_same_tables(split.train, got, want, brute=True)


def test_random_subgraphs_equal_their_own_mining():
    """Tiny random graphs lose nodes, whole labels and the largest node id
    often; each is cut a second time and derived from its root's mine."""
    rng = random.Random(17)
    lost = {"nodes": 0, "width": 0, "label": 0}
    for _ in range(150):
        src = random_multiplex(rng, max_nodes=9)
        edges = sorted(src.edges)
        keep = rng.sample(edges, rng.randint(1, len(edges)))
        g = src.subgraph_of_edges(keep)
        lost["nodes"] += g.n_nodes < src.n_nodes
        lost["width"] += g.index().width < src.index().width
        lost["label"] += set(g.attrs.values()) < set(src.attrs.values())
        strategy = rng.choice(list(Strategy))
        size = rng.randint(1, 4)
        sigma = rng.randint(1, 3)
        ps_src, offers = _mine_source(src, rng.randint(1, sigma), size, strategy)
        min_confidence = rng.choice([0.0, 0.3, CONFIDENCE, 1.0])
        got = _derived(ps_src, offers, g, sigma, min_confidence)
        want = _reference(g, sigma, size, strategy, min_confidence)
        _assert_same_mine(*got, *want)
        _assert_same_tables(g, got, want, brute=True)
        twice = g.subgraph_of_edges(rng.sample(keep, rng.randint(1, len(keep))))
        assert twice.source is src
        got = _derived(ps_src, offers, twice, sigma, min_confidence)
        want = _reference(twice, sigma, size, strategy, min_confidence)
        _assert_same_mine(*got, *want)
        _assert_same_tables(twice, got, want, brute=True)
    assert min(lost.values()) > 10, lost


def test_fold_that_loses_a_label_and_its_widest_node():
    g = _graph(n=40, n_labels=3)
    top = max(g.nodes)
    # the top node and two more take a label of their own, then lose every edge
    gone = {top, top - 1, top - 2}
    attrs = {n: ("z" if n in gone else lab) for n, lab in g.attrs.items()}
    g = MultiplexGraph(g.nodes, g.edges, attrs)
    test = {e for e in g.edges if e[0] in gone or e[1] in gone}
    train = g.subgraph_of_edges(g.edges - test)
    assert "z" not in train.attrs.values() and train.index().width < g.index().width
    ps_src, offers = _mine_source(g, 2, 3, Strategy.BFS)
    assert any("z" in rec.pattern.node_labels for rec in ps_src)
    got = _derived(ps_src, offers, train, 2)
    want = _reference(train, 2, 3, Strategy.BFS)
    _assert_same_mine(*got, *want)
    _assert_same_tables(train, got, want)


def _reference_table(g, support, size, strategy=Strategy.BFS):
    ps, rules = _reference(g, support, size, strategy)
    return apply_rules(g, RuleTable(rules, ps).select(ps, 0.0))


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize(("support", "k"), [(0.1, 10), (3, 10), (0.1, 3), (3, 3)],
                         ids=["0.1", "3", "0.1-3fold", "3-3fold"])
def test_scorer_tables_equal_per_fold_mining(strategy, directed, support, k):
    """Over 3 folds each fold is mined, over 10 the root is; both pass
    through ``RuleTable.select``."""
    for seed in (2, 3):
        g = _graph(directed, seed=seed)
        scorer = make_rule_scorer(support, 3, CONFIDENCE, strategy)
        for split in kfold_split(g, k, seed=seed):
            assert (_table_text(scorer(split.train))
                    == _table_text(_reference_table(split.train, support, 3, strategy)))


def _record_mines(monkeypatch) -> list:
    mined = []
    original = pipeline.mine

    def recorded(g, *args, **kwargs):
        mined.append(g)
        return original(g, *args, **kwargs)

    monkeypatch.setattr(pipeline, "mine", recorded)
    return mined


def test_support_below_the_source_mine_mines_the_source_again(monkeypatch):
    g = _graph(n=31)
    edges = sorted(g.edges)
    # two graphs keep all 31 nodes, then one loses a node, so that 10 %
    # resolves to 3 on it, below the 4 of the others
    cut = [g.subgraph_of_edges(edges[:i] + edges[i + 1:]) for i in (0, 1)]
    cut.append(g.subgraph_of_edges([e for e in edges if 0 not in e[:2]]))
    cfg = MiningConfig(0.1, 3)
    assert [cfg.resolve_support(h) for h in cut] == [4, 4, 3]
    mined = _record_mines(monkeypatch)
    scorer = make_rule_scorer(0.1, 3, CONFIDENCE)
    tables = [scorer(h) for h in cut]
    # the first graph has its root mined at 4, the third at 3
    assert len(mined) == 2 and all(h is g for h in mined)
    for h, table in zip(cut, tables):
        assert _table_text(table) == _table_text(_reference_table(h, 0.1, 3))


@pytest.mark.parametrize("k", [7, 10])
def test_scorer_mines_the_kfold_root_once(monkeypatch, k):
    g = _graph(n=60)
    folds = kfold_split(g, k, seed=0)
    mined = _record_mines(monkeypatch)
    scorer = make_rule_scorer(0.1, 3, CONFIDENCE)
    for split in folds:
        scorer(split.train)
    assert len(mined) == 1 and mined[0] is g


@pytest.mark.parametrize("k", [2, 3, 6])
def test_scorer_mines_each_fold_that_lacks_many_edges(monkeypatch, k):
    g = _graph(n=60)
    folds = kfold_split(g, k, seed=0)
    assert all(len(g.edges) - len(f.train.edges) > SOURCE_MINE_MAX_LACKING * len(g.edges)
               for f in folds)
    mined = _record_mines(monkeypatch)
    scorer = make_rule_scorer(0.1, 3, CONFIDENCE)
    for split in folds:
        scorer(split.train)
    assert len(mined) == k and all(h is f.train for h, f in zip(mined, folds))


def _recorded(scorer, tables, graphs=None):
    def recorded(h):
        if graphs is not None:
            graphs.append(h)
        tables.append(scorer(h))
        return tables[-1]
    return recorded


def _assert_ensemble_split_matches(monkeypatch, split):
    """Scores ``split`` with ``--ensemble-mode opt`` against per-graph
    mining; returns the graphs mined and the graphs scored."""
    want_tables, tables, scored = [], [], []
    want = evaluate_split(split, [_recorded(lambda h: _reference_table(h, 0.2, 3), want_tables),
                                  sharma_score], optimize=True)
    mined = _record_mines(monkeypatch)
    got = evaluate_split(split, [_recorded(make_rule_scorer(0.2, 3, CONFIDENCE), tables, scored),
                                 sharma_score], optimize=True)
    assert got.auc.hex() == want.auc.hex()
    assert len(tables) == 2
    assert [_table_text(t) for t in tables] == [_table_text(t) for t in want_tables]
    return mined, scored


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("rootless", [False, True], ids=["fold", "rootless"])
def test_ensemble_split_is_derived_from_its_root_and_matches(monkeypatch, rootless, directed):
    """A fold and its internal split name the same root, the one graph
    mined. A training graph with no root (as a temporal split's) is its
    own root: its mine serves its internal split too."""
    g = _graph(directed, n=40)
    split = kfold_split(g, 10, seed=0)[0]
    root = g
    if rootless:
        root = MultiplexGraph(split.train.nodes, split.train.edges, split.train.attrs,
                              directed=directed, layers=split.train.layers)
        split = Split(root, split.test_edges)
    mined, scored = _assert_ensemble_split_matches(monkeypatch, split)
    assert len(mined) == 1 and mined[0] is root
    if rootless:
        assert scored[0] is root and scored[1].source is root
        assert [MiningConfig(0.2, 3).resolve_support(h) for h in scored] == [8, 8]


def test_temporal_split_with_early_nodes_mines_its_training_graph_twice(monkeypatch):
    """Nodes that arrived before any of their edges sit isolated in the
    training graph and leave its internal split, whose fractional support
    then resolves lower than the training graph's held mine."""
    g = _graph(n=40)
    rng = random.Random(5)
    late = set(range(6))  # nodes seen at day 0 whose edges all come at day 6
    edge_times = {e: 6 if late & set(e[:2]) else rng.randint(0, 6) for e in sorted(g.edges)}
    node_times = {n: 0 for n in g.nodes}
    split = temporal_split(TemporalMultiplexGraph(g, edge_times, node_times), 4, 2)
    train = split.train
    assert train.source is None and {n for e in train.edges for n in e[:2]} < train.nodes
    mined, scored = _assert_ensemble_split_matches(monkeypatch, split)
    cfg = MiningConfig(0.2, 3)
    assert scored[0] is train and scored[1].source is train
    assert cfg.resolve_support(scored[1]) < cfg.resolve_support(train)
    assert len(mined) == 2 and all(h is train for h in mined)


@pytest.mark.parametrize("directed", [False, True])
def test_ensemble_over_kfold_mines_the_folds_source_once(monkeypatch, directed):
    """Each fold's internal split has the folds' root as its source, so the
    folds and their internal splits are all derived from one mine."""
    g = _graph(directed, n=40)
    folds = kfold_split(g, 10, seed=0)
    want_tables, tables = [], []
    reference = _recorded(lambda h: _reference_table(h, 0.2, 3), want_tables)
    want = [evaluate_split(split, [reference, sharma_score], optimize=True) for split in folds]
    mined = _record_mines(monkeypatch)
    scorer = _recorded(make_rule_scorer(0.2, 3, CONFIDENCE), tables)
    got = [evaluate_split(split, [scorer, sharma_score], optimize=True) for split in folds]
    assert len(mined) == 1 and mined[0] is g
    assert [r.auc.hex() for r in got] == [r.auc.hex() for r in want]
    assert len(tables) == 20
    assert [_table_text(t) for t in tables] == [_table_text(t) for t in want_tables]


@pytest.mark.parametrize("directed", [False, True])
def test_derived_records_share_their_source_node_set_ids(directed):
    g = _graph(directed)
    ps_src, _ = _mine_source(g, 3, 3, Strategy.BFS)
    for split in kfold_split(g, 10, seed=0)[:3]:
        width = split.train.index().width
        for rec in restrict(ps_src, split.train, 3):
            if rec.pattern.k == 1:
                continue
            src = ps_src.get(rec.code)
            assert rec.node_sets is src.node_sets
            assert np.shares_memory(rec.node_sets, src.node_sets)
            ids = rec.node_set_ids(width).tolist()
            sets = [frozenset(row) for row in rec.embeddings.tolist()]
            assert len(set(zip(ids, sets))) == len(set(ids)) == len(set(sets))


def test_restrict_returns_its_own_mine_for_its_graph_and_support():
    g = _graph()
    ps = mine(g, MiningConfig(0.1, 3))
    assert ps.graph is g and ps.sigma == 3
    assert restrict(ps, g, 3) is ps
    higher = restrict(ps, g, 4)
    assert higher is not ps and higher.graph is g and higher.sigma == 4
    assert higher.dump() == mine(g, MiningConfig(4, 3)).dump()


def test_restrict_refuses_a_graph_not_cut_from_the_mined_one():
    """An equal copy of the root is a different graph: equality ignores
    ``source``, so only identity tells a graph cut from the mined one."""
    g = _graph()
    copy = MultiplexGraph(g.nodes, g.edges, g.attrs, layers=g.layers)
    assert copy == g and copy is not g
    ps = mine(copy, MiningConfig(3, 3))
    fold = g.subgraph_of_edges(sorted(g.edges)[1:])
    for h in (g, fold):
        with pytest.raises(MiningInvariantError):
            restrict(ps, h, 3)


def test_restrict_refuses_a_support_below_the_mine():
    g = _graph()
    ps = mine(g, MiningConfig(3, 3))
    fold = g.subgraph_of_edges(sorted(g.edges)[1:])
    for h in (g, fold):
        with pytest.raises(MiningInvariantError):
            restrict(ps, h, 2)


def test_source_link_is_the_root_and_ignored_by_equality():
    g = _graph()
    edges = sorted(g.edges)
    sub = g.subgraph_of_edges(edges[1:])
    subsub = sub.subgraph_of_edges(edges[2:])
    assert g.source is None and sub.source is g and subsub.source is g
    same = MultiplexGraph(sub.nodes, sub.edges, sub.attrs, layers=sub.layers)
    assert same == sub and hash(same) == hash(sub)


def test_restricted_record_masks_its_source_array_when_it_loses_rows():
    g = _graph()
    ps_src, _ = _mine_source(g, 3, 3, Strategy.BFS)
    split = kfold_split(g, 10, seed=0)[0]
    unmasked = 0
    for rec in restrict(ps_src, split.train, 3):
        src = ps_src.get(rec.code)
        if rec.pattern.k == 1:
            assert rec.rows is None
            continue
        assert rec.array is src.array
        if rec.rows is None:
            unmasked += 1
            assert rec.embeddings is src.array
        else:
            assert rec.rows.dtype == np.bool_ and not rec.rows.all()
            assert np.array_equal(rec.embeddings, src.array[rec.rows])
    assert unmasked > 0

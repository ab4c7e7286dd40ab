"""Canonical searches are run state: one memo per run, shared only inside it.

Searches are counted by wrapping ``pattern._canonical_search``, the one
function that runs a search.
"""

import weakref

import pytest

from plexmine import pattern
from plexmine.datagen import SynthConfig, generate
from plexmine.evaluate import kfold_split, sharma_score
from plexmine.graph import MultiplexGraph
from plexmine.miner import MiningConfig, mine
from plexmine.pattern import Strategy
from plexmine.pipeline import cross_validate, make_rule_scorer, run_mining
from plexmine.rules import RuleBuilder, RuleTable, derive_rules_posthoc


def _graph(directed=False, seed=4):
    g = generate(SynthConfig(n=30, layers=3, avg_degree=4, n_labels=2, seed=seed))
    return MultiplexGraph(g.nodes, g.edges, g.attrs, directed=directed) if directed else g


def _count_searches(monkeypatch) -> list:
    searched = []
    search = pattern._canonical_search

    def counted(p, strategy):
        searched.append((p, strategy))
        return search(p, strategy)

    monkeypatch.setattr(pattern, "_canonical_search", counted)
    return searched


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("directed", [False, True])
def test_mine_searches_each_pattern_once(monkeypatch, strategy, directed):
    g = _graph(directed)
    searched = _count_searches(monkeypatch)
    ps = mine(g, MiningConfig(0.1, 3, strategy), rule_sink=RuleBuilder())
    assert len(searched) == len(set(searched)) >= len(ps) > 10
    assert set(ps.memo) == set(searched)


def test_rule_scorer_shares_searches_across_folds(monkeypatch):
    g = _graph()
    searched = _count_searches(monkeypatch)
    scorer = make_rule_scorer(0.1, 3, 0.5)
    folds = kfold_split(g, 5, seed=0)
    for split in folds:
        scorer(split.train)
    assert len(searched) == len(set(searched))
    n_shared = len(searched)
    for split in folds:  # a scorer per fold searches again what the folds share
        make_rule_scorer(0.1, 3, 0.5)(split.train)
    assert len(searched) - n_shared > n_shared


@pytest.mark.parametrize("rule_mode", ["embedded", "posthoc"])
def test_each_run_mining_call_starts_cold(monkeypatch, rule_mode):
    g = _graph()
    searched = _count_searches(monkeypatch)
    first = run_mining(g, 0.1, 3, 0.5, Strategy.BFS, rule_mode)
    n_first = len(searched)
    second = run_mining(g, 0.1, 3, 0.5, Strategy.BFS, rule_mode)
    assert len(set(searched[:n_first])) == n_first
    assert searched[n_first:] == searched[:n_first]
    assert first.rules.to_tsv() == second.rules.to_tsv()


def test_shared_memo_changes_no_output():
    graphs = [_graph(seed=4), _graph(seed=5), _graph(seed=4)]
    memo = {}
    for g in graphs:
        for strategy in Strategy:
            cfg = MiningConfig(0.2, 3, strategy)
            shared_sink, fresh_sink = RuleBuilder(), RuleBuilder()
            shared = mine(g, cfg, rule_sink=shared_sink, memo=memo)
            fresh = mine(g, cfg, rule_sink=fresh_sink)
            assert shared.memo is memo and fresh.memo is not memo
            assert shared.dump() == fresh.dump()
            assert [r.orderings for r in shared] == [r.orderings for r in fresh]
            assert (RuleTable(shared_sink.result(), shared).select(shared, 0.5).rule_set().to_tsv()
                    == RuleTable(fresh_sink.result(), fresh).select(fresh, 0.5).rule_set().to_tsv())
            assert (derive_rules_posthoc(shared, 0.5, strategy).to_tsv()
                    == derive_rules_posthoc(fresh, 0.5, strategy).to_tsv())


@pytest.mark.parametrize("rules", [False, True])
def test_cross_validate_frees_each_fold_before_the_next(rules):
    """The index cached on a scored fold's training graph is freed, with
    the graph, before the next fold is scored. At k = 10 the rule scorer
    holds the root's mine, not a fold's."""
    score = make_rule_scorer(0.25, 3, 0.5) if rules else sharma_score
    indexes = []

    def scorer(train):
        assert all(idx() is None for idx in indexes)
        indexes.append(weakref.ref(train.index()))
        return score(train)

    cross_validate(_graph(), scorer, k=10, seed=0)
    assert len(indexes) == 10

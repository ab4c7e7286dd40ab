import random

import pytest

from plexmine.graph import MultiplexGraph
from plexmine.miner import MiningConfig, mine
from plexmine.pattern import (
    Delta,
    Pattern,
    PatternEdge,
    canonical_code,
    canonical_delta_key,
    pattern_from_code,
)
from plexmine.predict import (
    LinkClass,
    ScoreTable,
    apply_rules,
    classify_link,
    load_score_dump,
    score_dump,
    top_k,
)
from plexmine.rules import AssociationRule, RuleBuilder, RuleSet

from oracles import brute_apply_rules, random_multiplex


def _rule(antecedent: Pattern, delta: Delta, support_a: int, support_c: int) -> AssociationRule:
    code = canonical_code(antecedent)
    key = canonical_delta_key(antecedent, delta)
    canon = pattern_from_code(code)
    from plexmine.pattern import apply_delta, delta_from_key
    cons = canonical_code(apply_delta(canon, delta_from_key(key, antecedent.directed)))
    return AssociationRule(
        antecedent=canon,
        antecedent_code=code,
        consequent_code=cons,
        delta_key=key,
        support_a=support_a,
        support_c=support_c,
    )


def _ruleset(*rules) -> RuleSet:
    rs = RuleSet(0.0)
    for r in rules:
        rs.add(r)
    return rs


def test_empty_rule_set_empty_table():
    g = MultiplexGraph([0, 1], [(0, 1, 0)])
    table = apply_rules(g, RuleSet(0.5))
    assert not table.oldold and not table.oldnew


def test_triangle_closing_rule_on_path():
    # path u-v-w in layer a; rule: 2-path -> close the triangle, conf 0.75
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0)], directed=False)
    path2 = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rule = _rule(path2, Delta(0, 2, 0, True), 4, 3)
    table = apply_rules(g, _ruleset(rule))
    assert table.oldold == {(0, 2, 0): pytest.approx(0.75)}
    assert not table.oldnew


def test_oldnew_three_embeddings_sum():
    # hub node matching the antecedent in 3 distinct embeddings: 3q total
    edges = [(0, 1, 0), (0, 2, 0), (0, 3, 0)]
    attrs = {0: "h", 1: "s", 2: "s", 3: "s"}
    g = MultiplexGraph(range(4), edges, attrs=attrs, directed=False)
    ant = Pattern(False, ("h", "s"), (PatternEdge(0, 1, 0, False),))
    rule = _rule(ant, Delta(0, None, 1, True, "n"), 4, 3)
    g2 = MultiplexGraph(range(5), edges + [(0, 4, 1)],
                        attrs=attrs | {4: "n"}, directed=False, layers=[0, 1])
    table = apply_rules(g2, _ruleset(rule))
    assert table.oldnew[(0, 1)] == pytest.approx(3 * 0.75)


def test_existing_triples_never_scored():
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0), (0, 2, 0)], directed=False)
    path2 = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rule = _rule(path2, Delta(0, 2, 0, True), 4, 3)
    table = apply_rules(g, _ruleset(rule))
    assert table.oldold == {}  # the triangle is already closed everywhere


def test_additivity_and_monotonicity():
    rng = random.Random(21)
    g = random_multiplex(rng, max_nodes=8, directed=False)
    sink = RuleBuilder(0.0)
    ps = mine(g, MiningConfig(1, 3), rule_sink=sink)
    rules = sink.result().sorted_rules()
    if len(rules) < 4:
        pytest.skip("graph too sparse for this seed")
    half1, half2 = rules[::2], rules[1::2]
    t_all = apply_rules(g, _ruleset(*rules))
    t1 = apply_rules(g, _ruleset(*half1))
    t2 = apply_rules(g, _ruleset(*half2))
    for key, val in t_all.oldold.items():
        assert val == pytest.approx(t1.oldold.get(key, 0) + t2.oldold.get(key, 0))
    for key, val in t_all.oldnew.items():
        assert val == pytest.approx(t1.oldnew.get(key, 0) + t2.oldnew.get(key, 0))
    # adding rules never decreases any score
    for key, val in t1.oldold.items():
        assert t_all.oldold[key] >= val - 1e-12


def test_rule_order_independence():
    rng = random.Random(33)
    g = random_multiplex(rng, max_nodes=8, directed=True)
    sink = RuleBuilder(0.0)
    mine(g, MiningConfig(1, 3), rule_sink=sink)
    rules = sink.result().sorted_rules()
    if not rules:
        pytest.skip("no rules for this seed")
    shuffled = rules[:]
    rng.shuffle(shuffled)
    a = apply_rules(g, _ruleset(*rules))
    b = apply_rules(g, _ruleset(*shuffled))
    assert set(a.oldold) == set(b.oldold)
    for key in a.oldold:
        assert a.oldold[key] == pytest.approx(b.oldold[key], rel=1e-9)


def test_scorer_matches_bruteforce_sample():
    rng = random.Random(55)
    checked = 0
    for _ in range(25):
        g = random_multiplex(rng, max_nodes=7)
        sink = RuleBuilder(0.0)
        ps = mine(g, MiningConfig(1, 3), rule_sink=sink)
        rules = sink.result()
        if not len(rules):
            continue
        for dedupe in (False, True):
            table = apply_rules(g, rules, pattern_set=ps,
                                dedupe_rule_firings=dedupe)
            oo, on = brute_apply_rules(g, rules, dedupe_rule_firings=dedupe)
            assert set(table.oldold) == set(oo)
            assert set(table.oldnew) == set(on)
            for k, v in oo.items():
                assert table.oldold[k] == pytest.approx(v, rel=1e-9)
            for k, v in on.items():
                assert table.oldnew[k] == pytest.approx(v, rel=1e-9)
        checked += 1
    assert checked >= 10


def test_skips_rules_with_unknown_layer(caplog):
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0)], directed=False)
    path2 = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rule = _rule(path2, Delta(0, 2, 7, True), 4, 3)  # layer 7 unknown
    with caplog.at_level("WARNING"):
        table = apply_rules(g, _ruleset(rule))
    assert not table.oldold
    assert any("skipping rule" in r.message for r in caplog.records)


def test_classify_link():
    train = {0, 1}
    test = {2, 3}
    assert classify_link(0, 1, train, test) == LinkClass.OLD_OLD
    assert classify_link(0, 2, train, test) == LinkClass.OLD_NEW
    assert classify_link(2, 3, train, test) == LinkClass.NEW_NEW
    with pytest.raises(ValueError):
        classify_link(0, 9, train, test)


def test_top_k_ordering_and_clamp():
    t = ScoreTable(directed=False)
    t.oldold = {(0, 1, 0): 2.0, (0, 2, 0): 1.0, (1, 2, 0): 1.0}
    t.oldnew = {(0, 0): 1.0}
    assert top_k(t, 1) == [((0, 1, 0), 2.0)]
    ranked = top_k(t, 10)
    assert len(ranked) == 4  # clamps to table size
    # ties broken lexicographically: by source node, then old-old before
    # old-new entries of the same source
    assert [key for key, _ in ranked[1:]] == [(0, 2, 0), (0, None, 0), (1, 2, 0)]
    with pytest.raises(ValueError):
        top_k(t, 0)


def test_score_dump_roundtrip(tmp_path):
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0)], directed=False,
                       layers=[0, 1], node_names={0: "u", 1: "v", 2: "w"},
                       layer_names={0: "a", 1: "b"})
    t = ScoreTable(directed=False)
    t.oldold = {(0, 2, 1): 1.5}
    t.oldnew = {(1, 0): 0.25}
    text = score_dump(t, g.node_names, g.layer_names)
    assert text.splitlines()[0] == "u\tw\tb\t1.500000"
    path = tmp_path / "scores.tsv"
    path.write_text(text)
    back = load_score_dump(str(path), g)
    assert back.oldold == {(0, 2, 1): 1.5}
    assert back.oldnew == {(1, 0): 0.25}


def test_provenance_tracks_rule_ids():
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0)], directed=False)
    path2 = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rule = _rule(path2, Delta(0, 2, 0, True), 4, 3)
    table = apply_rules(g, _ruleset(rule), track_provenance=True)
    assert table.provenance == {("oldold", (0, 2, 0)): [0]}

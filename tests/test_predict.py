import itertools
import random

import pytest

from plexmine import predict

from plexmine.graph import MultiplexGraph
from plexmine.io import ParseError
from plexmine.matcher import code_embeddings
from plexmine.miner import MiningConfig, mine
from plexmine.pattern import (
    Delta,
    Pattern,
    PatternEdge,
    apply_delta,
    canonical_code,
    canonical_delta,
    canonical_orderings,
)
from plexmine.predict import (
    ScoreTable,
    applicable_rules,
    apply_rules,
    load_score_dump,
    score_dump,
    top_k,
)
from plexmine.rules import AssociationRule, RuleBuilder, RuleSet

from oracles import brute_apply_rules, random_multiplex


def _rule(antecedent: Pattern, delta: Delta, support_a: int, support_c: int) -> AssociationRule:
    code = canonical_code(antecedent)
    delta = canonical_delta(antecedent, delta, canonical_orderings(antecedent))
    cons = canonical_code(apply_delta(code.pattern, delta))
    return AssociationRule(code, cons, delta, support_a, support_c)


def _ruleset(*rules) -> RuleSet:
    rs = RuleSet()
    for r in rules:
        rs.add(r)
    return rs


def test_empty_rule_set_empty_table():
    g = MultiplexGraph([0, 1], [(0, 1, 0)])
    table = apply_rules(g, RuleSet())
    assert not table.oldold and not table.oldnew


def test_triangle_closing_rule_on_path():
    # path u-v-w in layer a; rule: 2-path -> close the triangle, conf 0.75
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0)], directed=False)
    path2 = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rule = _rule(path2, Delta(0, 2, 0, False), 4, 3)
    table = apply_rules(g, _ruleset(rule))
    assert table.oldold == {(0, 2, 0): pytest.approx(0.75)}
    assert not table.oldnew


def test_oldnew_three_embeddings_sum():
    # hub node matching the antecedent in 3 distinct embeddings: 3q total
    edges = [(0, 1, 0), (0, 2, 0), (0, 3, 0)]
    attrs = {0: "h", 1: "s", 2: "s", 3: "s"}
    g = MultiplexGraph(range(4), edges, attrs=attrs, directed=False)
    ant = Pattern(False, ("h", "s"), (PatternEdge(0, 1, 0, False),))
    rule = _rule(ant, Delta(0, None, 1, False, "n"), 4, 3)
    g2 = MultiplexGraph(range(5), edges + [(0, 4, 1)],
                        attrs=attrs | {4: "n"}, directed=False, layers=[0, 1])
    table = apply_rules(g2, _ruleset(rule))
    assert table.oldnew[(0, 1)] == pytest.approx(3 * 0.75)


def test_existing_triples_never_scored():
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0), (0, 2, 0)], directed=False)
    path2 = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rule = _rule(path2, Delta(0, 2, 0, False), 4, 3)
    table = apply_rules(g, _ruleset(rule))
    assert table.oldold == {}  # the triangle is already closed everywhere


def test_additivity_and_monotonicity():
    rng = random.Random(21)
    g = random_multiplex(rng, max_nodes=8, directed=False)
    sink = RuleBuilder()
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
    sink = RuleBuilder()
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


def _relayer(g: MultiplexGraph, layer_ids) -> MultiplexGraph:
    """``g`` with layer ``l`` renamed to ``layer_ids[l]``."""
    return MultiplexGraph(g.nodes, {(u, v, layer_ids[l]) for u, v, l in g.edges},
                          attrs=g.attrs, directed=g.directed,
                          layers=[layer_ids[l] for l in g.layers])


def _without_layer(g: MultiplexGraph, layer: int) -> MultiplexGraph:
    return MultiplexGraph(g.nodes, {e for e in g.edges if e[2] != layer},
                          attrs=g.attrs, directed=g.directed, layers=g.layers - {layer})


def _assert_exact(table: ScoreTable, oracle) -> None:
    oo, on = oracle
    assert table.oldold == oo  # same keys, and every score float-equal
    assert table.oldnew == on


def test_scorer_matches_bruteforce_sample():
    rng = random.Random(55)
    checked = skipped_rules = 0
    kinds = set()
    for case in range(60):
        layer_ids = ((0, 1, 2), (3, 7, 100), (-2, 5))[case % 3]
        g = _relayer(random_multiplex(rng, max_nodes=7, max_layers=len(layer_ids),
                                      directed=case % 2 == 0), layer_ids)
        sink = RuleBuilder()
        ps = mine(g, MiningConfig(1, 3), rule_sink=sink)
        rules = sink.result()
        if not len(rules):
            continue
        kinds |= {(g.directed, r.delta.j is None) for r in rules}
        # the rules applied to g without one of its layers: rules that need
        # it are skipped, the rest are re-matched on the smaller graph
        g_less = _without_layer(g, rng.choice(sorted(g.layers)))
        skipped_rules += sum(r.delta.layer not in g_less.layers
                             or not r.antecedent.layers <= g_less.layers for r in rules)
        for dedupe in (False, True):
            oracle = brute_apply_rules(g, rules, dedupe_rule_firings=dedupe)
            for pattern_set in (ps, None):
                _assert_exact(apply_rules(g, rules, pattern_set=pattern_set,
                                          dedupe_rule_firings=dedupe), oracle)
            _assert_exact(apply_rules(g_less, rules, dedupe_rule_firings=dedupe),
                          brute_apply_rules(g_less, rules, dedupe_rule_firings=dedupe))
        checked += 1
    assert checked >= 40 and skipped_rules > 0
    assert kinds == {(d, n) for d in (False, True) for n in (False, True)}


def _many_rules_one_target():
    """Many rules, with confidences 1/3, 1/7 and 2/9, firing on the same keys.

    Nodes 0-1-2 form a path in every layer but 1. Each unordered pair of
    non-empty layer sets {S, T} on the edges 0-1 and 1-2 is an antecedent;
    closing 0-2 in layer 1 is an old-old rule firing only on (0, 2, 1). Each
    non-empty layer set on one edge is a 2-node antecedent, matching 0-1
    and 1-2; attaching a fresh node in layer 1 to either end is an old-new
    rule firing on (0, 1) and (2, 1) once and on (1, 1) twice.
    """
    layers = (0, 2, 3, 4)
    g = MultiplexGraph([0, 1, 2], [(u, u + 1, l) for u in (0, 1) for l in layers],
                       directed=False, layers=[0, 1, 2, 3, 4])
    sets = [s for r in range(1, 5) for s in itertools.combinations(layers, r)]
    supports = [(3, 1), (7, 1), (9, 2)]
    rules = []
    for s, t in itertools.combinations_with_replacement(sets, 2):
        edges = [PatternEdge(0, 1, l, False) for l in s] + [
            PatternEdge(1, 2, l, False) for l in t]
        path = Pattern(False, ("_",) * 3, tuple(edges))
        rules.append(_rule(path, Delta(0, 2, 1, False), *supports[len(rules) % 3]))
    for s in sets:
        pair = Pattern(False, ("_",) * 2, tuple(PatternEdge(0, 1, l, False) for l in s))
        rules.append(_rule(pair, Delta(0, None, 1, False, "_"), *supports[len(rules) % 3]))
    rs = _ruleset(*rules)
    assert len(rs) == len(rules) == 135
    return g, rs


def test_sums_follow_sorted_rule_order():
    g, rules = _many_rules_one_target()
    ordered = rules.sorted_rules()
    oldold = [r.confidence for r in ordered if r.delta.j is not None]
    oldnew = [r.confidence for r in ordered if r.delta.j is None]
    want_oo = want_on = want_hub = 0.0
    for c in oldold:
        want_oo += c
    for c in oldnew:
        want_on += c
        want_hub += 2 * c
    # the data is order-sensitive: summing in ascending order gives other floats
    assert sum(sorted(oldold)) != want_oo and sum(sorted(oldnew)) != want_on
    for dedupe in (False, True):
        table = apply_rules(g, rules, dedupe_rule_firings=dedupe)
        assert [(k, v.hex()) for k, v in table.oldold.items()] == [((0, 2, 1), want_oo.hex())]
        hub = want_on if dedupe else want_hub
        assert sorted((k, v.hex()) for k, v in table.oldnew.items()) == [
            ((0, 1), want_on.hex()), ((1, 1), hub.hex()), ((2, 1), want_on.hex())]
        _assert_exact(table, brute_apply_rules(g, rules, dedupe_rule_firings=dedupe))


def test_skips_rules_with_unknown_layer():
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0)], directed=False)
    path2 = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    unknown = [_rule(path2, Delta(0, 2, layer, False), 4, 3) for layer in (7, 8)]
    known = _rule(path2, Delta(0, 2, 0, False), 4, 3)
    rules = _ruleset(*unknown, known)
    table = apply_rules(g, rules)
    assert table.oldold == {(0, 2, 0): pytest.approx(0.75)}
    # the known rule sorts first; the two others are the skipped ones
    assert applicable_rules(g, rules) == [(0, known)]


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


@pytest.mark.parametrize("directed, lines, error_line", [
    (False, ["u\tNEW\ta\t0.5", "u\tNEW\ta\t0.9"], 2),
    (False, ["v\tw\ta\t0.2", "w\tv\ta\t0.7"], 2),  # one undirected candidate
    (True, ["v\tw\ta\t0.2", "w\tv\ta\t0.7"], None),  # two directed candidates
    (False, ["u\tNEW\ta\t0.5", "v\tw\ta\t1", "u\tNEW\ta\t0.50", "w\tv\ta\t1.0"], None),
])
def test_score_dump_candidate_repeated_only_with_its_score(tmp_path, directed, lines,
                                                            error_line):
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0)], directed=directed, layers=[0],
                       node_names={0: "u", 1: "v", 2: "w"}, layer_names={0: "a"})
    path = tmp_path / "scores.tsv"
    path.write_text("\n".join(lines) + "\n")
    if error_line is None:
        load_score_dump(str(path), g)
        return
    with pytest.raises(ParseError) as exc:
        load_score_dump(str(path), g)
    assert exc.value.lineno == error_line
    assert "already has score" in str(exc.value)


def test_provenance_lists_every_firing_rule_in_sorted_order():
    g, rules = _many_rules_one_target()
    ordered = rules.sorted_rules()
    oo_ids = [i for i, r in enumerate(ordered) if r.delta.j is not None]
    on_ids = [i for i, r in enumerate(ordered) if r.delta.j is None]
    table = apply_rules(g, rules, track_provenance=True)
    assert table.provenance == {("oldold", (0, 2, 1)): oo_ids,
                                ("oldnew", (0, 1)): on_ids,
                                ("oldnew", (1, 1)): on_ids,
                                ("oldnew", (2, 1)): on_ids}


def test_rematches_each_antecedent_once(monkeypatch):
    rng = random.Random(8)
    g = random_multiplex(rng, max_nodes=8, directed=False)
    sink = RuleBuilder()
    mine(g, MiningConfig(1, 3), rule_sink=sink)
    rules = sink.result()
    antecedents = {r.antecedent_code for r in rules}
    assert len(rules) > len(antecedents)  # some antecedent has several rules
    calls = []
    monkeypatch.setattr(predict, "code_embeddings",
                        lambda code, g: calls.append(code) or code_embeddings(code, g))
    apply_rules(g, rules)
    assert len(calls) == len(antecedents)


def test_provenance_tracks_rule_ids():
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0)], directed=False)
    path2 = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rule = _rule(path2, Delta(0, 2, 0, False), 4, 3)
    table = apply_rules(g, _ruleset(rule), track_provenance=True)
    assert table.provenance == {("oldold", (0, 2, 0)): [0]}


def _table_hex(table: ScoreTable):
    return ([(k, v.hex()) for k, v in table.oldold.items()],
            [(k, v.hex()) for k, v in table.oldnew.items()], table.provenance)


@pytest.mark.parametrize("directed", [False, True])
def test_provenance_matches_one_rule_oracles(directed):
    rng = random.Random(61 + directed)
    checked = 0
    for _ in range(25):
        g = random_multiplex(rng, max_nodes=8, directed=directed)
        sink = RuleBuilder()
        mine(g, MiningConfig(1, 3), rule_sink=sink)
        rules = sink.result()
        fired: dict = {}
        for rule_id, rule in enumerate(rules.sorted_rules()):
            oo, on = brute_apply_rules(g, _ruleset(rule))
            for key in oo:
                fired.setdefault(("oldold", key), []).append(rule_id)
            for key in on:
                fired.setdefault(("oldnew", key), []).append(rule_id)
        table = apply_rules(g, rules, track_provenance=True)
        assert table.provenance == fired
        checked += len(fired)
    assert checked > 100


@pytest.mark.parametrize("budget", [1, 7, 1 << 40])
def test_batch_size_changes_no_table(monkeypatch, budget):
    rng = random.Random(77)
    cases = [(*_many_rules_one_target(), None)]
    for directed in (False, True):
        for _ in range(6):
            g = random_multiplex(rng, max_nodes=9, directed=directed)
            sink = RuleBuilder()
            cases.append((g, sink.result(), mine(g, MiningConfig(1, 3), rule_sink=sink)))
    for dedupe in (False, True):
        want = [_table_hex(apply_rules(g, rules, pattern_set=ps, dedupe_rule_firings=dedupe,
                                       track_provenance=True)) for g, rules, ps in cases]
        monkeypatch.setattr(predict, "BATCH_FIRINGS", budget)
        got = [_table_hex(apply_rules(g, rules, pattern_set=ps, dedupe_rule_firings=dedupe,
                                      track_provenance=True)) for g, rules, ps in cases]
        monkeypatch.undo()
        assert got == want


def test_antecedent_without_embeddings_fires_nothing():
    # layer 1 is declared but has no edge, so every antecedent using it is
    # re-matched to zero rows, inside the same batches as the others
    g = MultiplexGraph(range(5), [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0)],
                       directed=False, layers=[0, 1])
    path2 = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    empty = [Pattern(False, ("_", "_"), (PatternEdge(0, 1, 1, False),)),
             Pattern(False, ("_", "_", "_"),
                     (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 1, False)))]
    live = [_rule(path2, Delta(0, 2, layer, False), 4, 3) for layer in (0, 1)]
    dead = [_rule(empty[0], Delta(0, None, 0, False, "_"), 4, 3),
            _rule(empty[1], Delta(0, 2, 0, False), 4, 3)]
    table = apply_rules(g, _ruleset(*live, *dead), track_provenance=True)
    _assert_exact(table, brute_apply_rules(g, _ruleset(*live)))
    assert len(table.oldold) == 6 and not table.oldnew


def test_firings_all_on_training_edges_give_empty_table():
    # every layer of a complete graph: each cycle rule closes an existing edge
    g = MultiplexGraph(range(4), [(u, v, l) for u in range(4) for v in range(u + 1, 4)
                                  for l in (0, 1)], directed=False)
    sink = RuleBuilder()
    mine(g, MiningConfig(1, 3), rule_sink=sink)
    cycles = [r for r in sink.result().sorted_rules() if r.delta.j is not None]
    assert len(cycles) > 5
    table = apply_rules(g, _ruleset(*cycles), track_provenance=True)
    assert table.oldold == {} and table.oldnew == {} and table.provenance == {}

import dataclasses
import functools
import random
from collections import Counter

import pytest

from plexmine.graph import MultiplexGraph
from plexmine.miner import MiningConfig, mine
from plexmine.pattern import CanonicalCode, Delta, Strategy
from plexmine.rules import RuleBuilder, RuleSet, derive_rules_posthoc, restrict_rules

from oracles import random_multiplex


def _offers(g, sigma, size, strategy=Strategy.BFS):
    """The pattern set and every offer of one mine."""
    sink = RuleBuilder()
    ps = mine(g, MiningConfig(sigma, size, strategy), rule_sink=sink)
    return ps, sink.result()


def _mine_both(g, sigma, size, conf, strategy=Strategy.BFS):
    ps, offers = _offers(g, sigma, size, strategy)
    return ps, restrict_rules(offers, ps, conf), derive_rules_posthoc(ps, conf, strategy)


def test_confidence_one_when_supports_equal():
    # every 'a' node has a 'b' neighbor: the attach rule has confidence 1
    edges = [(i, 10 + i, 0) for i in range(4)]
    attrs = {i: "a" for i in range(4)} | {10 + i: "b" for i in range(4)}
    g = MultiplexGraph(list(attrs), edges, attrs=attrs, directed=False)
    _, emb, _ = _mine_both(g, 4, 2, 0.8)
    by_conf = [r for r in emb if r.antecedent.k == 1 and r.antecedent.node_labels == ("a",)]
    assert by_conf and all(r.confidence == 1.0 for r in by_conf)


def test_sink_rejects_a_repeated_offer_with_other_supports():
    edges = [(i, 10 + i, 0) for i in range(3)]
    attrs = {i: "a" for i in range(3)} | {10 + i: "b" for i in range(3)}
    g = MultiplexGraph(list(attrs), edges, attrs=attrs, directed=False)
    ps = mine(g, MiningConfig(1, 2))
    parent = ps.get(CanonicalCode.from_string("Bu|a|"))
    child = ps.get(CanonicalCode.from_string("Bu|a|0-1:0:0:b"))
    delta = Delta(0, None, 0, False, "b")
    sink = RuleBuilder()
    rule = sink.offer(parent, child, delta)
    assert (rule.support_a, rule.support_c) == (3, 3)
    assert sink.offer(parent, child, delta) is rule
    with pytest.raises(ValueError, match="conflicting supports"):
        sink.offer(parent, dataclasses.replace(child, support=2), delta)


def test_threshold_filters_rules():
    # 10 'a' nodes, only 7 have the 'b' neighbor: 0.7 < c = 0.8
    edges = [(i, 10 + i, 0) for i in range(7)]
    nodes = list(range(10)) + [10 + i for i in range(7)]
    attrs = {i: "a" for i in range(10)} | {10 + i: "b" for i in range(7)}
    g = MultiplexGraph(nodes, edges, attrs=attrs, directed=False)
    _, strict, _ = _mine_both(g, 7, 2, 0.8)
    assert not any(
        r.antecedent.node_labels == ("a",) and r.support_a == 10 for r in strict
    )
    _, loose, _ = _mine_both(g, 7, 2, 0.5)
    assert any(
        r.antecedent.node_labels == ("a",) and r.support_a == 10 for r in loose
    )


def test_old_new_rule_shape():
    # 2-node antecedent, 3-node consequent with a dangling new node
    edges = [(i, 10 + i, 0) for i in range(4)] + [(i, 20 + i, 1) for i in range(3)]
    nodes = sorted({u for e in edges for u in e[:2]})
    g = MultiplexGraph(nodes, edges, directed=False, layers=[0, 1])
    _, emb, _ = _mine_both(g, 3, 3, 0.5)
    grow = [r for r in emb
            if r.antecedent.k == 2 and r.delta.j is None]
    assert grow
    for r in grow:
        assert r.consequent.k == 3
        assert len(r.consequent.edges) == len(r.antecedent.edges) + 1


def test_rule_structural_invariants():
    rng = random.Random(5)
    for _ in range(15):
        g = random_multiplex(rng, max_nodes=8)
        _, emb, _ = _mine_both(g, 1, 3, 0.5)
        for r in emb:
            assert 0.0 < r.confidence <= 1.0
            assert r.antecedent.is_connected()
            assert r.consequent.is_connected()
            assert len(r.consequent.edges) == len(r.antecedent.edges) + 1
            assert r.consequent.k - r.antecedent.k in (0, 1)
            assert r.support_a >= r.support_c >= 1


def test_mode_equivalence_random_graphs():
    """The sink keeps every offer, and filtering them on the mine's own
    patterns gives the post-hoc rules, each rule the offer object itself."""
    rng = random.Random(11)
    directed = set()
    for trial in range(20):
        g = random_multiplex(rng, max_nodes=8)
        directed.add(g.directed)
        conf = rng.choice((0.3, 0.5, 0.8, 1.0))
        for strategy in (Strategy.BFS, Strategy.DFS):
            ps, offers = _offers(g, rng.choice((1, 2)), 3, strategy)
            where = f"trial {trial} strategy {strategy}"
            assert offers.to_tsv() == derive_rules_posthoc(ps, 0.0, strategy).to_tsv(), where
            emb = restrict_rules(offers, ps, conf)
            assert emb.to_tsv() == derive_rules_posthoc(ps, conf, strategy).to_tsv(), where
            for c in (0.0, 0.3, 0.5, 1.0):
                kept = restrict_rules(offers, ps, c).rules
                assert all(rule is offers.rules[key] for key, rule in kept.items()), where
    assert directed == {False, True}


def test_posthoc_no_containment_pairs_empty():
    # only single-node patterns: nothing to pair up
    g = MultiplexGraph([0, 1], [(0, 1, 0)], attrs={0: "a", 1: "b"})
    ps = mine(g, MiningConfig(2, 2))  # the edge pattern has support 1 < 2
    assert all(rec.pattern.k == 1 for rec in ps)
    assert len(derive_rules_posthoc(ps, 0.5)) == 0


def test_dump_roundtrip_and_sorted(tmp_path):
    rng = random.Random(8)
    g = random_multiplex(rng, max_nodes=8)
    _, emb, _ = _mine_both(g, 1, 3, 0.5)
    text = emb.to_tsv()
    assert text.splitlines() == sorted(text.splitlines())
    path = tmp_path / "rules.tsv"
    path.write_text(text)
    loaded = RuleSet.from_tsv(str(path))
    assert loaded.to_tsv() == text


def test_confidence_boundary_inclusive():
    # support 8/10 = 0.8 must survive a 0.8 threshold
    edges = [(i, 10 + i, 0) for i in range(8)]
    nodes = list(range(10)) + [10 + i for i in range(8)]
    attrs = {i: "a" for i in range(10)} | {10 + i: "b" for i in range(8)}
    g = MultiplexGraph(nodes, edges, attrs=attrs, directed=False)
    _, emb, post = _mine_both(g, 8, 2, 0.8)
    assert any(abs(r.confidence - 0.8) < 1e-12 for r in emb)
    assert emb.to_tsv() == post.to_tsv()


def _fresh_string(code_or_delta: CanonicalCode | Delta) -> str:
    """The string of a code or delta, computed on an equal copy that has
    not memoised it."""
    return dataclasses.replace(code_or_delta).to_string()


def test_code_string_memo_keeps_dumps_and_rule_order():
    # labels that need percent-encoding in the dump
    names = {"a": "a b", "b": "x|y%", "c": "\u00e9"}
    for seed in range(6):
        rng = random.Random(seed)
        g0 = random_multiplex(rng, max_nodes=8)
        g = MultiplexGraph(g0.nodes, g0.edges, attrs={u: names[a] for u, a in g0.attrs.items()},
                           directed=g0.directed, layers=g0.layers)
        for strategy in (Strategy.BFS, Strategy.DFS):
            ps, emb, post = _mine_both(g, 1, 3, 0.3, strategy)
            want = sorted(emb.rules, key=lambda k: (_fresh_string(k[0]),
                                                    _fresh_string(k[1])))
            for rs in (emb, post, emb):  # the second pass over emb reads the memo
                assert [r.key() for r in rs.sorted_rules()] == want
            assert emb.to_tsv().splitlines() == sorted(
                "\t".join([_fresh_string(r.antecedent_code), _fresh_string(r.consequent_code),
                           _fresh_string(r.delta), str(r.support_a),
                           str(r.support_c), f"{r.confidence:.6f}"])
                for r in emb)
            assert ps.dump().splitlines() == sorted(
                f"{_fresh_string(rec.code)}\t{rec.support}\t{len(rec.embeddings)}" for rec in ps)
            for rec in ps:
                text = rec.code.to_string()
                assert rec.code.to_string() is text
                assert CanonicalCode.from_string(text) == rec.code


def test_rule_order_ignores_insertion_order_and_encodes_each_delta_once(monkeypatch):
    rng = random.Random(1)
    g0 = random_multiplex(rng, max_nodes=8)
    g = MultiplexGraph(g0.nodes, g0.edges, attrs={u: f"{a} %" for u, a in g0.attrs.items()},
                       directed=g0.directed, layers=g0.layers)
    _, emb, _ = _mine_both(g, 1, 3, 0.3)
    assert any(r.delta.j is None for r in emb) and len(emb) > 20
    want = sorted(emb.rules, key=lambda k: (_fresh_string(k[0]), _fresh_string(k[1])))
    encoded = Counter()
    encode = Delta._string.func

    def counted(delta):
        encoded[delta] += 1
        return encode(delta)

    memo = functools.cached_property(counted)
    memo.__set_name__(Delta, "_string")
    monkeypatch.setattr(Delta, "_string", memo)
    for _ in range(3):
        # copies of the rules and their deltas: nothing memoised
        shuffled = [dataclasses.replace(r, delta=dataclasses.replace(r.delta))
                    for r in emb.rules.values()]
        rng.shuffle(shuffled)
        rs = RuleSet()
        for r in shuffled:
            rs.add(r)
        encoded.clear()
        for _ in range(2):
            assert [r.key() for r in rs.sorted_rules()] == want
        assert rs.to_tsv() == emb.to_tsv()
        assert encoded == Counter(k for _, k in want)

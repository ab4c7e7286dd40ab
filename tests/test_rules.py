import random

from plexmine.graph import MultiplexGraph
from plexmine.miner import MiningConfig, mine
from plexmine.pattern import Strategy
from plexmine.rules import RuleBuilder, RuleSet, derive_rules_posthoc

from oracles import random_multiplex


def _mine_both(g, sigma, size, conf, strategy=Strategy.BFS):
    sink = RuleBuilder(conf, strategy)
    ps = mine(g, MiningConfig(sigma, size, strategy), rule_sink=sink)
    return ps, sink.result(), derive_rules_posthoc(ps, conf, strategy)


def test_confidence_one_when_supports_equal():
    # every 'a' node has a 'b' neighbor: the attach rule has confidence 1
    edges = [(i, 10 + i, 0) for i in range(4)]
    attrs = {i: "a" for i in range(4)} | {10 + i: "b" for i in range(4)}
    g = MultiplexGraph(list(attrs), edges, attrs=attrs, directed=False)
    _, emb, _ = _mine_both(g, 4, 2, 0.8)
    by_conf = [r for r in emb if r.antecedent.k == 1 and r.antecedent.node_labels == ("a",)]
    assert by_conf and all(r.confidence == 1.0 for r in by_conf)


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
            if r.antecedent.k == 2 and r.introduces_new_node]
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
    rng = random.Random(11)
    for trial in range(20):
        g = random_multiplex(rng, max_nodes=8)
        conf = rng.choice((0.3, 0.5, 0.8, 1.0))
        for strategy in (Strategy.BFS, Strategy.DFS):
            _, emb, post = _mine_both(g, rng.choice((1, 2)), 3, conf, strategy)
            assert emb.same_rules(post), f"trial {trial} strategy {strategy}"


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
    assert loaded.same_rules(emb)
    assert loaded.to_tsv() == text


def test_confidence_boundary_inclusive():
    # support 8/10 = 0.8 must survive a 0.8 threshold
    edges = [(i, 10 + i, 0) for i in range(8)]
    nodes = list(range(10)) + [10 + i for i in range(8)]
    attrs = {i: "a" for i in range(10)} | {10 + i: "b" for i in range(8)}
    g = MultiplexGraph(nodes, edges, attrs=attrs, directed=False)
    _, emb, post = _mine_both(g, 8, 2, 0.8)
    assert any(abs(r.confidence - 0.8) < 1e-12 for r in emb)
    assert emb.same_rules(post)

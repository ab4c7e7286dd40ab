import random
from fractions import Fraction

import pytest

from plexmine.pattern import (
    Delta,
    Pattern,
    PatternEdge,
    apply_delta,
    canonical_code,
    canonical_delta,
    canonical_orderings,
)
from plexmine.rules import AssociationRule, RuleSet
from plexmine.signed import (
    RuleFrustrationClass,
    SignMap,
    SignedError,
    classify_rule,
    frustrated_count,
    frustration,
    frustration_report,
)

from oracles import brute_frustration_count, random_connected_pattern

PLUS_MINUS = SignMap({0: 1, 1: -1})


def _triangle(layers: tuple[int, int, int]) -> Pattern:
    return Pattern(False, ("_", "_", "_"),
                   (PatternEdge(0, 1, layers[0], False),
                    PatternEdge(0, 2, layers[1], False),
                    PatternEdge(1, 2, layers[2], False)))


def test_triangle_fixtures():
    balanced = frustration(_triangle((0, 0, 0)), PLUS_MINUS)
    assert balanced.frustrated_edge_count == 0
    assert balanced.index == 0

    one_neg = frustration(_triangle((0, 0, 1)), PLUS_MINUS)
    assert one_neg.frustrated_edge_count == 1
    assert one_neg.index == Fraction(1, 3)

    two_neg = frustration(_triangle((0, 1, 1)), PLUS_MINUS)
    assert two_neg.frustrated_edge_count == 0
    assert two_neg.index == 0


def test_witness_partition_achieves_minimum():
    res = frustration(_triangle((0, 1, 1)), PLUS_MINUS)
    g0, g1 = res.witness_partition
    count = 0
    for e in _triangle((0, 1, 1)).edges:
        sign = PLUS_MINUS.signs[e.layer]
        same = (e.i in g0) == (e.j in g0)
        if (sign < 0) == same:
            count += 1
    assert count == res.frustrated_edge_count


def test_all_excluded_rejected():
    p = _triangle((0, 0, 0))
    with pytest.raises(SignedError):
        frustration(p, SignMap({7: 1}))


def test_matches_bruteforce_random():
    rng = random.Random(99)
    for _ in range(200):
        p = random_connected_pattern(rng, max_nodes=6, n_layers=2)
        if not p.edges:
            continue
        signs = SignMap({0: rng.choice((1, -1)), 1: rng.choice((1, -1))})
        sedges = [(e.i, e.j, signs.signs[e.layer]) for e in p.edges]
        assert frustrated_count(p, signs) == brute_frustration_count(p.k, sedges)


def test_negation_and_swap_invariance():
    rng = random.Random(7)
    for _ in range(50):
        p = random_connected_pattern(rng, max_nodes=5, n_layers=2)
        if not p.edges:
            continue
        signs = SignMap({0: 1, 1: -1})
        flipped = SignMap({0: -1, 1: 1})
        res = frustration(p, signs)
        # swapping the witness sides changes nothing
        g0, g1 = res.witness_partition
        assert frustration(p, signs).index == res.index
        assert (g1, g0) != res.witness_partition or g0 == g1
        # global negation can change the count, but both stay exact minima
        assert frustration(p, flipped).frustrated_edge_count == \
            brute_frustration_count(p.k, [(e.i, e.j, flipped.signs[e.layer])
                                          for e in p.edges])


def _mk_rule(ant: Pattern, delta: Delta) -> AssociationRule:
    code = canonical_code(ant)
    delta = canonical_delta(ant, delta, canonical_orderings(ant))
    cons = canonical_code(apply_delta(code.pattern, delta))
    return AssociationRule(code, cons, delta, support_a=10, support_c=7)


def test_classify_wedge_rules():
    wedge = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    closing_neg = _mk_rule(wedge, Delta(0, 2, 1, False))
    closing_pos = _mk_rule(wedge, Delta(0, 2, 0, False))
    assert classify_rule(closing_neg, PLUS_MINUS) == RuleFrustrationClass.INCREASING
    assert classify_rule(closing_pos, PLUS_MINUS) == RuleFrustrationClass.ZERO_CONSEQUENT


def test_classify_decreasing_by_index():
    # (+,+,-) triangle antecedent has count 1; attaching any positive edge
    # keeps the count at 1, so the index strictly drops (1/3 -> 1/4).
    tri = _triangle((0, 0, 1))
    rule = _mk_rule(tri, Delta(0, None, 0, False, "_"))
    assert frustrated_count(rule.antecedent, PLUS_MINUS) == 1
    assert frustrated_count(rule.consequent, PLUS_MINUS) == 1
    assert classify_rule(rule, PLUS_MINUS) == RuleFrustrationClass.DECREASING


def test_adding_edge_never_lowers_count():
    # sanity behind the classification: the consequent's exact minimum can
    # never fall below the antecedent's
    rng = random.Random(13)
    for _ in range(100):
        p = random_connected_pattern(rng, max_nodes=5, n_layers=2)
        if not p.edges:
            continue
        signs = PLUS_MINUS
        before = frustrated_count(p, signs)
        if rng.random() < 0.5 or p.k < 2:
            delta = Delta(rng.randrange(p.k), None, rng.randrange(2), False, "_")
        else:
            i, j = sorted(rng.sample(range(p.k), 2))
            existing = {(e.i, e.j, e.layer, e.dirbit) for e in p.edges}
            layer = rng.randrange(2)
            if (i, j, layer, False) in existing:
                continue
            delta = Delta(i, j, layer, False)
        from plexmine.pattern import apply_delta
        after = frustrated_count(apply_delta(p, delta), signs)
        assert after >= before
        assert after <= before + 1


def test_classification_is_total():
    rng = random.Random(3)
    wedge = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 1, False)))
    rules = [
        _mk_rule(wedge, Delta(0, 2, 0, False)),
        _mk_rule(wedge, Delta(0, 2, 1, False)),
        _mk_rule(wedge, Delta(0, None, 7, False, "_")),  # excluded layer delta
        _mk_rule(Pattern(False, ("_",), ()), Delta(0, None, 0, False, "_")),
    ]
    for r in rules:
        assert classify_rule(r, PLUS_MINUS) in RuleFrustrationClass


def test_report_all_positive_rules():
    wedge = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rs = RuleSet()
    rs.add(_mk_rule(wedge, Delta(0, 2, 0, False)))
    rs.add(_mk_rule(wedge, Delta(0, None, 0, False, "_")))
    report = frustration_report(rs, PLUS_MINUS)
    assert report.shares[RuleFrustrationClass.ZERO_CONSEQUENT] == 1.0
    assert report.shares[RuleFrustrationClass.INCREASING] == 0.0


def test_report_planted_class_shares():
    wedge = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    tri = _triangle((0, 0, 1))
    rs = RuleSet()
    rs.add(_mk_rule(wedge, Delta(0, 2, 1, False)))        # increasing
    rs.add(_mk_rule(wedge, Delta(0, 2, 0, False)))        # zero consequent
    rs.add(_mk_rule(tri, Delta(0, None, 0, False, "_")))  # decreasing
    rs.add(_mk_rule(tri, Delta(1, None, 0, False, "_")))  # decreasing
    report = frustration_report(rs, PLUS_MINUS)
    assert report.shares[RuleFrustrationClass.INCREASING] == pytest.approx(0.25)
    assert report.shares[RuleFrustrationClass.ZERO_CONSEQUENT] == pytest.approx(0.25)
    assert report.shares[RuleFrustrationClass.DECREASING] == pytest.approx(0.5)
    assert report.n_rules == 4
    text = report.to_tsv()
    assert "increasing" in text and "support_ccdf" in text


def test_ccdf_starts_at_one_nonincreasing():
    wedge = Pattern(False, ("_", "_", "_"),
                    (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rs = RuleSet()
    rs.add(_mk_rule(wedge, Delta(0, 2, 0, False)))
    rs.add(_mk_rule(wedge, Delta(0, None, 0, False, "_")))
    rs.add(_mk_rule(wedge, Delta(1, None, 0, False, "_")))
    report = frustration_report(rs, PLUS_MINUS)
    curve = report.support_ccdf[RuleFrustrationClass.ZERO_CONSEQUENT]
    assert curve[0][1] == 1.0
    assert all(a[1] >= b[1] for a, b in zip(curve, curve[1:]))


def test_signmap_parse_and_preset():
    names = {0: "friendship", 1: "enemies", 2: "attacks"}
    preset = SignMap.pardus_preset(names)
    assert preset.signs == {0: 1, 1: -1, 2: -1}
    parsed = SignMap.parse("friendship:+,enemies:-,attacks:x", names)
    assert parsed.signs == {0: 1, 1: -1}
    with pytest.raises(SignedError):
        SignMap.parse("nope:+", names)
    # a repeated layer is an error whatever its marks, not last-one-wins
    for spec in ("L0:+,L0:-,L1:-", "L0:+,L0:x,L1:-"):
        with pytest.raises(SignedError, match="'L0' is given more than once"):
            SignMap.parse(spec, {0: "L0", 1: "L1"})
    with pytest.raises(SignedError):
        SignMap({0: 2})

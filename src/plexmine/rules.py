"""Graph association rules: antecedent -> antecedent + one edge.

Rules are keyed by (antecedent canonical code, canonical delta position),
so extensions that are isomorphic as (antecedent, consequent, delta)
triples merge into one rule no matter which search branch produced them.
Two construction modes exist with identical output: the embedded sink
collects rules while the miner runs, and the legacy post-hoc derivation
rebuilds them from a finished pattern set by testing single-edge
containment between patterns of adjacent size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .io import ParseError
from .miner import MinedPattern, PatternSet
from .pattern import (
    CanonicalCode,
    Delta,
    Pattern,
    PatternEdge,
    Strategy,
    apply_delta,
    canonical_code,
    canonical_delta_key,
    delta_from_key,
    delta_key_from_string,
    delta_key_to_string,
    pattern_from_code,
)

CONFIDENCE_EPS = 1e-12
DEFAULT_MIN_CONFIDENCE = 0.5

RuleKey = tuple[CanonicalCode, tuple]

_pattern_cache: dict[CanonicalCode, Pattern] = {}


def _pattern_of(code: CanonicalCode) -> Pattern:
    p = _pattern_cache.get(code)
    if p is None:
        p = pattern_from_code(code)
        _pattern_cache[code] = p
    return p


@dataclass(frozen=True)
class AssociationRule:
    antecedent: Pattern  # in canonical node indexing
    antecedent_code: CanonicalCode
    consequent_code: CanonicalCode
    delta_key: tuple
    support_a: int
    support_c: int

    @property
    def confidence(self) -> float:
        return self.support_c / self.support_a

    @property
    def delta(self) -> Delta:
        return delta_from_key(self.delta_key, self.antecedent.directed)

    @property
    def introduces_new_node(self) -> bool:
        return self.delta_key[0] == 1

    @property
    def consequent(self) -> Pattern:
        return apply_delta(self.antecedent, self.delta)

    def key(self) -> RuleKey:
        return (self.antecedent_code, self.delta_key)

    def to_line(self) -> str:
        return "\t".join(
            [
                self.antecedent_code.to_string(),
                self.consequent_code.to_string(),
                delta_key_to_string(self.delta_key),
                str(self.support_a),
                str(self.support_c),
                f"{self.confidence:.6f}",
            ]
        )


class RuleSet:
    def __init__(self, min_confidence: float = DEFAULT_MIN_CONFIDENCE):
        self.min_confidence = min_confidence
        self.rules: dict[RuleKey, AssociationRule] = {}

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.sorted_rules())

    def sorted_rules(self) -> list[AssociationRule]:
        return [self.rules[k] for k in sorted(self.rules, key=_key_sort)]

    def add(self, rule: AssociationRule) -> AssociationRule:
        prev = self.rules.get(rule.key())
        if prev is not None:
            if (prev.support_a, prev.support_c) != (rule.support_a, rule.support_c):
                raise ValueError(
                    f"conflicting supports for rule {rule.key()}: "
                    f"{(prev.support_a, prev.support_c)} vs "
                    f"{(rule.support_a, rule.support_c)}"
                )
            return prev
        self.rules[rule.key()] = rule
        return rule

    def to_tsv(self) -> str:
        lines = sorted(r.to_line() for r in self.rules.values())
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_tsv(cls, path: str, min_confidence: float = 0.0) -> "RuleSet":
        """Read a rule dump file written from ``to_tsv``.

        Raises ``ParseError(path, line)`` for a wrong field count, a code or
        delta that does not parse, a non-integer support, or supports that
        break ``0 < support_c <= support_a``.
        """
        rs = cls(min_confidence)
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rs.add(_rule_from_fields(line.split("\t")))
                except (ValueError, IndexError) as exc:
                    raise ParseError(path, lineno, str(exc)) from None
        return rs

    def same_rules(self, other: "RuleSet") -> bool:
        """Set equality of (antecedent, delta, consequent, supports)."""
        if set(self.rules) != set(other.rules):
            return False
        for k, r in self.rules.items():
            o = other.rules[k]
            if (r.support_a, r.support_c, r.consequent_code) != (
                o.support_a,
                o.support_c,
                o.consequent_code,
            ):
                return False
        return True


def _rule_from_fields(parts: list[str]) -> AssociationRule:
    if len(parts) != 6:
        raise ValueError(f"expected 6 fields, got {len(parts)}")
    try:
        support_a, support_c = int(parts[3]), int(parts[4])
    except ValueError:
        raise ValueError(f"non-integer support {parts[3]!r}/{parts[4]!r}") from None
    if not 0 < support_c <= support_a:
        raise ValueError(f"supports {support_a}/{support_c} break "
                         "0 < support_c <= support_a")
    a_code = CanonicalCode.from_string(parts[0])
    return AssociationRule(
        antecedent=pattern_from_code(a_code),
        antecedent_code=a_code,
        consequent_code=CanonicalCode.from_string(parts[1]),
        delta_key=delta_key_from_string(parts[2]),
        support_a=support_a,
        support_c=support_c,
    )


def _key_sort(key: RuleKey):
    code, delta_key = key
    return (code.to_string(), delta_key_to_string(delta_key))


class RuleBuilder:
    """Embedded rule sink: feed it to ``mine`` and read ``result()``.

    Offers arrive in search order and may repeat for automorphic
    placements; merging by canonical key is associative and commutative,
    so arrival order never changes the outcome.
    """

    def __init__(self, min_confidence: float = DEFAULT_MIN_CONFIDENCE,
                 strategy: Strategy = Strategy.BFS):
        self.min_confidence = min_confidence
        self.strategy = strategy
        self._rules = RuleSet(min_confidence)

    def offer(self, parent: MinedPattern, child: MinedPattern, delta: Delta) -> AssociationRule | None:
        conf = child.support / parent.support
        if conf + CONFIDENCE_EPS < self.min_confidence:
            return None
        delta_key = canonical_delta_key(parent.pattern, delta, self.strategy)
        existing = self._rules.rules.get((parent.code, delta_key))
        if existing is not None:
            return existing
        rule = AssociationRule(
            antecedent=_pattern_of(parent.code),
            antecedent_code=parent.code,
            consequent_code=child.code,
            delta_key=delta_key,
            support_a=parent.support,
            support_c=child.support,
        )
        return self._rules.add(rule)

    def result(self) -> RuleSet:
        return self._rules


def derive_rules_posthoc(
    patterns: PatternSet,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    strategy: Strategy = Strategy.BFS,
) -> RuleSet:
    """Rebuild the rule set from a finished pattern set (legacy mode).

    Single-edge containment is tested between all pattern pairs of
    adjacent size: a consequent candidate is compared against every mined
    pattern with one edge less, via its single-edge-deletion antecedents
    (dropping the freed node when the deleted edge was its only one).
    The pair scan is quadratic in the pattern count, which is exactly the
    legacy cost profile this mode exists to measure; output is identical
    to the embedded sink on the same mining run.
    """
    rs = RuleSet(min_confidence)
    records = list(patterns)
    # antecedent candidates per consequent: one per deletable edge
    deletions: list[list[tuple]] = []
    for child in records:
        pb = child.pattern
        cands = []
        for eidx in range(len(pb.edges)):
            for ant, delta in _single_edge_antecedents(pb, eidx):
                if not ant.is_connected():
                    continue
                cands.append((canonical_code(ant, strategy), ant, delta))
        deletions.append(cands)
    for a_rec in records:
        ka, ma = a_rec.pattern.k, len(a_rec.pattern.edges)
        for child, cands in zip(records, deletions):
            kc, mc = child.pattern.k, len(child.pattern.edges)
            if mc != ma + 1 or kc - ka not in (0, 1):
                continue
            for code_a, ant, delta in cands:
                if code_a != a_rec.code:
                    continue
                conf = child.support / a_rec.support
                if conf + CONFIDENCE_EPS < min_confidence:
                    continue
                rs.add(
                    AssociationRule(
                        antecedent=_pattern_of(code_a),
                        antecedent_code=code_a,
                        consequent_code=child.code,
                        delta_key=canonical_delta_key(ant, delta, strategy),
                        support_a=a_rec.support,
                        support_c=child.support,
                    )
                )
    return rs


def _single_edge_antecedents(pb: Pattern, eidx: int):
    """Antecedent candidates obtained by deleting one edge of ``pb``.

    Yields (antecedent, delta-in-antecedent-indexing) pairs; the caller
    still has to check connectivity and frequency.
    """
    e = pb.edges[eidx]
    rest = tuple(x for n, x in enumerate(pb.edges) if n != eidx)
    deg_i = sum(1 for x in rest if e.i in (x.i, x.j))
    deg_j = sum(1 for x in rest if e.j in (x.i, x.j))
    directed = pb.directed
    if deg_i > 0 and deg_j > 0:
        ant = Pattern(directed, pb.node_labels, rest)
        yield ant, Delta(e.i, e.j, e.layer, forward=e.dirbit if directed else True)
        return
    if deg_i == 0 and deg_j == 0:
        # pb is a single edge on two nodes: either endpoint can anchor
        yield (
            Pattern(directed, (pb.node_labels[e.i],), ()),
            Delta(0, None, e.layer, forward=e.dirbit if directed else True,
                  new_label=pb.node_labels[e.j]),
        )
        yield (
            Pattern(directed, (pb.node_labels[e.j],), ()),
            Delta(0, None, e.layer, forward=(not e.dirbit) if directed else True,
                  new_label=pb.node_labels[e.i]),
        )
        return
    drop, keep = (e.i, e.j) if deg_i == 0 else (e.j, e.i)
    labels = tuple(lab for n, lab in enumerate(pb.node_labels) if n != drop)

    def reindex(n: int) -> int:
        return n - 1 if n > drop else n

    edges = tuple(
        PatternEdge(reindex(x.i), reindex(x.j), x.layer, x.dirbit) for x in rest
    )
    ant = Pattern(directed, labels, edges)
    # direction existing -> new: the deleted edge ran keep -> drop iff its
    # actual source was `keep`
    actual_src = e.i if e.dirbit else e.j
    forward = (actual_src == keep) if directed else True
    yield ant, Delta(reindex(keep), None, e.layer, forward=forward,
                     new_label=pb.node_labels[drop])

"""Graph association rules: antecedent -> antecedent + one edge.

A rule holds only its two canonical codes, its canonical delta (in the
antecedent's canonical node indexing) and its two supports; the
antecedent pattern is read off its code. Rules are keyed by (antecedent
canonical code, canonical delta), so extensions that are isomorphic as
(antecedent, consequent, delta) triples merge into one rule no matter
which search branch produced them. Two rule sets are equal when their
``to_tsv`` dumps are: codes and deltas print injectively.
Two construction modes exist with identical output. The embedded path
collects every offer while the miner runs (``RuleBuilder``); the legacy
post-hoc derivation rebuilds the rules from a finished pattern set by
testing single-edge containment between patterns of adjacent size. A
rule set becomes arrays only in ``RuleTable``, whose ``select`` keeps, as
a mask, the rules of its mine or of a set derived from it that reach a
confidence there, and whose ``fitting`` keeps the rules that fit a graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MultiplexGraph
from .io import ParseError, text_lines
from .matcher import fits
from .miner import MinedPattern, MiningInvariantError, PatternSet
from .pattern import (
    CanonicalCode,
    Delta,
    Pattern,
    PatternEdge,
    Strategy,
    apply_delta,
    canonical_code,
    canonical_delta,
    canonical_orderings,
)

CONFIDENCE_EPS = 1e-12
CONFIDENCE_TOLERANCE = 5e-7 + CONFIDENCE_EPS  # half a unit of the dump's 6th decimal
DEFAULT_MIN_CONFIDENCE = 0.5

RuleKey = tuple[CanonicalCode, Delta]

CODE_FORM = ("a canonical code <B|D><u|d>|<root label>|<src>-<dst>:<layer>:<dirbit>:<label>;... "
             "with dirbit 0 or 1, and 0 in an undirected code")
DELTA_FORM = "C:<i>-<j>:<layer>:<dirbit> or N:<i>:<layer>:<dirbit>:<label> with dirbit 0 or 1"


@dataclass(frozen=True)
class AssociationRule:
    """Antecedent -> antecedent + delta, held as the two canonical codes,
    the canonical delta (in the antecedent's canonical node indexing) and
    the two supports. The patterns are read off these."""

    antecedent_code: CanonicalCode
    consequent_code: CanonicalCode
    delta: Delta
    support_a: int
    support_c: int

    @property
    def antecedent(self) -> Pattern:
        """The antecedent in canonical node indexing, which the delta uses."""
        return self.antecedent_code.pattern

    @property
    def confidence(self) -> float:
        return self.support_c / self.support_a

    @property
    def consequent(self) -> Pattern:
        return apply_delta(self.antecedent, self.delta)

    def key(self) -> RuleKey:
        return (self.antecedent_code, self.delta)

    def to_line(self) -> str:
        return "\t".join(
            [
                self.antecedent_code.to_string(),
                self.consequent_code.to_string(),
                self.delta.to_string(),
                str(self.support_a),
                str(self.support_c),
                f"{self.confidence:.6f}",
            ]
        )


class RuleSet:
    def __init__(self):
        self.rules: dict[RuleKey, AssociationRule] = {}

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.sorted_rules())

    def sorted_rules(self) -> list[AssociationRule]:
        return sorted(self.rules.values(),
                      key=lambda r: (r.antecedent_code.to_string(), r.delta.to_string()))

    def add(self, rule: AssociationRule) -> AssociationRule:
        prev = self.rules.get(rule.key())
        if prev is not None:
            if (prev.support_a, prev.support_c) != (rule.support_a, rule.support_c):
                raise ValueError(
                    f"conflicting supports for rule {rule.antecedent_code.to_string()} "
                    f"{rule.delta.to_string()}: "
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
    def from_tsv(cls, path: str) -> "RuleSet":
        """Read a rule dump file written from ``to_tsv``.

        Raises ``ParseError(path, line)`` for a line that is not UTF-8, a
        wrong field count, a code or delta that does not parse, a
        non-integer support, supports that break
        ``0 < support_c <= support_a``, a confidence column other than
        ``support_c/support_a`` to six decimals, a dirbit other than 0 or 1
        or one set in an undirected code, an antecedent code that is not
        the canonical code of its pattern, delta node indices outside the
        antecedent, a delta dirbit on an undirected antecedent, or a
        consequent code that is not the canonical code of the antecedent
        extended by the delta. The message names the field and the form it
        expects.
        """
        rs = cls()
        memo = {}  # this load's canonical searches
        for lineno, line in text_lines(path):
            try:
                rs.add(_rule_from_fields(line.split("\t"), memo))
            except (ValueError, IndexError) as exc:
                raise ParseError(path, lineno, str(exc)) from None
        return rs


def _field(name: str, text: str, parse, form: str):
    """``parse(text)``, or a ValueError naming the field and its form."""
    try:
        return parse(text)
    except (ValueError, IndexError):
        raise ValueError(f"{name} {text!r} does not parse: expected {form}") from None


def _connected_code(text: str) -> CanonicalCode:
    code = CanonicalCode.from_string(text)
    if not code.pattern.is_connected():
        raise ValueError("disconnected pattern")
    return code


def _rule_from_fields(parts: list[str], memo: dict) -> AssociationRule:
    if len(parts) != 6:
        raise ValueError(f"expected 6 fields, got {len(parts)}")
    a_text, c_text, d_text, sa_text, sc_text, conf_text = parts
    support_a, support_c = (_field("supports", t, int, "an integer") for t in (sa_text, sc_text))
    if not 0 < support_c <= support_a:
        raise ValueError(f"supports {support_a}/{support_c} break "
                         "0 < support_c <= support_a")
    confidence = _field("confidence", conf_text, float, "a decimal number")
    if not abs(confidence - support_c / support_a) <= CONFIDENCE_TOLERANCE:
        raise ValueError(f"confidence {conf_text} is not {support_c}/{support_a} "
                         "to six decimals")
    a_code = _field("antecedent code", a_text, _connected_code, CODE_FORM)
    antecedent = a_code.pattern
    canonical = canonical_code(antecedent, a_code.strategy, memo)
    if canonical != a_code:
        raise ValueError(f"antecedent code {a_text} is not canonical: "
                         f"its pattern's code is {canonical.to_string()}")
    delta = _field("delta", d_text, Delta.from_string, DELTA_FORM)
    if not 0 <= delta.i < antecedent.k or (delta.j is not None and delta.j >= antecedent.k):
        raise ValueError(f"delta {d_text} does not fit a {antecedent.k}-node antecedent")
    if delta.dirbit and not antecedent.directed:
        raise ValueError(f"delta {d_text} sets a dirbit on an undirected antecedent")
    c_code = _field("consequent code", c_text, CanonicalCode.from_string, CODE_FORM)
    if canonical_code(apply_delta(antecedent, delta), a_code.strategy, memo) != c_code:
        raise ValueError(f"consequent code {c_text} is not antecedent + delta {d_text}")
    return AssociationRule(a_code, c_code, delta, support_a, support_c)


class RuleBuilder:
    """Embedded rule sink: feed it to ``mine`` and read ``result()``, every
    distinct offer of the mine; ``RuleTable(offers, mine).select`` keeps
    those that reach a confidence.

    Offers arrive in search order and may repeat for automorphic
    placements; merging by canonical key is associative and commutative,
    so arrival order never changes the outcome.
    """

    def __init__(self):
        self._rules = RuleSet()

    def offer(self, parent: MinedPattern, child: MinedPattern, delta: Delta) -> AssociationRule:
        return self._rules.add(AssociationRule(
            parent.code, child.code, canonical_delta(parent.pattern, delta, parent.orderings),
            parent.support, child.support))

    def result(self) -> RuleSet:
        return self._rules


def confident(support_a, support_c, min_confidence: float):
    """Whether a rule with these supports reaches ``min_confidence``; on
    arrays of supports, the mask of the rules that do."""
    return support_c / support_a + CONFIDENCE_EPS >= min_confidence


class RuleTable:
    """A rule set as arrays, in ``sorted_rules()`` order, built once for
    selection (``select``, ``fitting``) and rule application.

    ``codes`` are the rules' distinct antecedent codes, then their other
    consequent codes, each in order of first appearance, and rule ``r``'s
    are ``ant[r]`` and ``cons[r]``. ``columns[n]`` maps the canonical node
    indices of antecedent code ``n``'s pattern to its embeddings' columns:
    ``mine``'s record's ``orderings[0]`` where ``mine`` holds the code, else
    the identity of walking the code on a graph. Per rule the table also
    holds its delta's ``layer``, a ``group`` and ``flip``.

    A group is an antecedent code and the two columns its delta joins,
    low then high, or the column that anchors its fresh node, twice
    (``group_ant``, ``group_lo``, ``group_hi``; ``group_fresh`` where they
    are equal). The rules of a group fire from the same node pairs of the
    same rows and differ only in layer and direction, so rule application
    counts each group's node pairs once. Rules of one antecedent are
    consecutive in sorted order, and so are those of one group, whose delta
    strings share the prefix ``C:i-j:`` or ``N:i:``; groups are numbered in
    rule order, so ``group`` never decreases. ``flip`` marks a directed
    rule whose delta edge runs from the high column to the low one.
    """

    def __init__(self, rules: RuleSet, mine: PatternSet | None = None):
        self.rules = rules = rules.sorted_rules()
        self.mine = mine
        index: dict[CanonicalCode, int] = {}
        n = len(rules)
        self.ant = ant = np.fromiter((index.setdefault(r.antecedent_code, len(index))
                                      for r in rules), np.int64, n)
        antecedents = list(index)
        self.cons = np.fromiter((index.setdefault(r.consequent_code, len(index))
                                 for r in rules), np.int64, n)
        self.codes = list(index)
        records = [None if mine is None else mine.get(code) for code in antecedents]
        columns = [range(code.pattern.k) if rec is None else rec.orderings[0]
                   for code, rec in zip(antecedents, records)]
        i, j, layer, dirbit, directed = (np.fromiter(values, dtype, n) for values, dtype in (
            ((r.delta.i for r in rules), np.int64),
            ((r.delta.i if r.delta.j is None else r.delta.j for r in rules), np.int64),
            ((r.delta.layer for r in rules), np.int64),
            ((r.delta.dirbit for r in rules), bool),
            ((r.antecedent_code.directed for r in rules), bool)))
        self.layer = layer
        # each antecedent code's column of each canonical node index, padded
        cols = np.zeros((len(columns), max(map(len, columns), default=0)), dtype=np.int64)
        for row, c in zip(cols, columns):
            row[:len(c)] = c
        ci, cj = cols[ant, i], cols[ant, j]
        lo, hi = np.minimum(ci, cj), np.maximum(ci, cj)
        self.flip = directed & (ci != cj) & (dirbit != (ci < cj))
        first = np.ones(n, dtype=bool)
        first[1:] = (ant[1:] != ant[:-1]) | (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        self.group = np.cumsum(first) - 1
        self.group_ant, self.group_lo, self.group_hi = ant[first], lo[first], hi[first]
        self.group_fresh = self.group_lo == self.group_hi

    def select(self, patterns: PatternSet, min_confidence: float) -> RuleSelection:
        """The rules of ``patterns``, which is the mine or ``restrict``
        derived it from the mine, at ``min_confidence``.

        Every offer ``patterns``'s own mine would make is an offer of the
        mine, made there exactly when its antecedent and consequent are
        both frequent there. So an offer is kept when its consequent record
        survives in ``patterns`` (its antecedent then does too) and the
        records' supports there pass ``confident``: the embedded path's one
        confidence test. Raises ``MiningInvariantError`` otherwise.
        """
        if self.mine is None or (patterns is not self.mine and patterns.source is not self.mine):
            raise MiningInvariantError("the pattern set was not derived from the table's mine")
        records = [patterns.get(code) for code in self.codes]
        support = np.array([0 if rec is None else rec.support for rec in records],
                           dtype=np.int64)
        support_a, support_c = support[self.ant], support[self.cons]
        keep = (support_c > 0) & confident(np.maximum(support_a, 1), support_c, min_confidence)
        return RuleSelection(self, keep, support_a, support_c, records)

    def fitting(self, g: MultiplexGraph) -> RuleSelection:
        """The rules whose consequent names only layers and labels ``g``
        has (``fits``), with their own supports; antecedents are walked on
        ``g``. Raises ``MiningInvariantError`` for a table with a mine."""
        if self.mine is not None:
            raise MiningInvariantError("a table with a mine selects its rules by select")
        rules = self.rules
        keep = np.fromiter((fits(r.consequent_code, g) for r in rules), bool, len(rules))
        support_a, support_c = (np.fromiter((getattr(r, f) for r in rules), np.int64, len(rules))
                                for f in ("support_a", "support_c"))
        return RuleSelection(self, keep, support_a, support_c, [None] * len(self.codes))


@dataclass
class RuleSelection:
    """The rules a mask ``keep`` selects from a table, with each rule's
    supports here, and per table code the ``MinedPattern`` that holds its
    embeddings here, or None where none does (rule application then walks
    the code on the graph). A selected rule's id is its rank
    among the kept rules: its position in ``rules()``, which is its
    position in ``rule_set().sorted_rules()``, since a subset of a sorted
    list stays sorted."""

    table: RuleTable
    keep: np.ndarray
    support_a: np.ndarray
    support_c: np.ndarray
    records: list[MinedPattern | None]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.keep))

    def rules(self) -> list[AssociationRule]:
        """The kept rules by id, with their supports here: the table's
        rule object itself where those are its supports."""
        out = []
        for r in np.flatnonzero(self.keep).tolist():
            rule = self.table.rules[r]
            sa, sc = int(self.support_a[r]), int(self.support_c[r])
            out.append(rule if (sa, sc) == (rule.support_a, rule.support_c) else
                       AssociationRule(rule.antecedent_code, rule.consequent_code, rule.delta,
                                       sa, sc))
        return out

    def rule_set(self) -> RuleSet:
        rs = RuleSet()
        for rule in self.rules():
            rs.rules[rule.key()] = rule
        return rs


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
    to the embedded sink on the same mining run, whose searches it reuses.
    """
    rs = RuleSet()
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
                cands.append((canonical_code(ant, strategy, patterns.memo), ant, delta))
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
                if not confident(a_rec.support, child.support, min_confidence):
                    continue
                orderings = canonical_orderings(ant, strategy, patterns.memo)
                rs.add(AssociationRule(a_rec.code, child.code,
                                       canonical_delta(ant, delta, orderings),
                                       a_rec.support, child.support))
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
    # the deleted edge's dirbit, and its dirbit seen from e.j (the reverse
    # direction, or none on an undirected pattern)
    from_i, from_j = e.dirbit, directed and not e.dirbit
    if deg_i > 0 and deg_j > 0:
        yield Pattern(directed, pb.node_labels, rest), Delta(e.i, e.j, e.layer, from_i)
        return
    if deg_i == 0 and deg_j == 0:
        # pb is a single edge on two nodes: either endpoint can anchor
        yield (Pattern(directed, (pb.node_labels[e.i],), ()),
               Delta(0, None, e.layer, from_i, pb.node_labels[e.j]))
        yield (Pattern(directed, (pb.node_labels[e.j],), ()),
               Delta(0, None, e.layer, from_j, pb.node_labels[e.i]))
        return
    drop, keep = (e.i, e.j) if deg_i == 0 else (e.j, e.i)
    labels = tuple(lab for n, lab in enumerate(pb.node_labels) if n != drop)

    def reindex(n: int) -> int:
        return n - 1 if n > drop else n

    edges = tuple(
        PatternEdge(reindex(x.i), reindex(x.j), x.layer, x.dirbit) for x in rest
    )
    ant = Pattern(directed, labels, edges)
    yield ant, Delta(reindex(keep), None, e.layer, from_i if keep == e.i else from_j,
                     pb.node_labels[drop])

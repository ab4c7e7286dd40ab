"""Frustration analysis of signed patterns and rules.

Layers are mapped to +1/-1 signs (layers left out of the map are excluded
from the analysis). A pattern's frustration is the exact minimum number of
frustrated edges over all two-group node partitions, where an edge is
frustrated when it is negative inside a group or positive between groups;
patterns are small, so all 2^(k-1) bipartitions are enumerated. Direction
is ignored, and parallel edges of opposite sign are kept as two signed
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .pattern import Pattern
from .rules import AssociationRule, RuleSet

PDF_BIN_WIDTH = 0.05


class SignedError(ValueError):
    pass


@dataclass(frozen=True)
class SignMap:
    """Layer -> sign (+1/-1); absent layers are excluded from analysis."""

    signs: dict[int, int]

    def __post_init__(self):
        if not self.signs:
            raise SignedError("sign map needs at least one layer")
        for l, s in self.signs.items():
            if s not in (1, -1):
                raise SignedError(f"layer {l}: sign must be +1 or -1, got {s}")

    @classmethod
    def pardus_preset(cls, layer_names: dict[int, str]) -> "SignMap":
        """Friendship positive; enemies and attacks negative."""
        wanted = {"friendship": 1, "enemies": -1, "attacks": -1}
        signs = {}
        for lid, name in layer_names.items():
            if name in wanted:
                signs[lid] = wanted[name]
        if not signs:
            raise SignedError(
                "pardus preset expects layers named friendship/enemies/attacks"
            )
        return cls(signs)

    @classmethod
    def parse(cls, spec: str, layer_names: dict[int, str]) -> "SignMap":
        """Parse `name:+,name:-,name:x` (x = excluded); each layer once."""
        by_name = {name: lid for lid, name in layer_names.items()}
        signs = {}
        seen = set()
        for item in spec.split(","):
            name, _, mark = item.partition(":")
            name, mark = name.strip(), mark.strip()
            if name not in by_name:
                raise SignedError(f"unknown layer name {name!r}")
            if name in seen:
                raise SignedError(f"layer {name!r} is given more than once")
            seen.add(name)
            if mark == "x":
                continue
            if mark not in ("+", "-"):
                raise SignedError(f"layer {name!r}: sign must be +, - or x")
            signs[by_name[name]] = 1 if mark == "+" else -1
        return cls(signs)


@dataclass(frozen=True)
class FrustrationResult:
    frustrated_edge_count: int
    signed_edge_count: int
    index: Fraction
    witness_partition: tuple[frozenset[int], frozenset[int]]


class RuleFrustrationClass(str, Enum):
    INCREASING = "increasing"
    ZERO_CONSEQUENT = "zero_consequent"
    DECREASING = "decreasing"


def _signed_edges(p: Pattern, signs: SignMap) -> list[tuple[int, int, int]]:
    return [(e.i, e.j, signs.signs[e.layer]) for e in p.edges if e.layer in signs.signs]


def _min_frustration(k: int, sedges: list[tuple[int, int, int]]):
    """Exact minimum frustrated count; node 0 fixed on one side."""
    best = len(sedges) + 1
    best_mask = 0
    for mask in range(1 << max(0, k - 1)):
        side = [(mask >> (n - 1)) & 1 if n else 0 for n in range(k)]
        count = 0
        for i, j, sign in sedges:
            same = side[i] == side[j]
            if (sign < 0) == same:
                count += 1
        if count < best:
            best, best_mask = count, mask
    side = [(best_mask >> (n - 1)) & 1 if n else 0 for n in range(k)]
    groups = (
        frozenset(n for n in range(k) if side[n] == 0),
        frozenset(n for n in range(k) if side[n] == 1),
    )
    return best, groups


def frustrated_count(p: Pattern, signs: SignMap) -> int:
    """Minimum frustrated edges; 0 when no edge carries a sign."""
    sedges = _signed_edges(p, signs)
    if not sedges:
        return 0
    return _min_frustration(p.k, sedges)[0]


def frustration(p: Pattern, signs: SignMap) -> FrustrationResult:
    """Exact frustration of a signed pattern with a witness bipartition."""
    sedges = _signed_edges(p, signs)
    if not sedges:
        raise SignedError("pattern has no edges in sign-mapped layers")
    count, groups = _min_frustration(p.k, sedges)
    return FrustrationResult(
        frustrated_edge_count=count,
        signed_edge_count=len(sedges),
        index=Fraction(count, len(sedges)),
        witness_partition=groups,
    )


def classify_rule(rule: AssociationRule, signs: SignMap) -> RuleFrustrationClass:
    """Bucket a rule by how its single extra edge moves frustration.

    ZERO_CONSEQUENT takes precedence when the consequent reaches zero
    frustrated edges (including rules that keep an already balanced
    antecedent balanced). Since the consequent contains the antecedent,
    its minimum count can only stay equal or grow by one; the "decreasing"
    bucket is rules holding a positive count while adding an edge, which
    strictly lowers the frustration share.
    """
    count_a = frustrated_count(rule.antecedent, signs)
    count_c = frustrated_count(rule.consequent, signs)
    if count_c == 0:
        return RuleFrustrationClass.ZERO_CONSEQUENT
    if count_c > count_a:
        return RuleFrustrationClass.INCREASING
    return RuleFrustrationClass.DECREASING


@dataclass
class FrustrationReport:
    shares: dict[RuleFrustrationClass, float]
    mean_confidence: dict[RuleFrustrationClass, float | None]
    mean_support: dict[RuleFrustrationClass, float | None]
    confidence_pdf: dict[RuleFrustrationClass, list[tuple[float, float]]]
    support_ccdf: dict[RuleFrustrationClass, list[tuple[int, float]]]
    n_rules: int

    def to_tsv(self) -> str:
        lines = ["# class\tshare\tmean_confidence\tmean_support"]
        for cls in RuleFrustrationClass:
            mc = self.mean_confidence[cls]
            ms = self.mean_support[cls]
            lines.append(
                f"{cls.value}\t{self.shares[cls]:.6f}\t"
                f"{'' if mc is None else f'{mc:.6f}'}\t"
                f"{'' if ms is None else f'{ms:.6f}'}"
            )
        lines.append("# confidence_pdf: class\tbin_low\tshare")
        for cls in RuleFrustrationClass:
            for low, share in self.confidence_pdf[cls]:
                lines.append(f"{cls.value}\t{low:.2f}\t{share:.6f}")
        lines.append("# support_ccdf: class\tsupport\tshare_at_least")
        for cls in RuleFrustrationClass:
            for supp, share in self.support_ccdf[cls]:
                lines.append(f"{cls.value}\t{supp}\t{share:.6f}")
        return "\n".join(lines) + "\n"


def frustration_report(rules: RuleSet, signs: SignMap) -> FrustrationReport:
    """Class shares plus plot-ready confidence PDF and support CCDF tables.

    A rule's support here is the consequent's support (the realized
    pattern). The PDF uses fixed-width confidence bins; the CCDF is
    evaluated at each observed support value and is non-increasing,
    starting at 1.
    """
    ruleslist = rules.sorted_rules()
    if not ruleslist:
        raise SignedError("empty rule set")
    per_class: dict[RuleFrustrationClass, list[AssociationRule]] = {
        cls: [] for cls in RuleFrustrationClass
    }
    for r in ruleslist:
        per_class[classify_rule(r, signs)].append(r)
    n = len(ruleslist)
    shares = {cls: len(rs) / n for cls, rs in per_class.items()}
    mean_conf = {
        cls: (sum(r.confidence for r in rs) / len(rs) if rs else None)
        for cls, rs in per_class.items()
    }
    mean_supp = {
        cls: (sum(r.support_c for r in rs) / len(rs) if rs else None)
        for cls, rs in per_class.items()
    }
    pdf = {cls: _confidence_pdf(rs) for cls, rs in per_class.items()}
    ccdf = {cls: _support_ccdf(rs) for cls, rs in per_class.items()}
    return FrustrationReport(
        shares=shares,
        mean_confidence=mean_conf,
        mean_support=mean_supp,
        confidence_pdf=pdf,
        support_ccdf=ccdf,
        n_rules=n,
    )


def _confidence_pdf(rs: list[AssociationRule]) -> list[tuple[float, float]]:
    if not rs:
        return []
    n_bins = round(1.0 / PDF_BIN_WIDTH)
    counts = [0] * n_bins
    for r in rs:
        b = min(int(r.confidence / PDF_BIN_WIDTH), n_bins - 1)  # 1.0 joins the top bin
        counts[b] += 1
    return [(i * PDF_BIN_WIDTH, c / len(rs)) for i, c in enumerate(counts)]


def _support_ccdf(rs: list[AssociationRule]) -> list[tuple[int, float]]:
    if not rs:
        return []
    supports = sorted(r.support_c for r in rs)
    out = []
    for v in sorted(set(supports)):
        at_least = sum(1 for s in supports if s >= v)
        out.append((v, at_least / len(supports)))
    return out

"""Patterns and spanning-tree canonical codes.

A pattern is a small connected multiplex subgraph: labeled nodes indexed
0..k-1 in discovery order, and multigraph edges (i, j, layer, dirbit) with
i < j. The dirbit records whether the true edge direction runs from the
lower to the higher index; it is always False for undirected patterns.

The canonical code of a pattern is the lexicographically smallest tuple
sequence over all spanning-tree explorations consistent with the chosen
strategy (BFS or DFS). Equal codes <=> isomorphic patterns, which lets the
miner deduplicate candidates without isomorphism tests. Tuples compare by
the fixed key (src, layer, dirbit, dst_label, dst). A tuple's dirbit says
the true edge direction runs from its lower code index to its higher one.
The code is also a join plan: each tuple attaches a fresh node (``dst``
is the next code index) or closes a cycle between placed nodes, which is
how ``matcher.code_embeddings`` enumerates embeddings.

A delta is one edge added to a pattern. ``canonical_delta`` moves it into
the pattern's canonical node indexing, keeping the smallest image over the
canonical orderings, so automorphic placements of one extension become one
equal ``Delta``. Codes and deltas print injectively (``to_string``) and
parse back (``from_string``).
"""

from __future__ import annotations

import functools
import urllib.parse
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class PatternError(ValueError):
    """Structurally invalid pattern or pattern operation."""


class Strategy(str, Enum):
    BFS = "bfs"
    DFS = "dfs"


class PatternEdge(NamedTuple):
    i: int
    j: int
    layer: int
    dirbit: bool  # True: actual direction is i -> j; False for undirected


class CodeTuple(NamedTuple):
    """One extension step; field order doubles as the comparison key."""

    src: int
    layer: int
    dirbit: int
    dst_label: str
    dst: int


@dataclass(frozen=True)
class Pattern:
    directed: bool
    node_labels: tuple[str, ...]
    edges: tuple[PatternEdge, ...]

    def __post_init__(self):
        k = len(self.node_labels)
        if k < 1:
            raise PatternError("pattern needs at least one node")
        seen = set()
        for e in self.edges:
            if not (0 <= e.i < e.j < k):
                raise PatternError(f"edge {e} out of range or not i<j")
            if not self.directed and e.dirbit:
                raise PatternError("dirbit set on undirected pattern")
            key = (e.i, e.j, e.layer, e.dirbit)
            if key in seen:
                raise PatternError(f"duplicate edge {e}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def k(self) -> int:
        return len(self.node_labels)

    @property
    def layers(self) -> frozenset[int]:
        return frozenset(e.layer for e in self.edges)

    def is_connected(self) -> bool:
        if self.k == 1:
            return True
        parent = list(range(self.k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            parent[find(e.i)] = find(e.j)
        return len({find(i) for i in range(self.k)}) == 1

    def relabeled(self, perm: tuple[int, ...]) -> "Pattern":
        """Apply an index permutation: new index of node i is perm[i]."""
        labels = [""] * self.k
        for i, lab in enumerate(self.node_labels):
            labels[perm[i]] = lab
        edges = []
        for e in self.edges:
            a, b = perm[e.i], perm[e.j]
            if a < b:
                edges.append(PatternEdge(a, b, e.layer, e.dirbit))
            else:
                edges.append(PatternEdge(b, a, e.layer, self.directed and not e.dirbit))
        return Pattern(self.directed, tuple(labels), tuple(edges))


@dataclass(frozen=True)
class Delta:
    """A single-edge extension of a pattern.

    Cycle deltas connect existing nodes i < j; node deltas (j is None)
    attach a fresh node labeled ``new_label`` to node i, which gets the
    next index. ``dirbit`` means what it means on the ``PatternEdge`` the
    delta adds: the true direction runs i -> j (or i -> new node). It is
    always False for undirected patterns.
    """

    i: int
    j: int | None
    layer: int
    dirbit: bool
    new_label: str | None = None

    def __post_init__(self):
        if self.j is None:
            if self.new_label is None:
                raise PatternError("node delta needs new_label")
        else:
            if self.i >= self.j:
                raise PatternError("cycle delta needs i < j")
            if self.new_label is not None:
                raise PatternError("cycle delta cannot carry new_label")

    def to_string(self) -> str:
        """The dump form; computed once per delta object."""
        return self._string

    @functools.cached_property
    def _string(self) -> str:
        if self.j is None:
            return f"N:{self.i}:{self.layer}:{int(self.dirbit)}:{_q(self.new_label)}"
        return f"C:{self.i}-{self.j}:{self.layer}:{int(self.dirbit)}"

    @classmethod
    def from_string(cls, s: str) -> "Delta":
        kind, *parts = s.split(":")
        if kind == "N":
            i, layer, dirbit, label = parts
            return cls(int(i), None, int(layer), bool(_bit(dirbit)), _uq(label))
        if kind != "C":
            raise PatternError(f"delta kind {kind!r} is not C or N")
        span, layer, dirbit = parts
        lo, hi = span.split("-")
        return cls(int(lo), int(hi), int(layer), bool(_bit(dirbit)))


def apply_delta(p: Pattern, d: Delta) -> Pattern:
    """Extend a pattern by one edge (and at most one node)."""
    if d.j is None:
        edge = PatternEdge(d.i, p.k, d.layer, d.dirbit)
        return Pattern(p.directed, p.node_labels + (d.new_label,), p.edges + (edge,))
    edge = PatternEdge(d.i, d.j, d.layer, d.dirbit)
    if edge in p.edges:
        raise PatternError(f"delta edge {edge} already present")
    return Pattern(p.directed, p.node_labels, p.edges + (edge,))


def single_node(label: str, directed: bool) -> Pattern:
    return Pattern(directed, (label,), ())


@dataclass(frozen=True)
class CanonicalCode:
    strategy: Strategy
    directed: bool
    root_label: str
    tuples: tuple[CodeTuple, ...]

    def to_string(self) -> str:
        """The dump form; computed once per code object."""
        return self._string

    @functools.cached_property
    def pattern(self) -> "Pattern":
        """The pattern in canonical node indexing; built once per code object."""
        return pattern_from_code(self)

    @functools.cached_property
    def _string(self) -> str:
        s = "B" if self.strategy == Strategy.BFS else "D"
        s += "d" if self.directed else "u"
        parts = [
            f"{t.src}-{t.dst}:{t.layer}:{t.dirbit}:{_q(t.dst_label)}" for t in self.tuples
        ]
        return f"{s}|{_q(self.root_label)}|{';'.join(parts)}"

    @classmethod
    def from_string(cls, s: str) -> "CanonicalCode":
        head, root, body = s.split("|")
        if head not in ("Bu", "Bd", "Du", "Dd"):
            raise PatternError(f"code head {head!r} is not Bu, Bd, Du or Dd")
        strategy = Strategy.BFS if head[0] == "B" else Strategy.DFS
        directed = head[1] == "d"
        tuples = []
        if body:
            for part in body.split(";"):
                span, layer, dirbit, lab = part.split(":")
                src, dst = span.split("-")
                bit = _bit(dirbit)
                if bit and not directed:
                    raise PatternError(f"dirbit set in undirected code tuple {part!r}")
                tuples.append(CodeTuple(int(src), int(layer), bit, _uq(lab), int(dst)))
        return cls(strategy, directed, _uq(root), tuple(tuples))


def _q(label: str) -> str:
    return urllib.parse.quote(label, safe="")


def _uq(s: str) -> str:
    return urllib.parse.unquote(s)


def _bit(s: str) -> int:
    """A dumped dirbit, which is ``0`` or ``1``."""
    if s not in ("0", "1"):
        raise PatternError(f"dirbit {s!r} is not 0 or 1")
    return int(s)


def _canonical_search(p: Pattern, strategy: Strategy):
    """Minimal code tuples plus every discovery ordering achieving them.

    An exploration keeps an agenda of discovered code indices: BFS emits
    from its front and DFS from its back, a fresh node joins its back, and
    a node leaves it once all its edges are emitted. Explorations are
    enumerated with two sound prunings: at each state only locally minimal
    next tuples are expanded (any larger choice is dominated from the same
    prefix), and branches whose prefix exceeds the best complete code are
    cut. Orderings map code index -> node index; there is one per
    exploration attaining the minimum, so together they carry the
    pattern's canonical automorphisms.
    """
    if not p.is_connected():
        raise PatternError("canonical code requires a connected pattern")
    k = len(p.node_labels)
    inc: list[list[int]] = [[] for _ in range(k)]
    for eidx, e in enumerate(p.edges):
        inc[e.i].append(eidx)
        inc[e.j].append(eidx)
    take, rest = (0, slice(1, None)) if strategy == Strategy.BFS else (-1, slice(None, -1))

    best: list[CodeTuple] | None = None
    best_orders: list[tuple[int, ...]] = []

    def rec(order, pos, emitted, agenda, tuples, tied):
        nonlocal best, best_orders
        while agenda and all(e in emitted for e in inc[order[agenda[take]]]):
            agenda = agenda[rest]
        if not agenda:
            if best is None or tuples < best:
                best = list(tuples)
                best_orders = [tuple(order)]
            elif tuples == best:
                best_orders.append(tuple(order))
            return
        cur = agenda[take]
        node = order[cur]
        cands = []
        for eidx in inc[node]:
            if eidx in emitted:
                continue
            e = p.edges[eidx]
            other = e.j if e.i == node else e.i
            dst = pos.get(other, len(order))
            # the dirbit says the true source has the lower code index
            src = cur if (e.i if e.dirbit else e.j) == node else dst
            dirbit = int(p.directed and src == min(cur, dst))
            cands.append((CodeTuple(cur, e.layer, dirbit, p.node_labels[other], dst), eidx, other))
        t_min = min(t for t, _, _ in cands)
        depth = len(tuples)
        if best is not None and tied:
            if t_min > best[depth]:
                return
            tied_next = t_min == best[depth]
        else:
            tied_next = tied
        for t, eidx, other in cands:
            if t != t_min:
                continue
            if t.dst < len(order):
                rec(order, pos, emitted | {eidx}, agenda, tuples + [t], tied_next)
            else:
                rec(order + [other], {**pos, other: t.dst}, emitted | {eidx},
                    agenda + (t.dst,), tuples + [t], tied_next)

    min_label = min(p.node_labels)
    for root in range(k):
        if p.node_labels[root] == min_label:
            rec([root], {root: 0}, frozenset(), (0,), [], best is not None)
    return tuple(best), tuple(dict.fromkeys(best_orders))


def _search(p: Pattern, strategy: Strategy, memo: dict | None):
    """``_canonical_search(p, strategy)``, once per run's ``memo`` {(p, strategy): result}."""
    if memo is None:
        return _canonical_search(p, strategy)
    found = memo.get((p, strategy))
    if found is None:
        found = memo[(p, strategy)] = _canonical_search(p, strategy)
    return found


def canonical_code(p: Pattern, strategy: Strategy = Strategy.BFS,
                   memo: dict | None = None) -> CanonicalCode:
    tuples, _ = _search(p, strategy, memo)
    return CanonicalCode(strategy, p.directed, min(p.node_labels), tuples)


def canonical_orderings(p: Pattern, strategy: Strategy = Strategy.BFS,
                        memo: dict | None = None) -> tuple[tuple[int, ...], ...]:
    """All discovery orderings whose exploration attains the minimal code."""
    _, orders = _search(p, strategy, memo)
    return orders


def pattern_from_code(code: CanonicalCode) -> Pattern:
    labels = [code.root_label]
    edges = []
    for t in code.tuples:
        if t.dst == len(labels):
            labels.append(t.dst_label)
        elif t.dst > len(labels):
            raise PatternError(f"code tuple {t} skips an index")
        lo, hi = (t.src, t.dst) if t.src < t.dst else (t.dst, t.src)
        edges.append(PatternEdge(lo, hi, t.layer, bool(t.dirbit)))
    return Pattern(code.directed, tuple(labels), tuple(edges))


# -- delta canonicalization -------------------------------------------------


def canonical_delta(p: Pattern, d: Delta, orderings: tuple[tuple[int, ...], ...]) -> Delta:
    """The delta in the canonical node indexing of ``p``.

    The delta's endpoints are reprojected through every canonical ordering
    of ``p`` (``orderings``) and the smallest image is kept, so automorphic
    placements of the same extension collapse to one delta. Its dirbit has
    the delta's meaning in the reprojected indexing.
    """
    if d.dirbit and not p.directed:
        raise PatternError("dirbit set on undirected pattern")
    best = None
    for order in orderings:
        pos = {node: ci for ci, node in enumerate(order)}
        # cand is the reprojected delta's (i, j, layer, dirbit)
        if d.j is None:
            cand = (pos[d.i], None, d.layer, d.dirbit)
        else:
            a, b = pos[d.i], pos[d.j]
            if a < b:
                cand = (a, b, d.layer, d.dirbit)
            else:  # the endpoints swap, so a directed edge's bit flips
                cand = (b, a, d.layer, p.directed and not d.dirbit)
        if best is None or cand < best:
            best = cand
    return Delta(*best, d.new_label)

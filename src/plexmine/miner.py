"""Frequent multiplex pattern mining under minimum-image support.

The search grows connected patterns one edge at a time from single-node
seeds (one per attribute label). Each extension either attaches a fresh
node or closes a cycle between existing nodes; candidate extensions are
read off the parent's embedding array, so child embeddings are computed
by an incremental join instead of a fresh subgraph-isomorphism search.
Duplicates are pruned by canonical-code lookup, and every frequent
(parent, child) extension is offered to the optional rule sink while the
search runs.

Minimum-image support is anti-monotone: a pattern's support is at most
that of any connected pattern inside it. The search uses this three
ways, each skipping only candidates that are infrequent:

- the label bound: a fresh node needs ``sigma`` distinct images of its
  label on the join;
- rule A: a record C created from P by one edge tries, on P's nodes, only
  the closures and attachments that were frequent extensions of P, since
  C + e holds the connected pattern P + e;
- rule B: where C attached a node n labeled l to P, a closure between n
  and a node b is tried only if attaching a node labeled l to b, in the
  same layer and direction, was a frequent extension of P, since
  dropping C's attaching edge from C + (b, n) leaves that attachment,
  still connected.

Seeds have no parent and try every candidate. A record's inherited
extensions ride the queue beside it, from its first parent's expansion
only. The other candidates keep their order, so the records, their
supports and arrays, and the offers are what an unpruned search finds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Protocol

import numpy as np

from .graph import GraphIndex, MultiplexGraph
from .matcher import attach, mis_support_array, node_set_ids
from .pattern import (
    CanonicalCode,
    Delta,
    Pattern,
    Strategy,
    apply_delta,
    canonical_code,
    canonical_orderings,
    single_node,
)


class MiningError(ValueError):
    pass


class MiningInvariantError(AssertionError):
    """An internal mining invariant (e.g. anti-monotonicity) failed."""


@dataclass
class MiningConfig:
    """Search parameters.

    ``support`` is an absolute minimum image count when given as an int,
    or a fraction of |V| when given as a float in (0, 1] (the threshold is
    then ceil(fraction * |V|)). ``max_nodes`` caps pattern size in nodes;
    edges keep growing via cycle closures at the cap.
    """

    support: float | int = 1
    max_nodes: int = 3
    strategy: Strategy = Strategy.BFS

    def resolve_support(self, g: MultiplexGraph) -> int:
        s = self.support
        if isinstance(s, bool):
            raise MiningError("support must be a number")
        if isinstance(s, int):
            if s < 1:
                raise MiningError(f"absolute support must be >= 1, got {s}")
            return s
        if not 0.0 < s <= 1.0:
            raise MiningError(f"fractional support must be in (0,1], got {s}")
        return max(1, math.ceil(s * g.n_nodes))

    def validate(self) -> None:
        if self.max_nodes < 1:
            raise MiningError(f"max_nodes must be >= 1, got {self.max_nodes}")


@dataclass
class MinedPattern:
    """A frequent pattern with its support and every embedding.

    ``embeddings`` reads the (N, k) int32 array of every embedding's node
    ids (``GraphIndex``), in pattern-index columns with sorted rows. A
    record that ``restrict`` derived keeps the array of the record it came
    from and, if it lost rows, a boolean ``rows`` mask over it that
    selects the rows on each read: copying the rows instead would hold
    most of the source's embeddings twice. ``node_sets`` holds the node-set
    id of each row of ``array`` once ``node_set_ids`` has computed them; a
    derived record shares its source's.
    """

    pattern: Pattern
    code: CanonicalCode
    support: int
    array: np.ndarray
    orderings: tuple[tuple[int, ...], ...]  # canonical discovery orderings
    rows: np.ndarray | None = None
    node_sets: np.ndarray | None = None

    @property
    def embeddings(self) -> np.ndarray:
        return self.array if self.rows is None else self.array.compress(self.rows, axis=0)

    def node_set_ids(self, width: int) -> np.ndarray:
        """``matcher.node_set_ids`` of ``embeddings`` (node ids below
        ``width``), computed on ``array`` on the first call and kept."""
        if self.node_sets is None:
            self.node_sets = node_set_ids(self.array, width)
        return self.node_sets if self.rows is None else self.node_sets.compress(self.rows)


class PatternSet:
    """Mining output: insertion-ordered records by canonical code, the
    graph object they were found in, the absolute support ``sigma`` they
    were found at, and the run's search memo. ``row_facts`` is what
    ``restrict`` computes of the records' rows once, on its first call.
    A set that ``restrict`` derived names the set it read as ``source``.
    A rule table read off a mine (``rules.RuleTable``) selects the rules
    of the mine and of every set derived from it, looking each of its
    codes up here by ``get``."""

    def __init__(self, graph: MultiplexGraph, sigma: int, memo: dict):
        self.records: dict[CanonicalCode, MinedPattern] = {}
        self.graph = graph
        self.sigma = sigma
        self.memo = memo
        self.row_facts: _RowFacts | None = None
        self.source: PatternSet | None = None

    def serves(self, g: MultiplexGraph, sigma: int) -> bool:
        """Whether ``restrict`` can derive ``g`` at absolute support
        ``sigma`` from this mine: ``g`` is ``graph`` or was cut from it
        (``g.source is graph``; identity, since equality ignores
        ``source``), and ``sigma`` is at least ``self.sigma``."""
        return (g is self.graph or g.source is self.graph) and sigma >= self.sigma

    def add(self, rec: MinedPattern) -> None:
        self.records[rec.code] = rec

    def get(self, code: CanonicalCode) -> MinedPattern | None:
        return self.records.get(code)

    def __iter__(self):
        return iter(self.records.values())

    def __len__(self) -> int:
        return len(self.records)

    def dump(self) -> str:
        """One line per pattern: code, support, embedding count. Sorted."""
        lines = [
            f"{rec.code.to_string()}\t{rec.support}\t{len(rec.embeddings)}"
            for rec in self.records.values()
        ]
        return "\n".join(sorted(lines)) + ("\n" if lines else "")


class RuleSink(Protocol):
    def offer(self, parent: MinedPattern, child: MinedPattern, delta: Delta) -> None: ...


def mine(g: MultiplexGraph, cfg: MiningConfig, rule_sink: RuleSink | None = None,
         memo: dict | None = None) -> PatternSet:
    """Enumerate every frequent connected pattern up to the size cap.

    Each pattern is reported once (canonical-code deduplication) with its
    exact support and embeddings. When a rule sink is given, every
    frequent single-edge (parent, child) extension is offered to it during
    the search, including extensions whose child was first reached from a
    different parent. ``memo`` (fresh by default) is kept by the result.
    """
    cfg.validate()
    sigma = cfg.resolve_support(g)
    idx = g.index()
    ps = PatternSet(g, sigma, {} if memo is None else memo)
    # a record rides the queue with what its creator found frequent and
    # the delta that created it; a seed has no creator and tries everything
    queue: deque[tuple[MinedPattern, tuple[_Frequent, Delta] | None]] = deque()

    for label in sorted(set(g.attrs.values())):
        members = idx.nodes_by_label[label]
        if len(members) < sigma:
            continue
        rec = _record(single_node(label, g.directed), len(members), members.reshape(-1, 1),
                      cfg.strategy, ps.memo)
        ps.add(rec)
        queue.append((rec, None))

    marks = np.zeros(idx.width, dtype=bool)  # scratch for distinct images
    while queue:
        parent, inherited = queue.popleft()
        # filled by this loop, and complete before any child it queues is expanded
        found = _Frequent()
        for delta, child_embs in _extensions(parent, g, cfg, sigma, marks, inherited):
            supp_c = mis_support_array(child_embs, sigma, marks)
            if supp_c > parent.support:
                raise MiningInvariantError(
                    f"anti-monotonicity violated: child support {supp_c} > "
                    f"parent support {parent.support}"
                )
            if supp_c < sigma:
                continue
            found.add(delta, idx)
            child = _record(apply_delta(parent.pattern, delta), supp_c, child_embs,
                            cfg.strategy, ps.memo)
            rec_c = ps.get(child.code)
            if rec_c is None:
                rec_c = child
                ps.add(rec_c)
                queue.append((rec_c, (found, delta)))
            elif rec_c.support != supp_c:
                raise MiningInvariantError(
                    f"support mismatch for {child.code.to_string()}: "
                    f"{rec_c.support} vs {supp_c}"
                )
            if rule_sink is not None:
                rule_sink.offer(parent, rec_c, delta)
    return ps


def restrict(ps: PatternSet, g: MultiplexGraph, sigma: int) -> PatternSet:
    """What ``mine`` returns on ``g`` at absolute support ``sigma``,
    computed from ``ps``, which ``mine`` found on ``ps.graph`` with the
    same size cap and strategy: ``ps`` itself for ``ps.graph`` at
    ``ps.sigma``.

    ``ps`` must serve ``g`` at ``sigma`` (``PatternSet.serves``: ``g`` is
    ``ps.graph`` or cut from it, at ``sigma`` no lower than ``ps.sigma``),
    else ``MiningInvariantError`` is raised. ``g`` keeps ``ps.graph``'s
    node ids and labels and loses edges, so a pattern's embeddings in
    ``g`` are its source embeddings that use no edge ``g`` lacks, and its
    support can only fall: ``g``'s patterns are the records of ``ps`` whose recounted
    support stays at least ``sigma``. Records keep ``ps``'s order, codes,
    patterns and orderings. A single-node record takes ``g``'s nodes of
    its label, as ``mine`` seeds it. Any other record keeps its source
    array and node-set ids and masks the rows that survive
    (``_RowFacts.survivors``); a record that loses no row needs no mask
    and keeps its support. The result shares ``ps``'s memo and names
    ``ps`` as its ``source``.
    """
    if not ps.serves(g, sigma):
        raise MiningInvariantError(f"mine at support {ps.sigma} cannot serve the graph at {sigma}")
    if g is ps.graph and sigma == ps.sigma:
        return ps
    idx = g.index()
    facts = ps.row_facts = ps.row_facts or _RowFacts(ps)
    keep, lost = facts.survivors(idx)
    out = PatternSet(g, sigma, ps.memo)
    out.source = ps
    marks = np.zeros(idx.width, dtype=bool)
    for rec, slot in zip(ps, facts.slots):
        p = rec.pattern
        if slot is None:
            members = idx.nodes_by_label.get(p.node_labels[0])
            if members is not None and len(members) >= sigma:
                out.add(MinedPattern(p, rec.code, len(members), members.reshape(-1, 1),
                                     rec.orderings))
            continue
        n_pairs, i, start, stop = slot
        rows, support = None, rec.support
        if lost[n_pairs][i]:
            rows = keep[n_pairs][start:stop]
            support = mis_support_array(rec.array.compress(rows, axis=0), sigma, marks)
        if support >= sigma:
            out.add(MinedPattern(p, rec.code, support, rec.array, rec.orderings, rows,
                                 rec.node_sets))
    return out


class _RowFacts:
    """The facts of a source mine's rows that ``restrict`` reads for every
    graph cut from the source, computed once.

    Records of two or more nodes are grouped by the number P of node pairs
    that their pattern's edges join. ``pairs[P]`` stacks the group's rows
    in ``ps`` order as an int32 (P, rows) array: for each node pair, the
    source's ``GraphIndex.pair_bits`` row of the row's image of the pair
    (``GraphIndex.pair_rows``), plus ``len(pair_bits)`` times the id of
    the pair's edge bits among ``needs`` (``len(needs) * len(pair_bits)``
    stays below 2**31 for any graph this package can hold). ``slots[r]``
    is record r's P, its index in the group and its row range, or None for
    a single-node record, and ``starts[P]`` is each record's first row.
    Every record also gets its node-set ids (``MinedPattern.node_set_ids``)
    here, for the records derived from it to share.
    """

    def __init__(self, ps: PatternSet):
        self.src = src = ps.graph.index()
        self.slots: list[tuple[int, int, int, int] | None] = []
        self.starts: dict[int, list[int]] = {}
        rows: dict[int, int] = {}
        planned = []
        for rec in ps:
            if rec.pattern.k == 1:
                self.slots.append(None)
                continue
            pairs, needs = _pair_needs(rec.pattern, src)
            P = len(pairs)
            starts = self.starts.setdefault(P, [])
            start = rows.get(P, 0)
            rows[P] = start + len(rec.array)
            self.slots.append((P, len(starts), start, rows[P]))
            starts.append(start)
            planned.append((rec, start, pairs, needs))
        # filled in place: stacking per-record blocks would hold them twice
        self.pairs = {P: np.empty((P, n), dtype=np.int32) for P, n in rows.items()}
        need_ids: dict[int, int] = {}
        for rec, start, pairs, needs in planned:
            E = rec.array
            need = [need_ids.setdefault(n, len(need_ids)) for n in needs]
            positions = src.pair_rows(E[:, pairs[:, 0]], E[:, pairs[:, 1]])
            self.pairs[len(pairs)][:, start:start + len(E)] = (
                positions + np.multiply(need, len(src.pair_bits))).T
            rec.node_set_ids(src.width)
        self.needs = np.array([[n >> (64 * w) & (1 << 64) - 1 for w in range(src.n_words)]
                               for n in need_ids], dtype=np.uint64).reshape(-1, src.n_words)

    def survivors(self, idx: GraphIndex) -> tuple[dict[int, np.ndarray], dict[int, list[bool]]]:
        """For a graph with index ``idx`` cut from the source, per group:
        the mask of the rows that use no edge the graph lacks, and for each
        record of the group whether it lost a row."""
        src = self.src
        # the layer and direction bits of each source pair that the graph lacks
        u, v = src.pairs()
        inside = np.flatnonzero((u < idx.width) & (v < idx.width))
        kept = np.zeros_like(src.pair_bits)
        kept[inside] = idx.pair_masks(u[inside], v[inside])
        lacking = (src.pair_bits & ~kept).T
        # per edge bits and source pair: does the graph lack one of the bits
        broken = np.zeros((len(self.needs), lacking.shape[1]), dtype=bool)
        for need, row in zip(self.needs, broken):
            for word, bits in zip(lacking, need):
                row |= word & bits != 0
        broken = broken.ravel()
        keep, lost = {}, {}
        for P, pairs in self.pairs.items():
            gone = broken[pairs[0]]
            for pair in pairs[1:]:
                gone |= broken[pair]
            keep[P] = ~gone
            lost[P] = np.logical_or.reduceat(gone, self.starts[P]).tolist()
        return keep, lost


def _pair_needs(p: Pattern, idx: GraphIndex) -> tuple[np.ndarray, list[int]]:
    """The node pairs (i, j) that ``p``'s edges join, as a (P, 2) array,
    and per pair the ``GraphIndex.pair_masks`` bits of its edges, as one
    integer."""
    needs: dict[tuple[int, int], int] = {}
    for e in p.edges:
        bit = 2 * idx.layer_pos[e.layer] + (0 if e.dirbit else 1)
        needs[e.i, e.j] = needs.get((e.i, e.j), 0) | 1 << bit
    return np.array(list(needs), dtype=np.int64), list(needs.values())


def _record(pattern: Pattern, support: int, E: np.ndarray, strategy: Strategy,
            memo: dict) -> MinedPattern:
    """The record of ``pattern``, with its canonical code and orderings."""
    return MinedPattern(pattern, canonical_code(pattern, strategy, memo), support, E,
                        canonical_orderings(pattern, strategy, memo))


class _Frequent:
    """The frequent single-edge extensions found while expanding one
    record, in its node indexing, as ``GraphIndex.pair_bits`` bits (bit
    ``2p + (0 if dirbit else 1)`` for the layer at position p):
    ``closures[i, j]`` of the cycle closures between nodes i < j, and
    ``attachments[i][label]`` of the attachments of a fresh node labeled
    ``label`` to node i."""

    def __init__(self):
        self.closures: dict[tuple[int, int], int] = {}
        self.attachments: dict[int, dict[str, int]] = {}

    def add(self, delta: Delta, idx: GraphIndex) -> None:
        bit = 1 << 2 * idx.layer_pos[delta.layer] + (0 if delta.dirbit else 1)
        if delta.j is None:
            at = self.attachments.setdefault(delta.i, {})
            at[delta.new_label] = at.get(delta.new_label, 0) | bit
        else:
            self.closures[delta.i, delta.j] = self.closures.get((delta.i, delta.j), 0) | bit


def _extensions(
    parent: MinedPattern, g: MultiplexGraph, cfg: MiningConfig, sigma: int, marks: np.ndarray,
    inherited: tuple[_Frequent, Delta] | None,
) -> Iterator[tuple[Delta, np.ndarray]]:
    """The single-edge extension candidates with nonempty embedding sets
    that can be frequent.

    Yields (delta, child embeddings); the child pattern is left to the
    caller. Child rows keep the parent's lexicographic row order: a cycle
    closure filters the parent's rows, and a fresh node appends each row's
    neighbors in ascending order.

    A fresh-node candidate is yielded only when its new column has at
    least ``sigma`` distinct images, counted exactly on the expansion join
    before the child array is stacked: minimum-image support is at most
    any one column's count. ``marks`` is the scratch array of
    ``mis_support_array``, left all False at every yield.

    ``inherited`` is what the record P that first created ``parent`` (C)
    found frequent, with the delta that made C from P; C keeps P's node
    indices, and a fresh node of C takes the next one. Since a pattern's
    support is at most that of any connected pattern inside it, a
    candidate C + e is tried only if no such subpattern is known to be
    infrequent:

    - rule A: a closure or attachment e on P's nodes is tried only if
      P + e was a frequent extension of P, as C + e holds P + e;
    - rule B: where C attached node n labeled l to P, a closure (b, n) is
      tried only if attaching a node labeled l to b, in the closure's
      layer and direction, was a frequent extension of P, as dropping C's attaching edge from C + (b, n)
      leaves exactly that attachment, still connected (b may be the
      anchor: a parallel edge).

    Both rules skip infrequent candidates only and keep the others' order.
    A node pair with no allowed bit is not probed, and an anchor with no
    allowed attachment is not joined. With ``inherited`` None (a seed)
    every candidate is tried.
    """
    p = parent.pattern
    idx = g.index()
    E = parent.embeddings
    k = p.k
    existing = set(p.edges)
    dirbits = (True, False) if g.directed else (False,)
    if inherited is not None:
        found, made = inherited
        fresh = k - 1 if made.j is None else None  # the node C attached to P

    # cycle closures (including parallel edges between the same pair): one
    # pair-index probe per node pair serves every layer and direction
    for i in range(k):
        for j in range(i + 1, k):
            if inherited is None:
                allowed = -1  # every bit
            elif j == fresh:
                allowed = found.attachments.get(i, {}).get(made.new_label, 0)
            else:
                allowed = found.closures.get((i, j), 0)
            if not allowed:
                continue
            masks = idx.pair_masks(E[:, i], E[:, j])
            present = [int(w) for w in np.bitwise_or.reduce(masks, axis=0)]
            for pos, layer in enumerate(idx.layers):
                for dirbit in dirbits:
                    if (i, j, layer, dirbit) in existing:
                        continue
                    bit = 2 * pos + (0 if dirbit else 1)
                    word, flag = bit >> 6, 1 << (bit & 63)
                    if not present[word] & flag or not allowed >> bit & 1:
                        continue
                    yield Delta(i, j, layer, dirbit), E.compress(masks[:, word] & flag != 0, axis=0)

    # fresh-node attachments
    if k >= cfg.max_nodes:
        return
    n_labels = len(idx.labels_list)
    for i in range(k):
        labels = None if inherited is None or i == fresh else found.attachments.get(i, {})
        for pos, layer in enumerate(idx.layers):
            for dirbit in dirbits:
                bit = 2 * pos + (0 if dirbit else 1)
                if labels is not None and not any(bits >> bit & 1 for bits in labels.values()):
                    continue
                # new -> anchor (dirbit False) follows the anchor's in-edges
                rows, nbrs = attach(idx, E, i, layer, not dirbit)
                images = np.bincount(idx.node_label[_distinct(nbrs, marks)], minlength=n_labels)
                lab_ids = idx.node_label[nbrs]
                for lab_id in np.flatnonzero(images >= sigma):
                    label = idx.labels_list[lab_id]
                    if labels is not None and not labels.get(label, 0) >> bit & 1:
                        continue
                    m = lab_ids == lab_id
                    yield (Delta(i, None, layer, dirbit, label),
                           np.column_stack([E[rows[m]], nbrs[m]]))


def _distinct(values: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """The distinct values, ascending; ``marks`` as in ``mis_support_array``,
    which also says why the scatter indexes with intp."""
    marks[values.astype(np.intp)] = True
    distinct = np.flatnonzero(marks)
    marks.fill(False)
    return distinct

"""Frequent multiplex pattern mining under minimum-image support.

The search grows connected patterns one edge at a time from single-node
seeds (one per attribute label). Each extension either attaches a fresh
node or closes a cycle between existing nodes; candidate extensions are
read off the parent's embedding array, so child embeddings are computed
by an incremental join instead of a fresh subgraph-isomorphism search.
Duplicates are pruned by canonical-code lookup, and every frequent
(parent, child) extension is offered to the optional rule sink while the
search runs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Protocol

import numpy as np

from .graph import MultiplexGraph
from .matcher import attach, mis_support_array
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
    pattern: Pattern
    code: CanonicalCode
    support: int
    embeddings: np.ndarray  # (N, k), every embedding, pattern-index columns, sorted rows
    orderings: tuple[tuple[int, ...], ...]  # canonical discovery orderings

    def embeddings_canonical(self) -> np.ndarray:
        """Embeddings with columns permuted to canonical node indexing."""
        return self.embeddings[:, list(self.orderings[0])]


class PatternSet:
    """Mining output: insertion-ordered records by canonical code, and the run's search memo."""

    def __init__(self, memo: dict):
        self.records: dict[CanonicalCode, MinedPattern] = {}
        self.memo = memo

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
    ps = PatternSet({} if memo is None else memo)
    queue: deque[MinedPattern] = deque()

    for label in sorted(set(g.attrs.values())):
        members = idx.nodes_by_label[label]
        if len(members) < sigma:
            continue
        rec = _record(single_node(label, g.directed), len(members), members.reshape(-1, 1),
                      cfg.strategy, ps.memo)
        ps.add(rec)
        queue.append(rec)

    marks = np.zeros(idx.width, dtype=bool)  # scratch for distinct images
    while queue:
        parent = queue.popleft()
        for delta, child_embs in _extensions(parent, g, cfg, sigma, marks):
            supp_c = mis_support_array(child_embs, sigma, marks)
            if supp_c > parent.support:
                raise MiningInvariantError(
                    f"anti-monotonicity violated: child support {supp_c} > "
                    f"parent support {parent.support}"
                )
            if supp_c < sigma:
                continue
            child = _record(apply_delta(parent.pattern, delta), supp_c, child_embs,
                            cfg.strategy, ps.memo)
            rec_c = ps.get(child.code)
            if rec_c is None:
                rec_c = child
                ps.add(rec_c)
                queue.append(rec_c)
            elif rec_c.support != supp_c:
                raise MiningInvariantError(
                    f"support mismatch for {child.code.to_string()}: "
                    f"{rec_c.support} vs {supp_c}"
                )
            if rule_sink is not None:
                rule_sink.offer(parent, rec_c, delta)
    return ps


def _record(pattern: Pattern, support: int, E: np.ndarray, strategy: Strategy,
            memo: dict) -> MinedPattern:
    """The record of ``pattern``, with its canonical code and orderings."""
    return MinedPattern(pattern, canonical_code(pattern, strategy, memo), support, E,
                        canonical_orderings(pattern, strategy, memo))


def _extensions(
    parent: MinedPattern, g: MultiplexGraph, cfg: MiningConfig, sigma: int, marks: np.ndarray
) -> Iterator[tuple[Delta, np.ndarray]]:
    """All single-edge extension candidates with nonempty embedding sets.

    Yields (delta, child embeddings); the child pattern is left to the
    caller. Child rows keep the parent's lexicographic row order: a cycle
    closure filters the parent's rows, and a fresh node appends each row's
    neighbors in ascending order.

    A fresh-node candidate is yielded only when its new column has at
    least ``sigma`` distinct images, counted exactly on the expansion join
    before the child array is stacked: minimum-image support is at most
    any one column's count. ``marks`` is the scratch array of
    ``mis_support_array``, left all False at every yield.
    """
    p = parent.pattern
    idx = g.index()
    E = parent.embeddings
    k = p.k
    existing = set(p.edges)
    dirbits = (True, False) if g.directed else (False,)

    # cycle closures (including parallel edges between the same pair): one
    # pair-index probe per node pair serves every layer and direction
    for i in range(k):
        for j in range(i + 1, k):
            masks = idx.pair_masks(E[:, i], E[:, j])
            present = [int(w) for w in np.bitwise_or.reduce(masks, axis=0)]
            for pos, layer in enumerate(idx.layers):
                for dirbit in dirbits:
                    if (i, j, layer, dirbit) in existing:
                        continue
                    bit = 2 * pos + (0 if dirbit else 1)
                    word, flag = bit >> 6, 1 << (bit & 63)
                    if not present[word] & flag:
                        continue
                    yield Delta(i, j, layer, dirbit), E.compress(masks[:, word] & flag != 0, axis=0)

    # fresh-node attachments
    if k >= cfg.max_nodes:
        return
    n_labels = len(idx.labels_list)
    for i in range(k):
        for layer in idx.layers:
            for dirbit in dirbits:
                # new -> anchor (dirbit False) follows the anchor's in-edges
                rows, nbrs = attach(idx, E, i, layer, not dirbit)
                images = np.bincount(idx.node_label[_distinct(nbrs, marks)], minlength=n_labels)
                lab_ids = idx.node_label[nbrs]
                for lab_id in np.flatnonzero(images >= sigma):
                    m = lab_ids == lab_id
                    yield (Delta(i, None, layer, dirbit, idx.labels_list[lab_id]),
                           np.column_stack([E[rows[m]], nbrs[m]]))


def _distinct(values: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """The distinct values, ascending; ``marks`` as in ``mis_support_array``."""
    marks[values] = True
    distinct = np.flatnonzero(marks)
    marks[distinct] = False
    return distinct

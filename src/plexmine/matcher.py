"""Embedding enumeration and minimum-image support.

An embedding is an injective map from pattern nodes to graph nodes that
preserves node labels, edge layers, and (for directed graphs) edge
direction. Enumeration is a vectorized join: anchor on the pattern node
with the fewest label candidates, then process pattern edges one at a
time, expanding along adjacency when the edge reaches a new node and
filtering by membership when it closes a cycle.
"""

from __future__ import annotations

import numpy as np

from .graph import MultiplexGraph
from .pattern import Pattern, PatternError


class MatchError(ValueError):
    pass


def _join_plan(p: Pattern, anchor: int):
    """Order pattern edges so each step touches already-placed nodes."""
    remaining = list(p.edges)
    placed = [anchor]
    plan: list[tuple[str, object]] = []
    while remaining:
        both = [e for e in remaining if e.i in placed and e.j in placed]
        if both:
            e = both[0]
            plan.append(("filter", e))
            remaining.remove(e)
            continue
        half = [e for e in remaining if (e.i in placed) != (e.j in placed)]
        if not half:
            raise PatternError("disconnected pattern")
        e = half[0]
        new = e.j if e.i in placed else e.i
        plan.append(("expand", e))
        placed.append(new)
        remaining.remove(e)
    return plan, placed


def match_array(p: Pattern, g: MultiplexGraph) -> np.ndarray:
    """All embeddings of ``p`` in ``g`` as an (N, k) int array, sorted rows.

    Columns follow pattern node indices. Direction bits are ignored when
    the graph is undirected.
    """
    if p.directed != g.directed:
        raise MatchError("pattern/graph directedness mismatch")
    if not p.layers <= g.layers:
        return np.empty((0, p.k), dtype=np.int64)
    idx = g.index()
    for lab in p.node_labels:
        if lab not in idx.nodes_by_label:
            return np.empty((0, p.k), dtype=np.int64)
    anchor = min(range(p.k), key=lambda i: (len(idx.nodes_by_label[p.node_labels[i]]), i))
    plan, _ = _join_plan(p, anchor)
    col_of = {anchor: 0}  # grows as expansion appends columns

    E = idx.nodes_by_label[p.node_labels[anchor]].reshape(-1, 1).copy()
    for op, e in plan:
        if E.shape[0] == 0:
            break
        if op == "filter":
            a, b = E[:, col_of[e.i]], E[:, col_of[e.j]]
            us, vs = (a, b) if e.dirbit else (b, a)  # undirected pairs are stored both ways
            E = E[idx.has_pairs(us, vs, e.layer)]
        else:
            old = e.i if e.i in col_of else e.j
            new = e.j if old == e.i else e.i
            # new -> old means we follow in-edges of old; undirected graphs
            # have one table for both
            incoming = (e.i if e.dirbit else e.j) == new
            rows, nbrs = idx.neighbors_flat(E[:, col_of[old]], e.layer, incoming)
            want = idx.label_ids.get(p.node_labels[new])
            keep = idx.node_label[nbrs] == want
            for c in range(E.shape[1]):
                keep &= nbrs != E[rows, c]
            rows, nbrs = rows[keep], nbrs[keep]
            E = np.column_stack([E[rows], nbrs])
            col_of[new] = E.shape[1] - 1
    if E.shape[0] == 0:
        return np.empty((0, p.k), dtype=np.int64)
    # back to pattern-index column order, then deterministic row order
    E = E[:, [col_of[i] for i in range(p.k)]]
    E = E[np.lexsort(tuple(E[:, c] for c in reversed(range(p.k))))]
    return np.ascontiguousarray(E, dtype=np.int64)


def mis_support_array(E: np.ndarray, sigma: int, marks: np.ndarray) -> int:
    """Minimum image support of an (N, k) embedding array.

    Exact whenever the support is at least ``sigma``. Columns are counted
    newest first, and the first column with fewer than ``sigma`` distinct
    images ends the count: its count is returned, which is below ``sigma``
    and at least the true support. ``marks`` is a scratch boolean array,
    all False, longer than the largest node id; it is left all False.
    """
    if E.shape[0] == 0:
        return 0
    support = E.shape[0]
    for c in reversed(range(E.shape[1])):
        col = E[:, c]
        marks[col] = True
        support = min(support, int(np.count_nonzero(marks)))
        marks[col] = False
        if support < sigma:
            break
    return support

"""Embedding enumeration, minimum-image support and node-set ids.

An embedding is an injective map from pattern nodes to graph nodes that
preserves node labels, edge layers, and (for directed graphs) edge
direction. Enumeration is a vectorized join that follows a canonical
code, which doubles as the join plan: start from the root label's nodes,
then take the code's tuples, expanding along adjacency when a tuple
reaches a fresh node and filtering by membership when it closes a cycle.
Fresh nodes are placed in code order; a closure runs as soon as both its
endpoints are placed.
"""

from __future__ import annotations

import numpy as np

from .graph import GraphIndex, MultiplexGraph
from .pattern import CanonicalCode, Pattern, canonical_code, canonical_orderings


class MatchError(ValueError):
    pass


def attach(idx: GraphIndex, E: np.ndarray, col: int, layer: int,
           incoming: bool) -> tuple[np.ndarray, np.ndarray]:
    """(rows, nbrs): every neighbor in ``layer`` of each row's ``col`` image
    that the row does not hold already, rows ascending and each row's
    neighbors ascending. ``incoming`` follows in-edges."""
    rows, nbrs = idx.neighbors_flat(E[:, col], layer, incoming)
    keep = np.ones(rows.size, dtype=bool)
    for c in range(E.shape[1]):
        keep &= nbrs != E[rows, c]
    return rows[keep], nbrs[keep]


def fits(code: CanonicalCode, g: MultiplexGraph) -> bool:
    """Whether ``g`` has every label and layer that ``code`` names."""
    labels = {code.root_label} | {t.dst_label for t in code.tuples}
    return {t.layer for t in code.tuples} <= g.layers and labels <= g.index().label_ids.keys()


def code_embeddings(code: CanonicalCode, g: MultiplexGraph) -> np.ndarray:
    """All embeddings of ``code``'s pattern in ``g`` as an (N, k) int32
    array of node ids (``GraphIndex``).

    Columns follow code indices and rows come sorted. Direction bits are
    ignored when the graph is undirected.
    """
    if code.directed != g.directed:
        raise MatchError("pattern/graph directedness mismatch")
    if not fits(code, g):
        return np.empty((0, code.pattern.k), dtype=np.int32)
    idx = g.index()
    E = idx.nodes_by_label[code.root_label].reshape(-1, 1).copy()
    # the code may list a closure after expansions (a parallel edge in a
    # higher layer does); run it first, before they multiply the rows
    for t in sorted(code.tuples, key=lambda t: max(t.src, t.dst)):
        forward = bool(t.dirbit) == (t.src < t.dst)  # the true edge runs src -> dst
        if t.dst < E.shape[1]:
            a, b = E[:, t.src], E[:, t.dst]
            E = E[idx.has_pairs(a, b, t.layer) if forward else idx.has_pairs(b, a, t.layer)]
        else:
            rows, nbrs = attach(idx, E, t.src, t.layer, not forward)
            keep = idx.node_label[nbrs] == idx.label_ids[t.dst_label]
            E = np.column_stack([E[rows[keep]], nbrs[keep]])
    return E


def match_array(p: Pattern, g: MultiplexGraph) -> np.ndarray:
    """All embeddings of ``p`` in ``g`` as an (N, k) int32 array of node
    ids, sorted rows.

    Columns follow pattern node indices. Direction bits are ignored when
    the graph is undirected.
    """
    memo: dict = {}
    code = canonical_code(p, memo=memo)
    E = code_embeddings(code, g)[:, np.argsort(canonical_orderings(p, memo=memo)[0])]
    return E[np.lexsort(E.T[::-1])]


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
        # numpy scatters an int32 index far slower than an intp one, and
        # counting already reads all of ``marks``, so clearing it all costs
        # no more than clearing the column
        marks[E[:, c].astype(np.intp)] = True
        support = min(support, int(np.count_nonzero(marks)))
        marks.fill(False)
        if support < sigma:
            break
    return support


def node_set_ids(E: np.ndarray, width: int) -> np.ndarray:
    """One int32 id per row of an (N, k) embedding array whose node ids
    lie in ``[0, width)``, equal exactly for rows with the same node set;
    the ids lie in ``[0, N)``, and ids of different arrays are unrelated.

    A row's sorted nodes pack into one int64 as digits base ``width``,
    ranked once at the end, or sooner where another digit could overflow.
    The first digit is promoted to int64, so int32 node ids pack too.
    """
    rows = np.sort(E, axis=1)
    ids, bound = rows[:, 0].astype(np.int64), width
    for col in rows.T[1:]:
        if bound > ((1 << 63) - 1) // width:
            ids, bound = ranks(ids)[0], len(E)
        ids, bound = ids * width + col, bound * width
    return ranks(ids)[0].astype(np.int32)


def firsts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal sorted values."""
    first = np.ones(len(sorted_values), dtype=bool)
    first[1:] = sorted_values[1:] != sorted_values[:-1]
    return first


def ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's position among the distinct values, and those, ascending."""
    order = np.argsort(values)
    sorted_values = values[order]
    first = firsts(sorted_values)
    positions = np.empty(len(values), dtype=np.int64)
    positions[order] = np.cumsum(first) - 1
    return positions, sorted_values[first]

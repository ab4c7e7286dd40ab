"""Multiplex graph data model.

A multiplex graph is a labeled multigraph: nodes carry one categorical
attribute each, and every edge is a triple (u, v, layer). Graphs are
immutable after construction and safe to share across workers; the
matcher-facing adjacency indexes are built lazily once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

DEFAULT_LABEL = "_"

EdgeTriple = tuple[int, int, int]  # (u, v, layer)


class GraphError(ValueError):
    """Raised for structurally invalid graphs or graph operations."""


class MultiplexGraph:
    """Immutable directed or undirected multiplex graph.

    Undirected graphs store each triple once with u < v; (u, v, l) and
    (v, u, l) are identified at construction. Self-loops are rejected.
    Nodes missing from ``attrs`` get the shared default label ``"_"``.
    ``source`` is the root of the ``subgraph_of_edges`` chain that cut
    this graph, or None; equality and hashing ignore it.
    """

    __slots__ = (
        "directed",
        "nodes",
        "layers",
        "edges",
        "attrs",
        "layer_names",
        "node_names",
        "source",
        "_index",
    )

    def __init__(
        self,
        nodes: Iterable[int],
        edges: Iterable[EdgeTriple],
        attrs: Mapping[int, str] | None = None,
        directed: bool = False,
        layers: Iterable[int] | None = None,
        layer_names: Mapping[int, str] | None = None,
        node_names: Mapping[int, str] | None = None,
    ):
        self.directed = bool(directed)
        self.nodes = frozenset(int(u) for u in nodes)
        norm = set()
        for u, v, l in edges:
            u, v, l = int(u), int(v), int(l)
            if u == v:
                continue  # loops are dropped everywhere
            if not directed and u > v:
                u, v = v, u
            norm.add((u, v, l))
        self.edges = frozenset(norm)
        for u, v, l in self.edges:
            if u not in self.nodes or v not in self.nodes:
                raise GraphError(f"edge ({u},{v},{l}) references unknown node")
        edge_layers = {l for _, _, l in self.edges}
        self.layers = frozenset(int(l) for l in layers) if layers is not None else frozenset(edge_layers)
        if not edge_layers <= self.layers:
            raise GraphError("edge uses a layer outside the declared layer set")
        a = dict(attrs) if attrs else {}
        for n in a:
            if n not in self.nodes:
                raise GraphError(f"attribute for unknown node {n}")
        self.attrs = {n: str(a.get(n, DEFAULT_LABEL)) for n in self.nodes}
        self.layer_names = dict(layer_names) if layer_names else {l: str(l) for l in self.layers}
        self.node_names = dict(node_names) if node_names else {n: str(n) for n in self.nodes}
        self.source: MultiplexGraph | None = None
        self._index = None

    # -- basic views ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int, l: int) -> bool:
        if not self.directed and u > v:
            u, v = v, u
        return (u, v, l) in self.edges

    def layer_id(self, name: str) -> int:
        for lid, lname in self.layer_names.items():
            if lname == name:
                return lid
        raise GraphError(f"unknown layer name {name!r}")

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"MultiplexGraph({kind}, |V|={self.n_nodes}, "
            f"|E|={self.n_edges}, |L|={len(self.layers)})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiplexGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.attrs == other.attrs
            and self.layers == other.layers
        )

    def __hash__(self):
        return hash((self.directed, self.nodes, self.edges))

    # -- matcher-facing index ---------------------------------------------

    def index(self) -> "GraphIndex":
        if self._index is None:
            self._index = GraphIndex(self)
        return self._index

    def subgraph_of_edges(self, keep: Iterable[EdgeTriple]) -> "MultiplexGraph":
        """Graph induced by a subset of the edge set (nodes = endpoints).

        The result keeps this graph's node ids, labels and layers, and its
        ``source`` is this graph's root (its ``source``, or itself), so
        every embedding of a pattern in the result is an embedding in the
        root too and no support grows.
        """
        keep = set(keep)
        extra = keep - self.edges
        if extra:
            raise GraphError(f"{len(extra)} edges not in graph")
        nodes = {u for u, v, _ in keep} | {v for u, v, _ in keep}
        sub = MultiplexGraph(
            nodes,
            keep,
            attrs={n: self.attrs[n] for n in nodes},
            directed=self.directed,
            layers=self.layers,
            layer_names=self.layer_names,
            node_names={n: self.node_names[n] for n in nodes},
        )
        sub.source = self if self.source is None else self.source
        return sub


@dataclass(frozen=True)
class TemporalMultiplexGraph:
    """A multiplex graph whose edges carry integer timestamps.

    ``node_times`` records each node's first-seen day; it never exceeds the
    earliest timestamp of the node's incident edges.
    """

    base: MultiplexGraph
    edge_times: Mapping[EdgeTriple, int]
    node_times: Mapping[int, int]

    def __post_init__(self):
        for e in self.base.edges:
            if e not in self.edge_times:
                raise GraphError(f"edge {e} has no timestamp")
        for (u, v, _), t in self.edge_times.items():
            for n in (u, v):
                if self.node_times.get(n, t) > t:
                    raise GraphError(f"node {n} first seen after its edge at t={t}")

    @property
    def time_range(self) -> tuple[int, int]:
        ts = list(self.edge_times.values())
        return min(ts), max(ts)


def flatten_monoplex(g: MultiplexGraph, keep_layers: Iterable[int] | None = None) -> MultiplexGraph:
    """Collapse layers into a single-layer graph.

    An edge (u, v) exists in the output iff (u, v, l) exists for some kept
    layer l. The node set is unchanged; the flattened layer has id 0.
    """
    if keep_layers is None:
        kept = set(g.layers)
    else:
        kept = {int(l) for l in keep_layers}
        if not kept:
            raise GraphError("keep_layers must be non-empty")
        if not kept <= g.layers:
            raise GraphError(f"keep_layers {sorted(kept - g.layers)} not in graph layers")
    pairs = {(u, v) for u, v, l in g.edges if l in kept}
    return MultiplexGraph(
        g.nodes,
        {(u, v, 0) for u, v in pairs},
        attrs=g.attrs,
        directed=g.directed,
        layers={0},
        layer_names={0: "*"},
        node_names=g.node_names,
    )


class GraphIndex:
    """Array adjacency built once per graph for the vectorized matcher.

    Node ids are int32 from here down: ``node_arr``, ``nodes_by_label``
    and the neighbor arrays hold them, so every embedding built from them
    is int32 and takes half the bytes of int64. Row positions and
    ``indptr`` stay int64, and every product of a node id and ``width``
    is taken in int64 (``pair_masks`` does so), since it passes 2**31
    from node id 46,341 on.

    For directed graphs ``out_[l]`` / ``in_[l]`` are CSR-style neighbor
    arrays per layer, neighbors ascending; undirected graphs expose a
    single symmetric table in ``out_`` (and ``in_`` aliases it).

    Membership lives in one pair index for all layers: ``pair_keys`` holds
    the sorted ``u*W+v`` keys (``W`` = ``width``) of every ordered node pair
    joined by an edge in either direction, then a sentinel, and
    ``pair_bits`` holds one layer-by-direction bitmask per key,
    ``n_words = ceil(2*|L|/64)`` uint64 words wide. For the layer at
    position ``p`` of ``layers``, bit ``2p`` of pair ``(u, v)`` says u->v is
    an edge and bit ``2p+1`` says v->u is. Undirected edges set both bits on
    both orientations. Node ids passed to the probes must lie in
    ``[0, width)``, and ``width`` must fit in int32.
    """

    def __init__(self, g: MultiplexGraph):
        self.width = (max(g.nodes) + 1) if g.nodes else 1
        W = self.width
        if W > np.iinfo(np.int32).max:
            raise GraphError(f"node id {W - 1} is above the index's largest, "
                             f"{np.iinfo(np.int32).max - 1}")
        self.node_arr = np.array(sorted(g.nodes), dtype=np.int32)
        labels = sorted({g.attrs[n] for n in g.nodes}) if g.nodes else []
        self.labels_list = labels
        self.label_ids = {lab: i for i, lab in enumerate(labels)}
        self.node_label = np.full(W, -1, dtype=np.int64)
        self.node_label[self.node_arr] = [self.label_ids[g.attrs[int(n)]] for n in self.node_arr]
        node_lab = self.node_label[self.node_arr]
        self.nodes_by_label = {lab: self.node_arr[node_lab == i] for i, lab in enumerate(labels)}

        self.layers = sorted(g.layers)
        self.layer_pos = {l: p for p, l in enumerate(self.layers)}
        edges = np.array(list(g.edges), dtype=np.int64).reshape(-1, 3)
        u, v = edges[:, 0], edges[:, 1]
        lp = np.searchsorted(np.array(self.layers, dtype=np.int64), edges[:, 2])

        # CSR tables: one sort by (layer, source, target), sliced per layer
        self.out_: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.in_: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if g.directed:
            self._fill_csr(self.out_, lp, u, v)
            self._fill_csr(self.in_, lp, v, u)
        else:
            self._fill_csr(self.out_, np.concatenate([lp, lp]),
                           np.concatenate([u, v]), np.concatenate([v, u]))
            self.in_ = self.out_

        # pair index: (key, bit) per edge and orientation, OR-ed per key
        fwd, rev = 2 * lp, 2 * lp + 1
        if g.directed:
            keys = np.concatenate([u * W + v, v * W + u])
            bits = np.concatenate([fwd, rev])
        else:
            keys = np.concatenate([u * W + v, u * W + v, v * W + u, v * W + u])
            bits = np.concatenate([fwd, rev, fwd, rev])
        self.n_words = max(1, -(-2 * len(self.layers) // 64))
        keys, inv = np.unique(keys, return_inverse=True)
        # a trailing sentinel key with a zero mask catches every miss
        self.pair_keys = np.append(keys, np.iinfo(np.int64).max)
        self.pair_bits = np.zeros((len(self.pair_keys), self.n_words), dtype=np.uint64)
        np.bitwise_or.at(self.pair_bits, (inv, bits >> 6),
                         np.uint64(1) << (bits & 63).astype(np.uint64))

    def _fill_csr(self, table: dict, lp: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        order = np.lexsort((dst, src, lp))
        lp, src, dst = lp[order], src[order], dst[order]
        bounds = np.searchsorted(lp, np.arange(len(self.layers) + 1))
        for p, l in enumerate(self.layers):
            lo, hi = bounds[p], bounds[p + 1]
            indptr = np.zeros(self.width + 1, dtype=np.int64)
            np.cumsum(np.bincount(src[lo:hi], minlength=self.width), out=indptr[1:])
            table[l] = indptr, dst[lo:hi].astype(np.int32)

    def pair_rows(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """The ``pair_bits`` row of each pair (us, vs), in their shape: the
        sentinel's, with a zero mask, for a pair with no edge."""
        probe = np.multiply(us, self.width, dtype=np.int64) + vs
        pos = np.searchsorted(self.pair_keys, probe)
        pos[self.pair_keys[pos] != probe] = len(self.pair_keys) - 1
        return pos

    def pair_masks(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Bitmask rows (len(us), n_words) of the pairs (us, vs); zero rows
        for pairs with no edge. Bit layout as in the class docstring."""
        return self.pair_bits.take(self.pair_rows(us, vs), axis=0)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (u, v) arrays of the indexed pairs, in ``pair_bits`` row order."""
        return np.divmod(self.pair_keys[:-1], self.width)

    def has_pairs(self, us: np.ndarray, vs: np.ndarray, layer: int) -> np.ndarray:
        """Vectorized membership: does the graph contain edge u->v in layer?

        For undirected graphs orientation is irrelevant (pairs are stored
        both ways).
        """
        bit = 2 * self.layer_pos[layer]
        return self.pair_masks(us, vs)[:, bit >> 6] & (1 << (bit & 63)) != 0

    def neighbors_flat(
        self, anchors: np.ndarray, layer: int, incoming: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather all (row, neighbor) expansions of the anchor column.

        Returns (rows, nbrs): int64 row indices into ``anchors`` repeated
        per neighbor, and the flattened int32 neighbor ids.
        """
        indptr, indices = (self.in_ if incoming else self.out_)[layer]
        starts = indptr[anchors]
        counts = indptr[anchors + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        rows = np.repeat(np.arange(len(anchors), dtype=np.int64), counts)
        shift = np.repeat(np.cumsum(counts) - counts, counts)
        pos = np.arange(total, dtype=np.int64) - shift + np.repeat(starts, counts)
        return rows, indices[pos]

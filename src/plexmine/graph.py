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
# GraphIndex keeps a rank-pair table only while it has at most this many
# entries per indexed node pair; sparser graphs binary-search the pair keys
TABLE_ENTRIES_PER_PAIR = 64

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
    (the largest node id plus one) is taken in int64, since it passes
    2**31 from node id 46,341 on.

    A node's rank is its position in ``node_arr``; ``rank`` maps every id
    in ``[0, width)`` to it, and every id that is not a node to ``n``, the
    node count. ``rank`` and ``node_label`` are the only arrays sized by
    ``width``, at 4 bytes per id each; everything else is sized by ``n``,
    so sparse ids cost little.

    For directed graphs ``out_[l]`` / ``in_[l]`` are CSR-style neighbor
    arrays per layer, ``indptr`` indexed by rank (``n + 1`` entries) and
    neighbors ascending; undirected graphs expose a single symmetric table
    in ``out_`` (and ``in_`` aliases it).

    Membership lives in one pair index for all layers. ``pair_u`` and
    ``pair_v`` list every ordered node pair joined by an edge in either
    direction, ascending in (u, v), and ``pair_bits`` holds one
    layer-by-direction bitmask per pair, ``n_words = ceil(2*|L|/64)``
    uint64 words wide, then a trailing zero row. For the layer at position
    ``p`` of ``layers``, bit ``2p`` of pair ``(u, v)`` says u->v is an edge
    and bit ``2p+1`` says v->u is. Undirected edges set both bits on both
    orientations. ``pair_rows`` finds a pair's row of ``pair_bits``, or
    the zero row when no edge joins it, in one of two ways, chosen by
    size. While the ``(n+1)**2`` rank pairs number at most
    ``TABLE_ENTRIES_PER_PAIR`` (64) per indexed pair, the int32 table
    ``pair_pos`` maps each rank key ``rank[u]*(n+1) + rank[v]`` to its row
    with one ``take``; it costs ``4*(n+1)**2`` bytes, at most 256 per pair
    (15 KB for the 61-node stand-in). A sparser graph keeps instead the
    sorted keys ``u*width + v`` of its pairs and a sentinel in
    ``pair_keys`` and binary-searches them, in 8 bytes per pair (keys of
    ids, not ranks: two fewer gathers per probe, measurably faster on a
    4,000-node graph). A table would raise the peak RSS of mining that
    graph (28,726 pairs) from 71 to 132 MB, and take 400 MB at 10,000
    nodes. The other of ``pair_pos`` and ``pair_keys`` is None. Node ids
    passed to the probes must lie in ``[0, width)``, anchors of
    ``neighbors_flat`` must be nodes, and ``width`` must fit in int32.
    """

    def __init__(self, g: MultiplexGraph):
        self.width = (max(g.nodes) + 1) if g.nodes else 1
        W = self.width
        if W > np.iinfo(np.int32).max:
            raise GraphError(f"node id {W - 1} is above the index's largest, "
                             f"{np.iinfo(np.int32).max - 1}")
        self.node_arr = np.array(sorted(g.nodes), dtype=np.int32)
        n = len(self.node_arr)
        self.rank = np.full(W, n, dtype=np.int32)
        self.rank[self.node_arr] = np.arange(n, dtype=np.int32)
        labels = sorted({g.attrs[n] for n in g.nodes}) if g.nodes else []
        self.labels_list = labels
        self.label_ids = {lab: i for i, lab in enumerate(labels)}
        node_lab = np.array([self.label_ids[g.attrs[int(x)]] for x in self.node_arr],
                            dtype=np.int32)
        self.node_label = np.full(W, -1, dtype=np.int32)
        self.node_label[self.node_arr] = node_lab
        self.nodes_by_label = {lab: self.node_arr[node_lab == i] for i, lab in enumerate(labels)}

        self.layers = sorted(g.layers)
        self.layer_pos = {l: p for p, l in enumerate(self.layers)}
        edges = np.array(list(g.edges), dtype=np.int64).reshape(-1, 3)
        u, v = self.rank[edges[:, 0]].astype(np.int64), self.rank[edges[:, 1]].astype(np.int64)
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

        # pair index: (rank key, bit) per edge and orientation, OR-ed per key
        N = n + 1
        fwd, rev = 2 * lp, 2 * lp + 1
        if g.directed:
            keys = np.concatenate([u * N + v, v * N + u])
            bits = np.concatenate([fwd, rev])
        else:
            keys = np.concatenate([u * N + v, u * N + v, v * N + u, v * N + u])
            bits = np.concatenate([fwd, rev, fwd, rev])
        self.n_words = max(1, -(-2 * len(self.layers) // 64))
        keys, inv = np.unique(keys, return_inverse=True)
        ru, rv = np.divmod(keys, N)
        self.pair_u, self.pair_v = self.node_arr[ru], self.node_arr[rv]
        if N * N <= TABLE_ENTRIES_PER_PAIR * len(keys):
            # every key without a pair, and every non-node rank, points at the zero row
            self.pair_pos = np.full(N * N, len(keys), dtype=np.int32)
            self.pair_pos[keys] = np.arange(len(keys), dtype=np.int32)
            self.pair_keys = None
        else:
            # id keys, ascending as the rank keys are; a trailing sentinel
            # key, on the zero row, catches every miss
            self.pair_pos = None
            self.pair_keys = np.append(self.pair_u.astype(np.int64) * W + self.pair_v,
                                       np.iinfo(np.int64).max)
        self.pair_bits = np.zeros((len(keys) + 1, self.n_words), dtype=np.uint64)
        np.bitwise_or.at(self.pair_bits, (inv.ravel(), bits >> 6),
                         np.uint64(1) << (bits & 63).astype(np.uint64))

    def _fill_csr(self, table: dict, lp: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        """``src`` and ``dst`` are ranks; the stored neighbors are node ids."""
        order = np.lexsort((dst, src, lp))
        lp, src, dst = lp[order], src[order], dst[order]
        bounds = np.searchsorted(lp, np.arange(len(self.layers) + 1))
        n = len(self.node_arr)
        for p, l in enumerate(self.layers):
            lo, hi = bounds[p], bounds[p + 1]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src[lo:hi], minlength=n), out=indptr[1:])
            table[l] = indptr, self.node_arr[dst[lo:hi]]

    def pair_rows(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """The ``pair_bits`` row of each pair (us, vs), in their shape: the
        trailing zero row for a pair with no edge."""
        if self.pair_pos is not None:
            key = np.multiply(self.rank.take(us), len(self.node_arr) + 1, dtype=np.int64)
            key += self.rank.take(vs)
            return self.pair_pos.take(key)
        key = np.multiply(us, self.width, dtype=np.int64) + vs
        pos = np.searchsorted(self.pair_keys, key)
        pos[self.pair_keys[pos] != key] = len(self.pair_keys) - 1
        return pos

    def pair_masks(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Bitmask rows (len(us), n_words) of the pairs (us, vs); zero rows
        for pairs with no edge. Bit layout as in the class docstring."""
        return self.pair_bits.take(self.pair_rows(us, vs), axis=0)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (u, v) arrays of the indexed pairs, in ``pair_bits`` row order."""
        return self.pair_u, self.pair_v

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
        r = self.rank.take(anchors)
        starts = indptr[r]
        counts = indptr[r + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        rows = np.repeat(np.arange(len(anchors), dtype=np.int64), counts)
        shift = np.repeat(np.cumsum(counts) - counts, counts)
        pos = np.arange(total, dtype=np.int64) - shift + np.repeat(starts, counts)
        return rows, indices[pos]

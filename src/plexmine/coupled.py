"""Many-to-many multilayer pre/post transform.

A many-to-many multilayer instance lists per-layer node replicas, explicit
inter-layer couplings and intra-layer edges. :func:`to_coupled` turns it
into an undirected ``MultiplexGraph``, the graph every other module reads,
so a coupled instance is mined, scored, evaluated and saved like any
graph:

- one node per replica, numbered in sorted replica order, labelled
  ``str(layer)`` and named ``f"{entity}@{layer}"`` (names are unique, so
  score dumps and edge files tell replicas apart);
- two edge layers: ``coupling`` (``COUPLING``) joins replicas in two
  different layers, ``intra`` (``INTRA``) joins two replicas of one layer.

:func:`from_coupled` reverses the transform exactly. It reads edge kinds
by layer *name*, because the loader renumbers layers by sorted name, and
a replica from its node's name (the text before the last ``@``) and label.
A graph saved with ``save_multiplex`` and loaded back gives the instance
minus its edgeless replicas, since the edge file holds only nodes with an
edge; entity names must then hold no whitespace, the files' separator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphError, MultiplexGraph

COUPLING = 1
INTRA = 2
_NAMES = {COUPLING: "coupling", INTRA: "intra"}  # edge layer names

Replica = tuple[str, int]  # (entity name, layer id)


def _pair(a, b):
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class MultilayerInstance:
    """Input description: replicas + couplings + intra-layer edges."""

    replicas: frozenset[Replica]
    couplings: frozenset[tuple[Replica, Replica]]
    intra_edges: frozenset[tuple[Replica, Replica]]

    @classmethod
    def build(cls, replicas, couplings, intra_edges) -> "MultilayerInstance":
        return cls(
            replicas=frozenset((str(n), int(l)) for n, l in replicas),
            couplings=frozenset(_pair(tuple(a), tuple(b)) for a, b in couplings),
            intra_edges=frozenset(_pair(tuple(a), tuple(b)) for a, b in intra_edges),
        )


def _check(kind: str, a: Replica, b: Replica) -> None:
    """Raise unless ``kind`` names an edge layer and may join ``a`` and ``b``."""
    if kind not in _NAMES.values():
        raise GraphError(f"unknown layer name {kind!r}")
    if kind == "coupling" and a[1] == b[1]:
        raise GraphError(f"coupling {a}-{b} within one layer")
    if kind == "intra" and a[1] != b[1]:
        raise GraphError(f"intra edge {a}-{b} spans layers {a[1]} and {b[1]}")
    if a == b:
        raise GraphError(f"intra edge joins {a} to itself")


def to_coupled(inst: MultilayerInstance) -> MultiplexGraph:
    """One node per replica; couplings in layer COUPLING, intra edges in INTRA."""
    rid = {rep: i for i, rep in enumerate(sorted(inst.replicas))}
    edges = []
    for kind, pairs in ((COUPLING, inst.couplings), (INTRA, inst.intra_edges)):
        for a, b in pairs:
            if a not in rid or b not in rid:
                raise GraphError(f"{_NAMES[kind]} edge {a}-{b} references an absent replica")
            _check(_NAMES[kind], a, b)
            edges.append((rid[a], rid[b], kind))
    labels = {i: str(layer) for (_, layer), i in rid.items()}
    names = {i: f"{entity}@{layer}" for (entity, layer), i in rid.items()}
    return MultiplexGraph(rid.values(), edges, labels, layers=_NAMES, layer_names=_NAMES,
                          node_names=names)


def from_coupled(g: MultiplexGraph) -> MultilayerInstance:
    """Exact inverse of :func:`to_coupled`, reading edge kinds by layer name."""
    if g.directed:
        raise GraphError("a coupled graph is undirected")
    rep = {}
    for n in g.nodes:
        entity, at, layer = g.node_names[n].rpartition("@")
        if not at or layer != g.attrs[n] or not layer.removeprefix("-").isdecimal():
            raise GraphError(f"node {g.node_names[n]!r} is not named entity@<its integer label>")
        rep[n] = (entity, int(layer))
    pairs = {name: [] for name in _NAMES.values()}
    for u, v, l in g.edges:
        _check(g.layer_names[l], rep[u], rep[v])
        pairs[g.layer_names[l]].append((rep[u], rep[v]))
    return MultilayerInstance.build(rep.values(), pairs["coupling"], pairs["intra"])

"""Seeded input files for the benchmark workloads.

The graphs are built here, not by ``plexmine.datagen``, so that a change
to the program's generator cannot change what the benchmark measures.
``powerlaw_cluster_layer`` and ``synth`` repeat the Holme-Kim scheme of
``plexmine.datagen.generate`` draw for draw; ``test_perfbench`` checks
that both give the same graph.

Each workload has a fixed base graph (``Spec.base_seed``). The run seed
draws the node names and the order of the lines in both files. The names
are integers that keep the nodes' order, so the loader maps them back to
the same dense ids: every seed gives the program different text to parse
but the same graph, the same k-fold split and the same work, so that
runs of different seeds can be compared. (A seed that changed the graph
changed the work too: mining the criterion-5 stand-in graph under five
generator seeds gave 623 to 1032 patterns, and fold 0 of a 61-node
``ensemble-opt`` graph under random renamings took 9.7 to 15.1 s.)
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

Edge = tuple[int, int, int]


@dataclass(frozen=True)
class Spec:
    n: int
    layers: int
    avg_degree: int
    n_labels: int
    base_seed: int
    overlap: float | None  # keep-probability of a layer-0 edge; None: independent layers


SPECS = {
    # acceptance criterion 5 stand-in: generate(n=61, layers=5, avg_degree=4, n_labels=1, seed=11)
    "mine-standin": Spec(61, 5, 4, 1, 11, None),
    "cv-overlap": Spec(150, 3, 4, 2, 5, 0.6),
    "ensemble-opt": Spec(40, 3, 4, 1, 3, 0.6),
}


def powerlaw_cluster_layer(n: int, m: int, p: float, rng: random.Random) -> set[tuple[int, int]]:
    """One undirected preferential-attachment layer with triangle closure."""
    edges: set[tuple[int, int]] = set()
    adj: dict[int, list[int]] = {u: [] for u in range(n)}
    repeated = list(range(m))

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))
        adj[u].append(v)
        adj[v].append(u)

    for src in range(m, n):
        chosen: set[int] = set()
        target = rng.choice(repeated)
        while target in chosen:
            target = rng.choice(repeated)
        add(src, target)
        chosen.add(target)
        while len(chosen) < m:
            if rng.random() < p:
                nbrs = [w for w in adj[target] if w != src and w not in chosen]
                if nbrs:
                    w = rng.choice(nbrs)
                    add(src, w)
                    chosen.add(w)
                    continue
            target = rng.choice(repeated)
            while target in chosen or target == src:
                target = rng.choice(repeated)
            add(src, target)
            chosen.add(target)
        repeated.extend(chosen)
        repeated.extend([src] * m)
    return edges


def synth(n: int, layers: int, avg_degree: int, n_labels: int, seed: int,
          p_triangle: float = 0.5) -> tuple[set[Edge], dict[int, str]]:
    """Independent layers; the same graph as ``datagen.generate`` gives."""
    rng = random.Random(seed)
    alphabet = [chr(ord("a") + i) for i in range(n_labels)]
    attrs = {u: alphabet[rng.randrange(n_labels)] for u in range(n)}
    m = max(1, avg_degree // 2)
    edges = set()
    for layer in range(layers):
        for u, v in powerlaw_cluster_layer(n, m, p_triangle, rng):
            edges.add((u, v, layer))
    return edges, attrs


def overlap_graph(spec: Spec) -> tuple[set[Edge], dict[int, str]]:
    """Layer 0 is a power-law-cluster layer; every other layer keeps each
    layer-0 edge with probability ``spec.overlap`` and otherwise takes the
    edge of the same rank from a layer of its own."""
    base, attrs = synth(spec.n, 1, spec.avg_degree, spec.n_labels, spec.base_seed)
    layer0 = sorted((u, v) for u, v, _ in base)
    edges = {(u, v, 0) for u, v in layer0}
    rng = random.Random(spec.base_seed + 1)
    for layer in range(1, spec.layers):
        own, _ = synth(spec.n, 1, spec.avg_degree, 1, spec.base_seed + 1000 * layer)
        own_sorted = sorted((u, v) for u, v, _ in own)
        for e0, e1 in zip(layer0, own_sorted):
            u, v = e0 if rng.random() < spec.overlap else e1
            edges.add((u, v, layer))
    return edges, attrs


def base_graph(workload: str) -> tuple[set[Edge], dict[int, str]]:
    spec = SPECS[workload]
    if spec.overlap is None:
        return synth(spec.n, spec.layers, spec.avg_degree, spec.n_labels, spec.base_seed)
    return overlap_graph(spec)


def relabeled(edges: set[Edge], attrs: dict[int, str], seed: int):
    """Edge and attribute lines under a seeded, order-keeping node renaming."""
    rng = random.Random(seed)
    names = sorted(rng.sample(range(100 * len(attrs)), len(attrs)))
    edge_lines = [f"{names[u]}\t{names[v]}\tL{l}" for u, v, l in sorted(edges)]
    rng.shuffle(edge_lines)
    attr_lines = [f"{names[u]}\t{lab}" for u, lab in sorted(attrs.items())]
    rng.shuffle(attr_lines)
    return edge_lines, attr_lines


def write_inputs(workload: str, seed: int, out_dir: str) -> tuple[str, str]:
    """Write ``graph.edges`` and ``graph.attrs`` for one workload and seed."""
    edges, attrs = base_graph(workload)
    edge_lines, attr_lines = relabeled(edges, attrs, seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = (os.path.join(out_dir, "graph.edges"), os.path.join(out_dir, "graph.attrs"))
    for path, lines in zip(paths, (edge_lines, attr_lines)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return paths

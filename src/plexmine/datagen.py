"""Synthetic multiplex graphs: independent power-law-cluster layers.

Each layer is grown by preferential attachment with a triangle-closure
step (Holme-Kim scheme): every arriving node attaches m = avg_degree/2
edges, each following a previous attachment with probability p_triangle
by linking to a random neighbor of the last target. Layers share one node
set; node labels are drawn uniformly from a small alphabet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import MultiplexGraph


@dataclass
class SynthConfig:
    n: int = 500
    layers: int = 7
    avg_degree: int = 8
    p_triangle: float = 0.5
    n_labels: int = 4
    seed: int = 0

    def validate(self) -> None:
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.n_labels < 1:
            raise ValueError("n_labels must be >= 1")
        if not 0.0 <= self.p_triangle <= 1.0:
            raise ValueError("p_triangle must be in [0,1]")
        if self.avg_degree < 2:
            raise ValueError("avg_degree must be >= 2")
        if self.n < self.avg_degree + 1:
            raise ValueError("need n >= avg_degree + 1")

    @property
    def m(self) -> int:
        """Edges per arriving node; an odd avg_degree rounds down."""
        return self.avg_degree // 2


def _label_alphabet(n_labels: int) -> list[str]:
    if n_labels <= 26:
        return [chr(ord("a") + i) for i in range(n_labels)]
    return [f"l{i}" for i in range(n_labels)]


def _powerlaw_cluster_layer(n: int, m: int, p: float, rng: random.Random) -> set[tuple[int, int]]:
    """One undirected layer; exactly m*(n-m) edges."""
    edges: set[tuple[int, int]] = set()
    adj: dict[int, list[int]] = {u: [] for u in range(n)}
    repeated = list(range(m))  # PA pool; seed nodes once each

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
    assert len(edges) == m * (n - m)
    return edges


def generate(cfg: SynthConfig) -> MultiplexGraph:
    """Deterministic multiplex graph for a given seed."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    alphabet = _label_alphabet(cfg.n_labels)
    attrs = {u: alphabet[rng.randrange(cfg.n_labels)] for u in range(cfg.n)}
    m = cfg.m
    triples = set()
    for layer in range(cfg.layers):
        for u, v in _powerlaw_cluster_layer(cfg.n, m, cfg.p_triangle, rng):
            triples.add((u, v, layer))
    return MultiplexGraph(
        nodes=range(cfg.n),
        edges=triples,
        attrs=attrs,
        directed=False,
        layers=range(cfg.layers),
        layer_names={l: f"L{l}" for l in range(cfg.layers)},
    )

"""Independent brute-force oracles.

Everything here is deliberately naive pure Python: permutation-based
matching, exhaustive edge-subset enumeration, pairwise AUC, full 2^k
bipartition scans. None of it shares code paths with the production
engine, so agreement is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from plexmine.graph import MultiplexGraph
from plexmine.pattern import Pattern, PatternEdge


# -- matching ---------------------------------------------------------------


def brute_embeddings(p: Pattern, g: MultiplexGraph) -> list[tuple[int, ...]]:
    """All injective label/layer/direction preserving maps, by backtracking."""
    nodes = sorted(g.nodes)

    def edge_ok(e: PatternEdge, u: int, v: int) -> bool:
        # u, v are images of e.i, e.j
        if g.directed:
            a, b = (u, v) if e.dirbit else (v, u)
            return (a, b, e.layer) in g.edges
        return (min(u, v), max(u, v), e.layer) in g.edges

    out: list[tuple[int, ...]] = []

    def extend(assign: list[int]):
        i = len(assign)
        if i == p.k:
            out.append(tuple(assign))
            return
        for cand in nodes:
            if cand in assign:
                continue
            if g.attrs[cand] != p.node_labels[i]:
                continue
            ok = True
            for e in p.edges:
                if e.j == i and e.i < i:
                    if not edge_ok(e, assign[e.i], cand):
                        ok = False
                        break
                elif e.i == i and e.j < i:
                    if not edge_ok(e, cand, assign[e.j]):
                        ok = False
                        break
            if ok:
                extend(assign + [cand])

    extend([])
    return sorted(out)


def brute_mis(p: Pattern, g: MultiplexGraph) -> int:
    embs = brute_embeddings(p, g)
    if not embs:
        return 0
    return min(len({e[i] for e in embs}) for i in range(p.k))


# -- exhaustive pattern enumeration ------------------------------------------


def brute_canonical_key(p: Pattern):
    """Isomorphism key: minimum over all k! relabelings. Independent of the
    production spanning-tree codes."""
    best = None
    for perm in itertools.permutations(range(p.k)):
        labels = tuple(p.node_labels[perm.index(i)] for i in range(p.k))
        edges = []
        for e in p.edges:
            a, b = perm[e.i], perm[e.j]
            if p.directed:
                src, dst = (a, b) if e.dirbit else (b, a)
                lo, hi = min(a, b), max(a, b)
                edges.append((lo, hi, e.layer, 1 if src == lo else 0))
            else:
                edges.append((min(a, b), max(a, b), e.layer, 0))
        cand = (labels, tuple(sorted(edges)))
        if best is None or cand < best:
            best = cand
    return best


def _connected_edge_cover(node_set: tuple[int, ...], edges: list) -> bool:
    """Do the edges span and connect exactly this node set?"""
    touched = {n for e in edges for n in (e[0], e[1])}
    if touched != set(node_set):
        return False
    parent = {n: n for n in node_set}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in edges:
        parent[find(u)] = find(v)
    return len({find(n) for n in node_set}) == 1


def enumerate_occurring_patterns(g: MultiplexGraph, max_nodes: int) -> dict:
    """All connected patterns occurring in g with <= max_nodes nodes.

    Returns {brute canonical key: representative Pattern}. Single-node
    patterns are included (one per label present).
    """
    found: dict = {}
    for lab in sorted(set(g.attrs.values())):
        p = Pattern(g.directed, (lab,), ())
        found.setdefault(brute_canonical_key(p), p)
    nodes = sorted(g.nodes)
    for size in range(2, max_nodes + 1):
        for subset in itertools.combinations(nodes, size):
            inner = [e for e in g.edges if e[0] in subset and e[1] in subset]
            for r in range(1, len(inner) + 1):
                for chosen in itertools.combinations(inner, r):
                    chosen = list(chosen)
                    if not _connected_edge_cover(subset, chosen):
                        continue
                    remap = {n: i for i, n in enumerate(subset)}
                    labels = tuple(g.attrs[n] for n in subset)
                    pedges = []
                    for u, v, l in chosen:
                        a, b = remap[u], remap[v]
                        if a < b:
                            pedges.append(PatternEdge(a, b, l, True if g.directed else False))
                        else:
                            pedges.append(PatternEdge(b, a, l, False))
                    p = Pattern(g.directed, labels, tuple(pedges))
                    found.setdefault(brute_canonical_key(p), p)
    return found


def brute_mine(g: MultiplexGraph, sigma: int, max_nodes: int) -> dict:
    """{brute canonical key: support} for all frequent patterns."""
    out = {}
    for key, p in enumerate_occurring_patterns(g, max_nodes).items():
        supp = brute_mis(p, g)
        if supp >= sigma:
            out[key] = supp
    return out


# -- rule scoring -------------------------------------------------------------


def brute_apply_rules(g: MultiplexGraph, rules, dedupe_rule_firings: bool = False):
    """Reference scorer: re-enumerates antecedent embeddings per rule."""
    oldold: dict = {}
    oldnew: dict = {}
    for rule in rules.sorted_rules():
        ant = rule.antecedent
        delta = rule.delta
        needed_labels = set(ant.node_labels)
        if delta.new_label is not None:
            needed_labels.add(delta.new_label)
        if not (set(ant.layers) | {delta.layer}) <= g.layers:
            continue
        if not needed_labels <= set(g.attrs.values()):
            continue
        firings = set()
        for emb in brute_embeddings(ant, g):
            if delta.introduces_new_node:
                key = (emb[delta.i], delta.layer)
                firings.add((frozenset(emb), ("on", key)))
            else:
                u, v = emb[delta.i], emb[delta.j]
                if g.directed:
                    t, h = (u, v) if delta.forward else (v, u)
                else:
                    t, h = min(u, v), max(u, v)
                if (t, h, delta.layer) in g.edges:
                    continue
                firings.add((frozenset(emb), ("oo", (t, h, delta.layer))))
        per_key: dict = {}
        for _, tagged in firings:
            per_key[tagged] = per_key.get(tagged, 0) + 1
        for (kind, key), count in per_key.items():
            amount = rule.confidence * (1 if dedupe_rule_firings else count)
            target = oldnew if kind == "on" else oldold
            target[key] = target.get(key, 0.0) + amount
    return oldold, oldnew


# -- AUC ----------------------------------------------------------------------


def brute_auc(scores, labels) -> float:
    """O(P*N) pairwise Mann-Whitney with the 1/2-tie convention."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


# -- candidate universe -----------------------------------------------------------


def brute_universe(split, universe: str = "full", n_neg=None, seed: int = 0):
    """The candidate universe as tuple lists, enumerated triple by triple.

    Returns ``(oldold, oldnew, oldold_pos, oldnew_pos)``: (u, v, l) and
    (u, l) candidates in (layer, u, v) order and their positive flags. The
    sampled universe tags negatives by segment and samples the tagged list.
    """
    g = split.train
    nodes = sorted(g.nodes)
    layers = sorted(g.layers)
    oo_pos_set = {
        e for e in split.test_edges if e[0] in g.nodes and e[1] in g.nodes
    }
    new_nodes = split.new_nodes
    on_pos_set = set()
    for u, v, l in split.test_edges:
        if u in g.nodes and v in new_nodes:
            on_pos_set.add((u, l))
        if v in g.nodes and u in new_nodes:
            on_pos_set.add((v, l))
    oldold = []
    for l in layers:
        for i, u in enumerate(nodes):
            vs = nodes if g.directed else nodes[i + 1:]
            for v in vs:
                if u == v:
                    continue
                if (u, v, l) in g.edges:
                    continue
                oldold.append((u, v, l))
    oldnew = [(u, l) for l in layers for u in nodes]
    oo_pos = [c in oo_pos_set for c in oldold]
    on_pos = [c in on_pos_set for c in oldnew]
    if universe == "full":
        return oldold, oldnew, oo_pos, on_pos
    rng = random.Random(seed)
    neg_idx = [("oo", i) for i in range(len(oldold)) if not oo_pos[i]]
    neg_idx += [("on", i) for i in range(len(oldnew)) if not on_pos[i]]
    if n_neg < len(neg_idx):
        neg_idx = rng.sample(neg_idx, n_neg)
    keep_oo = {i for kind, i in neg_idx if kind == "oo"}
    keep_oo |= {i for i in range(len(oldold)) if oo_pos[i]}
    keep_on = {i for kind, i in neg_idx if kind == "on"}
    keep_on |= {i for i in range(len(oldnew)) if on_pos[i]}
    oo_keep = sorted(keep_oo)
    on_keep = sorted(keep_on)
    return ([oldold[i] for i in oo_keep], [oldnew[i] for i in on_keep],
            [oo_pos[i] for i in oo_keep], [on_pos[i] for i in on_keep])


# -- frustration ----------------------------------------------------------------


def brute_frustration_count(k: int, signed_edges) -> int:
    """Minimum frustrated edges over all 2^k side assignments."""
    best = None
    for assignment in itertools.product((0, 1), repeat=k):
        count = 0
        for i, j, sign in signed_edges:
            same = assignment[i] == assignment[j]
            if (sign < 0) == same:
                count += 1
        if best is None or count < best:
            best = count
    return best


def brute_frustration_index(k: int, signed_edges) -> Fraction:
    return Fraction(brute_frustration_count(k, signed_edges), len(signed_edges))


# -- random instances -----------------------------------------------------------


def random_multiplex(rng: random.Random, max_nodes=8, max_layers=3, max_labels=3,
                     n_edges=None, directed=None) -> MultiplexGraph:
    n = rng.randint(3, max_nodes)
    n_layers = rng.randint(1, max_layers)
    n_labels = rng.randint(1, max_labels)
    if directed is None:
        directed = rng.random() < 0.5
    labels = [chr(ord("a") + i) for i in range(n_labels)]
    attrs = {u: rng.choice(labels) for u in range(n)}
    if n_edges is None:
        n_edges = rng.randint(max(2, n - 2), min(2 * n, 12))
    edges = set()
    guard = 0
    while len(edges) < n_edges and guard < 200:
        guard += 1
        u, v = rng.sample(range(n), 2)
        l = rng.randrange(n_layers)
        if not directed and u > v:
            u, v = v, u
        edges.add((u, v, l))
    return MultiplexGraph(range(n), edges, attrs=attrs, directed=directed,
                          layers=range(n_layers))


def random_connected_pattern(rng: random.Random, max_nodes=4, n_layers=2,
                             labels="ab", directed=False) -> Pattern:
    k = rng.randint(1, max_nodes)
    node_labels = tuple(rng.choice(labels) for _ in range(k))
    edges = []
    used = set()
    for j in range(1, k):
        i = rng.randrange(j)
        l = rng.randrange(n_layers)
        d = rng.random() < 0.5 if directed else False
        edges.append(PatternEdge(i, j, l, d))
        used.add((i, j, l, d))
    for _ in range(rng.randint(0, 3)):
        if k < 2:
            break
        i, j = sorted(rng.sample(range(k), 2))
        l = rng.randrange(n_layers)
        d = rng.random() < 0.5 if directed else False
        if (i, j, l, d) in used:
            continue
        used.add((i, j, l, d))
        edges.append(PatternEdge(i, j, l, d))
    return Pattern(directed, node_labels, tuple(edges))

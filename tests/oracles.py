"""Independent brute-force oracles.

Everything here is deliberately naive pure Python: permutation-based
matching, exhaustive edge-subset enumeration, pairwise AUC, full 2^k
bipartition scans. None of it shares code paths with the production
engine, so agreement is evidence, not tautology. There are two
exceptions. ``full_vector_hill_climb`` scores with the engine's
``rank_auc`` over every candidate; that AUC is itself checked against
``brute_auc``. ``enumerate_embeddings`` lists the rows of the engine's
``match_array``; those are checked against ``brute_embeddings``.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from plexmine.evaluate import EvalError, rank_auc
from plexmine.graph import MultiplexGraph
from plexmine.matcher import MatchError, match_array
from plexmine.pattern import Pattern, PatternEdge
from plexmine.predict import ScoreTable


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


Embedding = tuple[int, ...]


def enumerate_embeddings(p: Pattern, g: MultiplexGraph) -> list[Embedding]:
    """The rows of ``match_array(p, g)`` as node tuples."""
    return [tuple(int(x) for x in row) for row in match_array(p, g)]


def image_table(embs: list[Embedding], k: int) -> list[set[int]]:
    """Per pattern-node sets of distinct graph nodes playing that role."""
    table: list[set[int]] = [set() for _ in range(k)]
    for emb in embs:
        if len(emb) != k:
            raise MatchError(f"embedding arity {len(emb)} != {k}")
        for pos, node in enumerate(emb):
            table[pos].add(node)
    return table


def mis_support(embs: list[Embedding], k: int) -> int:
    """Minimum image support: min over roles of distinct node images."""
    if not embs:
        return 0
    return min(len(s) for s in image_table(embs, k))


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
            if delta.j is None:
                key = (emb[delta.i], delta.layer)
                firings.add((frozenset(emb), ("on", key)))
            else:
                u, v = emb[delta.i], emb[delta.j]
                if g.directed:
                    t, h = (u, v) if delta.dirbit else (v, u)
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


def full_vector_hill_climb(Z: np.ndarray, labels: np.ndarray, seed: int, restarts: int):
    """The ensemble weight climb with every AUC taken over all rows of
    ``Z``: random-restart coordinate ascent, weights kept unit-norm."""
    m = Z.shape[1]
    nprng = np.random.default_rng(seed)

    def auc_of(w: np.ndarray) -> float:
        return rank_auc(Z @ w, labels)

    starts = [np.ones(m)]
    for _ in range(max(0, restarts - 1)):
        v = nprng.normal(size=m)
        while np.linalg.norm(v) == 0.0:
            v = nprng.normal(size=m)
        starts.append(v)
    best_w, best_auc = None, -1.0
    for w0 in starts:
        w = w0 / np.linalg.norm(w0)
        cur = auc_of(w)
        step = 0.5
        while step > 1e-3:
            improved = False
            for c in range(m):
                for sign in (1.0, -1.0):
                    w2 = w.copy()
                    w2[c] += sign * step
                    nrm = np.linalg.norm(w2)
                    if nrm == 0.0:
                        continue
                    w2 /= nrm
                    a2 = auc_of(w2)
                    if a2 > cur + 1e-12:
                        w, cur = w2, a2
                        improved = True
            if not improved:
                step /= 2.0
        if cur > best_auc:
            best_w, best_auc = w, cur
    return best_w, best_auc


# -- candidate universe -----------------------------------------------------------


def brute_universe(split, n_neg=None, seed: int = 0):
    """The candidate universe as tuple lists, enumerated triple by triple.

    Returns ``(oldold, oldnew, oldold_pos, oldnew_pos)``: (u, v, l) and
    (u, l) candidates in (layer, u, v) order and their positive flags. The
    full universe for ``n_neg=None``; the sampled one tags negatives by
    segment and samples ``n_neg`` of the tagged list.
    """
    g = split.train
    nodes = sorted(g.nodes)
    layers = sorted(g.layers)
    oo_pos_set = {
        e for e in split.test_edges if e[0] in g.nodes and e[1] in g.nodes
    }
    on_pos_set = set()
    for u, v, l in split.test_edges:
        if u in g.nodes and v not in g.nodes:
            on_pos_set.add((u, l))
        if v in g.nodes and u not in g.nodes:
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
    if n_neg is None:
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


# -- baseline scorers ------------------------------------------------------------
# Earlier set-based versions of ``plexmine.evaluate.sharma_score`` and
# ``classic_score``, kept as they were and renamed; the engine's scorers must
# agree with them bit for bit. Only ``sharma_score`` has been replaced by an
# array version. ``classic_score`` is still set-based and differs from its
# old form only in how it writes each orientation of a pair.


def set_sharma_score(train: MultiplexGraph) -> ScoreTable:
    """Layer-coexistence predictor.

    p(l2, l1) is the fraction of node pairs connected in l2 that are also
    connected in l1; a candidate (u, v, l1) scores the sum of p(l2, l1)
    over the layers l2 that already connect u and v. Pairs disconnected in
    every layer score zero, and no old-new predictions are produced.
    """
    layers = sorted(train.layers)
    if len(layers) < 2:
        raise EvalError("layer-coexistence scoring needs >= 2 layers")
    pairs: dict[int, set[tuple[int, int]]] = {l: set() for l in layers}
    for u, v, l in train.edges:
        pairs[l].add((u, v))
    p: dict[tuple[int, int], float] = {}
    for l2 in layers:
        for l1 in layers:
            if not pairs[l2]:
                p[(l2, l1)] = 0.0
            else:
                p[(l2, l1)] = len(pairs[l2] & pairs[l1]) / len(pairs[l2])
    table = ScoreTable(directed=train.directed)
    connected_somewhere = set().union(*pairs.values()) if layers else set()
    for u, v in sorted(connected_somewhere):
        present = [l2 for l2 in layers if (u, v) in pairs[l2]]
        for l1 in layers:
            if (u, v, l1) in train.edges:
                continue
            s = sum(p[(l2, l1)] for l2 in present)
            if s > 0.0:
                table.oldold[(u, v, l1)] = s
    return table


def set_classic_score(train_mono: MultiplexGraph, method: str) -> ScoreTable:
    """Single-layer scores (ra/ja/pa/aa) over undirected neighborhoods."""
    method = method.lower()
    if method not in ("ra", "ja", "pa", "aa"):
        raise EvalError(f"unknown classic method {method!r}")
    if len(train_mono.layers) != 1:
        raise EvalError("classic scores need a single-layer graph")
    (layer,) = train_mono.layers
    nbrs: dict[int, set[int]] = {n: set() for n in train_mono.nodes}
    for u, v, _ in train_mono.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    nodes = sorted(train_mono.nodes)
    table = ScoreTable(directed=train_mono.directed)

    def put(u, v, s):
        if s <= 0.0:
            return
        if train_mono.directed:
            table.oldold[(u, v, layer)] = s
            table.oldold[(v, u, layer)] = s
        else:
            table.oldold[(u, v, layer)] = s

    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if v in nbrs[u] and not train_mono.directed:
                continue
            if train_mono.directed and (u, v, layer) in train_mono.edges \
                    and (v, u, layer) in train_mono.edges:
                continue
            common = nbrs[u] & nbrs[v]
            if method == "pa":
                s = len(nbrs[u]) * len(nbrs[v])
            elif method == "ja":
                union = nbrs[u] | nbrs[v]
                s = len(common) / len(union) if union else 0.0
            elif method == "ra":
                s = sum(1.0 / len(nbrs[z]) for z in common)
            else:  # aa
                s = 0.0
                for z in common:
                    deg = len(nbrs[z])
                    assert deg >= 2, "a common neighbor always has degree >= 2"
                    s += 1.0 / math.log(deg)
            put(u, v, s)
    if train_mono.directed:
        # drop entries for triples that exist in the training graph
        for e in train_mono.edges:
            table.oldold.pop(e, None)
    return table


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

"""Train/test splitting, ROC/AUC, baseline scorers, and the ensemble.

The candidate universe of a split contains every unobserved (u, v, l)
between training nodes plus one old-new pseudo-candidate (u, NEW, l) per
training node and layer. Old-old candidates are positive when the triple
shows up in the test set; (u, NEW, l) is positive when any test edge in l
joins u to a node outside the training node set.

Each candidate is one int64 key ``(l * (W + 1) + u) * (W + 1) + v``, where
W is the training graph's index width (largest node id + 1) and ``v == W``
stands for NEW. A universe stores its old-old keys, then its old-new keys,
each block ascending, so score tables are placed onto it by binary search.

Unscored candidates get a method's baseline score. AUC is the exact
Mann-Whitney statistic U / (P*N) computed from integer counts per group of
tied scores, ties counting 1/2, so a mass of equally (un)scored candidates
produces the straight diagonal ROC tail of a random guesser.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .graph import MultiplexGraph, TemporalMultiplexGraph
from .predict import LinkClass, ScoreTable

OLD_OLD = LinkClass.OLD_OLD
OLD_NEW = LinkClass.OLD_NEW


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Split:
    train: MultiplexGraph
    test_edges: frozenset[tuple[int, int, int]]
    mode: str

    def __post_init__(self):
        overlap = self.test_edges & self.train.edges
        if overlap:
            raise EvalError(f"{len(overlap)} test edges overlap the training set")

    @property
    def train_nodes(self) -> frozenset[int]:
        return self.train.nodes

    @property
    def new_nodes(self) -> frozenset[int]:
        ends = {n for u, v, _ in self.test_edges for n in (u, v)}
        return frozenset(ends - self.train.nodes)


def _graph_from_edges(g: MultiplexGraph, edges: set[tuple[int, int, int]]) -> MultiplexGraph:
    nodes = {n for u, v, _ in edges for n in (u, v)}
    return MultiplexGraph(
        nodes,
        edges,
        attrs={n: g.attrs[n] for n in nodes},
        directed=g.directed,
        layers=g.layers,
        layer_names=g.layer_names,
        node_names={n: g.node_names[n] for n in nodes},
    )


def kfold_split(g: MultiplexGraph, k: int, seed: int = 0) -> list[Split]:
    """Partition edges into k near-equal test folds (seeded shuffle).

    Training node sets are the endpoints of training edges, so a test
    fold may contain nodes missing from its training fold.
    """
    if k < 2:
        raise EvalError(f"k must be >= 2, got {k}")
    if k > g.n_edges:
        raise EvalError(f"k={k} exceeds |E|={g.n_edges}")
    edges = sorted(g.edges)
    random.Random(seed).shuffle(edges)
    splits = []
    base, extra = divmod(len(edges), k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        test = set(edges[start:start + size])
        start += size
        train = _graph_from_edges(g, set(g.edges) - test)
        splits.append(Split(train=train, test_edges=frozenset(test),
                            mode=f"kfold(k={k},fold={fold},seed={seed})"))
    return splits


def temporal_split(tg: TemporalMultiplexGraph, t: int, delta: int) -> Split:
    """Train on edges up to t; test on edges in (t, t + delta]."""
    lo, hi = tg.time_range
    if not lo <= t <= hi:
        raise EvalError(f"t={t} outside timestamp range [{lo},{hi}]")
    train_edges = {e for e, ts in tg.edge_times.items() if ts <= t}
    test_edges = {e for e, ts in tg.edge_times.items() if t < ts <= t + delta}
    if not train_edges or not test_edges:
        raise EvalError(
            f"empty split: {len(train_edges)} train / {len(test_edges)} test edges"
        )
    g = tg.base
    nodes = {n for u, v, _ in train_edges for n in (u, v)}
    nodes |= {n for n, ts in tg.node_times.items() if ts <= t}
    train = MultiplexGraph(
        nodes,
        train_edges,
        attrs={n: g.attrs[n] for n in nodes},
        directed=g.directed,
        layers=g.layers,
        layer_names=g.layer_names,
        node_names={n: g.node_names[n] for n in nodes},
    )
    return Split(train=train, test_edges=frozenset(test_edges),
                 mode=f"temporal(t={t},delta={delta})")


# -- candidate universe -------------------------------------------------------


@dataclass
class Universe:
    """A split's candidates as int64 keys (see the module docstring).

    ``keys`` holds the ``n_oldold`` old-old candidates first, then the
    old-new ones; each block is ascending, which is (layer, u, v) order.
    ``labels`` marks the positives.
    """

    width: int
    keys: np.ndarray  # int64
    labels: np.ndarray  # bool
    n_oldold: int

    @property
    def n_candidates(self) -> int:
        return len(self.keys)

    def positives(self) -> int:
        return int(self.labels.sum())


def encode_keys(width: int, l, u, v) -> np.ndarray:
    """Candidate keys of (layer, u, v); ``v == width`` stands for NEW."""
    base = width + 1
    return (np.asarray(l, dtype=np.int64) * base + u) * base + v


def decode_keys(keys: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of ``encode_keys``: (layer, u, v) arrays."""
    lu, v = np.divmod(keys, width + 1)
    l, u = np.divmod(lu, width + 1)
    return l, u, v


def candidate_universe(
    split: Split, universe: str = "full", n_neg: int | None = None, seed: int = 0
) -> Universe:
    """Enumerate (and optionally negative-sample) the candidate set.

    The sampled universe keeps every positive and ``n_neg`` negatives drawn
    by position among all negatives, old-old before old-new.
    """
    if universe not in ("full", "sampled"):
        raise EvalError(f"unknown universe mode {universe!r}")
    if universe == "sampled" and (not n_neg or n_neg < 1):
        raise EvalError("sampled universe needs n_neg >= 1")
    g = split.train
    idx = g.index()
    width = idx.width
    nodes = idx.node_arr
    layers = sorted(g.layers)
    if g.directed:
        iu, iv = np.nonzero(~np.eye(len(nodes), dtype=bool))
    else:
        iu, iv = np.triu_indices(len(nodes), 1)
    us, vs = nodes[iu], nodes[iv]
    oldold = np.concatenate(
        [encode_keys(width, l, us, vs)[~idx.has_pairs(us, vs, l)] for l in layers]
    )
    oldnew = encode_keys(width, np.array(layers)[:, None], nodes, width).ravel()

    test = np.array(list(split.test_edges), dtype=np.int64).reshape(-1, 3)
    tu, tv, tl = test.T
    u_old, v_old = np.isin(tu, nodes), np.isin(tv, nodes)
    oo_pos = encode_keys(width, tl, tu, tv)[u_old & v_old]
    on_pos = np.concatenate([encode_keys(width, tl, tu, width)[u_old & ~v_old],
                             encode_keys(width, tl, tv, width)[v_old & ~u_old]])
    keys = np.concatenate([oldold, oldnew])
    labels = np.concatenate([np.isin(oldold, oo_pos), np.isin(oldnew, on_pos)])
    uni = Universe(width, keys, labels, len(oldold))
    neg = np.flatnonzero(~labels)
    if universe == "full" or n_neg >= len(neg):
        return uni
    picked = neg[random.Random(seed).sample(range(len(neg)), n_neg)]
    keep = np.sort(np.concatenate([np.flatnonzero(labels), picked]))
    return Universe(width, keys[keep], labels[keep], int(np.searchsorted(keep, len(oldold))))


def _entry_keys(entries: dict, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys and scores of a non-empty ``ScoreTable.oldold`` or ``.oldnew``.

    Entries with a node outside [0, width) or a negative layer are dropped
    first: no universe holds them, and their keys could alias a candidate.
    """
    k = np.array(list(entries), dtype=np.int64).reshape(len(entries), -1)
    scores = np.fromiter(entries.values(), dtype=float, count=len(entries))
    nodes = k[:, :-1]
    ok = np.all((nodes >= 0) & (nodes < width), axis=1) & (k[:, -1] >= 0)
    k = k[ok]
    v = k[:, 1] if k.shape[1] == 3 else width
    return encode_keys(width, k[:, -1], k[:, 0], v), scores[ok]


def universe_scores(uni: Universe, table: ScoreTable) -> np.ndarray:
    """Score vector over ``uni.keys``; candidates absent from the table get
    its baseline, and table entries outside the universe are ignored."""
    vec = np.full(uni.n_candidates, table.baseline, dtype=float)
    n_oo = uni.n_oldold
    for offset, block, entries in ((0, uni.keys[:n_oo], table.oldold),
                                   (n_oo, uni.keys[n_oo:], table.oldnew)):
        if not entries or not len(block):
            continue
        keys, scores = _entry_keys(entries, uni.width)
        pos = np.minimum(np.searchsorted(block, keys), len(block) - 1)
        hit = block[pos] == keys
        vec[offset + pos[hit]] = scores[hit]
    return vec


# -- ROC / AUC ----------------------------------------------------------------


@dataclass
class EvalReport:
    auc: float
    roc_points: list[tuple[float, float]]
    segment_aucs: dict[LinkClass, float | None]
    segment_counts: dict[LinkClass, dict[str, int]]
    timings: dict[str, float] = field(default_factory=dict)

    def to_tsv(self) -> str:
        lines = [f"auc\t{self.auc:.6f}"]
        for seg in (OLD_OLD, OLD_NEW):
            a = self.segment_aucs.get(seg)
            c = self.segment_counts.get(seg, {})
            lines.append(
                f"auc_{seg.value}\t{'' if a is None else f'{a:.6f}'}\t"
                f"candidates={c.get('candidates', 0)}\t"
                f"positives={c.get('positives', 0)}\t"
                f"scored={c.get('scored', 0)}"
            )
        for phase, secs in self.timings.items():
            lines.append(f"time_{phase}\t{secs:.6f}")
        lines.append("# roc: fpr\ttpr")
        for x, y in self.roc_points:
            lines.append(f"{x:.6f}\t{y:.6f}")
        return "\n".join(lines) + "\n"


def _tie_groups(scores: np.ndarray, labels: np.ndarray):
    """Cumulative true and false positives at the end of each group of tied
    scores, walking from the highest score down; also P and N."""
    labels = labels.astype(bool)
    pos = int(labels.sum())
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise EvalError(f"need both positives and negatives (P={pos}, N={neg})")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), len(s) - 1)
    tp = np.cumsum(labels[order])[ends]
    return tp, ends + 1 - tp, pos, neg


def _mann_whitney(tp: np.ndarray, fp: np.ndarray, pos: int, neg: int) -> float:
    """U / (P*N) from integer counts.

    The positives of a tied group beat every negative of the lower groups
    and tie, at 1/2, with the negatives of their own group, so 2U is an
    integer and the one rounding is the final division.
    """
    d_tp = np.diff(tp, prepend=0)
    d_fp = np.diff(fp, prepend=0)
    twice_u = int(d_tp @ (2 * (neg - fp) + d_fp))
    return twice_u / (2 * pos * neg)


def auc_and_roc(scores: np.ndarray, labels: np.ndarray) -> tuple[float, list[tuple[float, float]]]:
    """Exact Mann-Whitney AUC (ties count 1/2) and the grouped-threshold ROC.

    Candidates sharing a score move together, so a tied group is one
    diagonal segment of the ROC curve; the trapezoid area under the points
    equals the AUC up to float rounding.
    """
    tp, fp, pos, neg = _tie_groups(scores, labels)
    points = [(0.0, 0.0), *zip((fp / neg).tolist(), (tp / pos).tolist())]
    return _mann_whitney(tp, fp, pos, neg), points


def roc_auc(
    scores: ScoreTable,
    split: Split,
    universe: str = "full",
    n_neg: int | None = None,
    seed: int = 0,
    uni: Universe | None = None,
) -> EvalReport:
    """Evaluate a score table against a split's candidate universe."""
    if uni is None:
        uni = candidate_universe(split, universe, n_neg, seed)
    vec = universe_scores(uni, scores)
    labels = uni.labels
    auc, points = auc_and_roc(vec, labels)
    n_oo = uni.n_oldold
    seg_aucs: dict[LinkClass, float | None] = {}
    seg_counts: dict[LinkClass, dict[str, int]] = {}
    for seg, sl in ((OLD_OLD, slice(0, n_oo)), (OLD_NEW, slice(n_oo, None))):
        seg_scores = vec[sl]
        seg_labels = labels[sl]
        scored = int(np.sum(seg_scores != scores.baseline))
        seg_counts[seg] = {
            "candidates": len(seg_scores),
            "positives": int(seg_labels.sum()),
            "scored": scored,
        }
        try:
            seg_aucs[seg], _ = auc_and_roc(seg_scores, seg_labels)
        except EvalError:
            seg_aucs[seg] = None
    return EvalReport(auc=auc, roc_points=points, segment_aucs=seg_aucs,
                      segment_counts=seg_counts)


# -- baselines ----------------------------------------------------------------


def sharma_score(train: MultiplexGraph) -> ScoreTable:
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


def classic_score(train_mono: MultiplexGraph, method: str) -> ScoreTable:
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


# -- ensemble -----------------------------------------------------------------

ENSEMBLE_RESTARTS = 50
Scorer = Callable[[MultiplexGraph], ScoreTable]


@dataclass
class EnsembleResult:
    table: ScoreTable
    weights: np.ndarray
    internal_auc: float | None
    universe: Universe  # the split's full universe, for scoring the table


def ensemble(
    tables: Sequence[ScoreTable],
    split: Split,
    optimize: bool = False,
    seed: int = 0,
    scorers: Sequence[Scorer] | None = None,
    internal_fraction: float = 0.1,
    restarts: int = ENSEMBLE_RESTARTS,
) -> EnsembleResult:
    """Combine z-normalized score tables with (optionally tuned) weights.

    Every table is standardized over the full candidate universe (absent
    candidates count as its baseline), then summed with unit-norm weights.
    With ``optimize`` the weights maximize AUC on an internal re-split of
    the training edges, which requires ``scorers``: one callback per table
    to rebuild it on the internal training graph. The held-out test set is
    never touched. The result carries the universe it built, so the caller
    can score the combined table without building it again.
    """
    if len(tables) < 2:
        raise EvalError("ensemble needs at least two score tables")
    uni = candidate_universe(split, "full")
    X = np.column_stack([universe_scores(uni, t) for t in tables])
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    m = len(tables)
    internal_auc = None
    if optimize:
        if scorers is None or len(scorers) != m:
            raise EvalError("optimize=True needs one scorer callback per table")
        w, internal_auc = _optimize_on_internal_split(
            split, scorers, seed, internal_fraction, restarts
        )
    else:
        w = np.ones(m) / math.sqrt(m)
    Z = (X - mu) / sd
    combined = Z @ w
    baselines = np.array([t.baseline for t in tables])
    base_combined = float(((baselines - mu) / sd) @ w)
    changed = np.flatnonzero(combined != base_combined)
    n = int(np.searchsorted(changed, uni.n_oldold))
    l, u, v = (a.tolist() for a in decode_keys(uni.keys[changed], uni.width))
    vals = combined[changed].tolist()
    out = ScoreTable(directed=split.train.directed, baseline=base_combined,
                     oldold=dict(zip(zip(u[:n], v[:n], l[:n]), vals[:n])),
                     oldnew=dict(zip(zip(u[n:], l[n:]), vals[n:])))
    return EnsembleResult(table=out, weights=w, internal_auc=internal_auc, universe=uni)


def _optimize_on_internal_split(split, scorers, seed, internal_fraction, restarts):
    edges = sorted(split.train.edges)
    rng = random.Random(seed)
    rng.shuffle(edges)
    n_valid = max(1, int(len(edges) * internal_fraction))
    if n_valid >= len(edges):
        raise EvalError("training set too small for an internal split")
    valid = set(edges[:n_valid])
    inner_train = _graph_from_edges(split.train, set(split.train.edges) - valid)
    inner = Split(train=inner_train, test_edges=frozenset(valid), mode="internal")
    inner_uni = candidate_universe(inner, "full")
    labels = inner_uni.labels
    if labels.sum() == 0 or labels.sum() == len(labels):
        raise EvalError("internal split produced no usable positives/negatives")
    cols = []
    for scorer in scorers:
        t = scorer(inner_train)
        cols.append(universe_scores(inner_uni, t))
    Xi = np.column_stack(cols)
    mu = Xi.mean(axis=0)
    sd = np.where(Xi.std(axis=0) == 0.0, 1.0, Xi.std(axis=0))
    Zi = (Xi - mu) / sd
    return _hill_climb_weights(Zi, labels, seed, restarts)


def _hill_climb_weights(Z: np.ndarray, labels: np.ndarray, seed: int, restarts: int):
    """Random-restart coordinate ascent on AUC; weights kept unit-norm."""
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


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """The AUC of ``auc_and_roc`` without the ROC points: the exact
    Mann-Whitney U / (P*N) over tied-score groups, ties counting 1/2."""
    return _mann_whitney(*_tie_groups(scores, labels))

"""Train/test splitting, ROC/AUC, baseline scorers, and the ensemble.

The candidate universe of a split contains every unobserved (u, v, l)
between training nodes plus one old-new pseudo-candidate (u, NEW, l) per
training node and layer. Old-old candidates are positive when the triple
shows up in the test set; (u, NEW, l) is positive when any test edge in l
joins u to a node outside the training node set.

Candidates are the int64 keys of ``predict`` (``encode_keys``). A universe
stores its old-old keys, then its old-new keys, each block ascending, so
score tables are placed onto it by binary search.

Unscored candidates get a method's baseline score. AUC is the exact
Mann-Whitney statistic U / (P*N) computed from integer counts per group of
tied scores, ties counting 1/2, so a mass of equally (un)scored candidates
produces the straight diagonal ROC tail of a random guesser.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import MultiplexGraph, TemporalMultiplexGraph
from .predict import LinkClass, ScoreTable, encode_keys

OLD_OLD = LinkClass.OLD_OLD
OLD_NEW = LinkClass.OLD_NEW


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Split:
    train: MultiplexGraph
    test_edges: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        overlap = self.test_edges & self.train.edges
        if overlap:
            raise EvalError(f"{len(overlap)} test edges overlap the training set")


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
        train = g.subgraph_of_edges(set(g.edges) - test)
        splits.append(Split(train=train, test_edges=frozenset(test)))
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
    return Split(train=train, test_edges=frozenset(test_edges))


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


def candidate_universe(split: Split, n_neg: int | None = None, seed: int = 0) -> Universe:
    """Enumerate (and, given ``n_neg``, negative-sample) the candidate set.

    The sampled universe keeps every positive and ``n_neg`` negatives drawn
    by position among all negatives, old-old before old-new.
    """
    if n_neg is not None and n_neg < 1:
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
    if n_neg is None or n_neg >= len(neg):
        return uni
    picked = neg[random.Random(seed).sample(range(len(neg)), n_neg)]
    keep = np.sort(np.concatenate([np.flatnonzero(labels), picked]))
    return Universe(width, keys[keep], labels[keep], int(np.searchsorted(keep, len(oldold))))


def universe_scores(uni: Universe, table: ScoreTable) -> np.ndarray:
    """Score vector over ``uni.keys``; candidates absent from the table get
    its baseline, and table entries outside the universe are ignored."""
    vec = np.full(uni.n_candidates, table.baseline, dtype=float)
    keys, scores = table.key_arrays(uni.width)
    n_oo = uni.n_oldold
    for offset, block in ((0, uni.keys[:n_oo]), (n_oo, uni.keys[n_oo:])):
        if not len(block):
            continue
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
        lines.append("# roc: fpr\ttpr")
        for x, y in self.roc_points:
            lines.append(f"{x:.6f}\t{y:.6f}")
        return "\n".join(lines) + "\n"


def _tie_groups(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray | None = None):
    """Cumulative true and false positives at the end of each group of tied
    scores, walking from the highest score down; also P and N.

    ``pos`` and ``neg`` count the positives and negatives each score stands
    for; without ``neg``, ``pos`` is one boolean label per score.
    """
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    last = np.empty(len(s), dtype=bool)  # the last score of each tied group
    np.not_equal(s[1:], s[:-1], out=last[:-1])
    last[-1:] = True
    ends = np.flatnonzero(last)
    if neg is None:
        tp = np.cumsum(np.asarray(pos, dtype=bool)[order])[ends]
        fp = ends + 1 - tp
    else:
        tp = np.cumsum(pos[order])[ends]
        fp = np.cumsum(neg[order])[ends]
    n_pos, n_neg = (int(tp[-1]), int(fp[-1])) if len(ends) else (0, 0)
    if n_pos == 0 or n_neg == 0:
        raise EvalError(f"need both positives and negatives (P={n_pos}, N={n_neg})")
    return tp, fp, n_pos, n_neg


def _mann_whitney(tp: np.ndarray, fp: np.ndarray, pos: int, neg: int) -> float:
    """U / (P*N) from integer counts.

    The positives of a tied group g beat every negative of the lower groups
    and tie, at 1/2, with the negatives of their own group, so
    2U = sum_g (tp_g - tp_{g-1}) * (2N - fp_g - fp_{g-1}), with
    tp_{-1} = fp_{-1} = 0, is an integer and the one rounding is the final
    division.
    """
    # 2(PN - U): pairs a negative wins count twice, tied pairs once
    twice_lost = int(tp[0] * fp[0]) + int((tp[1:] - tp[:-1]) @ (fp[1:] + fp[:-1]))
    return (2 * pos * neg - twice_lost) / (2 * pos * neg)


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
    n_neg: int | None = None,
    seed: int = 0,
    uni: Universe | None = None,
) -> EvalReport:
    """Evaluate a score table against a split's candidate universe."""
    if uni is None:
        uni = candidate_universe(split, n_neg, seed)
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
            seg_aucs[seg] = rank_auc(seg_scores, seg_labels)
        except EvalError:
            seg_aucs[seg] = None
    return EvalReport(auc=auc, roc_points=points, segment_aucs=seg_aucs,
                      segment_counts=seg_counts)


# -- baselines ----------------------------------------------------------------


def sharma_score(train: MultiplexGraph) -> ScoreTable:
    """Layer-coexistence predictor.

    p(l2, l1) is the fraction of node pairs connected in l2 that are also
    connected in l1; a candidate (u, v, l1) scores the sum of p(l2, l1)
    over the layers l2 that already connect u and v, added in ascending
    layer order. Pairs disconnected in every layer score zero, and no
    old-new predictions are produced.
    """
    layers = sorted(train.layers)
    if len(layers) < 2:
        raise EvalError("layer-coexistence scoring needs >= 2 layers")
    idx = train.index()
    W = idx.width
    u, v = idx.pairs()
    if not train.directed:  # both orientations are indexed; edges keep u < v
        u, v = u[u < v], v[u < v]
    present = np.column_stack([idx.has_pairs(u, v, l) for l in layers])
    counts = present.T.astype(np.int64) @ present.astype(np.int64)
    p = counts / np.maximum(np.diag(counts), 1)[:, None]  # p[l2, l1]; 0 for an empty l2
    score = np.zeros(present.shape)
    for l2 in range(len(layers)):  # one layer at a time keeps the summation order
        score += present[:, [l2]] * p[l2]
    hit = ~present & (score > 0.0)
    rows, cols = np.nonzero(hit)
    return ScoreTable.from_keys(train.directed, W,
                                encode_keys(W, np.array(layers)[cols], u[rows], v[rows]),
                                score[hit])


def classic_score(train_mono: MultiplexGraph, method: str) -> ScoreTable:
    """Single-layer scores (ra/ja/pa/aa) over undirected neighborhoods,
    written for each orientation of a pair that is not a training edge."""
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
    orientations = 2 if train_mono.directed else 1
    table = ScoreTable(directed=train_mono.directed)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            open_keys = [(a, b, layer) for a, b in ((u, v), (v, u))[:orientations]
                         if (a, b, layer) not in train_mono.edges]
            if not open_keys:
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
            if s > 0.0:
                table.oldold.update(dict.fromkeys(open_keys, s))
    return table


# -- ensemble -----------------------------------------------------------------

ENSEMBLE_RESTARTS = 50
ENSEMBLE_INTERNAL_FRACTION = 0.1  # share of training edges held out to tune weights
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
) -> EnsembleResult:
    """Combine z-normalized score tables with (optionally tuned) weights.

    Every table is standardized over the full candidate universe (absent
    candidates count as its baseline), then summed with unit-norm weights.
    With ``optimize`` the weights maximize AUC on an internal re-split of
    the training edges, which requires ``scorers``: one callback per table
    to rebuild it on the internal training graph, and the weight climb
    takes ``ENSEMBLE_RESTARTS`` starts. The held-out test set is
    never touched. The result carries the universe it built, so the caller
    can score the combined table without building it again.
    """
    if len(tables) < 2:
        raise EvalError("ensemble needs at least two score tables")
    uni = candidate_universe(split)
    Z, mu, sd = _standardized(uni, tables)
    m = len(tables)
    internal_auc = None
    if optimize:
        if scorers is None or len(scorers) != m:
            raise EvalError("optimize=True needs one scorer callback per table")
        w, internal_auc = _optimize_on_internal_split(split, scorers, seed)
    else:
        w = np.ones(m) / math.sqrt(m)
    combined = Z @ w
    baselines = np.array([t.baseline for t in tables])
    base_combined = float(((baselines - mu) / sd) @ w)
    changed = combined != base_combined
    out = ScoreTable.from_keys(split.train.directed, uni.width, uni.keys[changed],
                               combined[changed], baseline=base_combined)
    return EnsembleResult(table=out, weights=w, internal_auc=internal_auc, universe=uni)


def _standardized(uni: Universe, tables: Sequence[ScoreTable]):
    """One column per table of its scores over ``uni``, standardized, with
    the column means and standard deviations (a zero deviation reads 1)."""
    X = np.column_stack([universe_scores(uni, t) for t in tables])
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (X - mu) / sd, mu, sd


def _optimize_on_internal_split(split, scorers, seed):
    edges = sorted(split.train.edges)
    rng = random.Random(seed)
    rng.shuffle(edges)
    n_valid = max(1, int(len(edges) * ENSEMBLE_INTERNAL_FRACTION))
    if n_valid >= len(edges):
        raise EvalError("training set too small for an internal split")
    valid = set(edges[:n_valid])
    inner_train = split.train.subgraph_of_edges(set(split.train.edges) - valid)
    inner = Split(train=inner_train, test_edges=frozenset(valid))
    inner_uni = candidate_universe(inner)
    labels = inner_uni.labels
    if labels.sum() == 0 or labels.sum() == len(labels):
        raise EvalError("internal split produced no usable positives/negatives")
    Zi, _, _ = _standardized(inner_uni, [scorer(inner_train) for scorer in scorers])
    return _hill_climb_weights(Zi, labels, seed, ENSEMBLE_RESTARTS)


def _hill_climb_weights(Z: np.ndarray, labels: np.ndarray, seed: int, restarts: int):
    """Random-restart coordinate ascent on AUC; weights kept unit-norm.

    Every AUC is taken over the distinct rows of ``Z``, each carrying the
    positives and negatives it stands for.
    """
    m = Z.shape[1]
    nprng = np.random.default_rng(seed)
    rows, pos, neg = _distinct_rows(Z, labels)

    def auc_of(w: np.ndarray) -> float:
        return rank_auc(rows @ w, pos, neg)

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


def _distinct_rows(Z: np.ndarray, labels: np.ndarray):
    """The distinct rows of ``Z`` and how many positive and negative
    candidates each stands for.

    Identical rows score identically under any weight vector, so an AUC
    over the rows with these counts equals the AUC over ``Z`` and its
    labels, tie group by tie group. (A lone row may take another BLAS path
    and round differently, but then every candidate ties either way.)
    """
    rows, inv, counts = np.unique(Z, axis=0, return_inverse=True, return_counts=True)
    # the inverse's shape differs across numpy versions
    pos = np.bincount(inv.ravel()[np.asarray(labels, dtype=bool)], minlength=len(rows))
    return rows, pos, counts - pos


def rank_auc(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray | None = None) -> float:
    """The AUC of ``auc_and_roc`` without the ROC points: the exact
    Mann-Whitney U / (P*N) over tied-score groups, ties counting 1/2.

    ``pos`` is one boolean label per score or, given ``neg``, the number of
    positives each score stands for, ``neg`` that of negatives.
    """
    return _mann_whitney(*_tie_groups(scores, pos, neg))

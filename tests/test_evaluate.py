import math
import random

import numpy as np
import pytest

from plexmine.datagen import SynthConfig, generate
from plexmine.evaluate import (
    EvalError,
    Split,
    _distinct_rows,
    _hill_climb_weights,
    _tie_groups,
    auc_and_roc,
    candidate_universe,
    classic_score,
    ensemble,
    kfold_split,
    rank_auc,
    roc_auc,
    sharma_score,
    temporal_split,
    universe_scores,
)
from plexmine.graph import MultiplexGraph, TemporalMultiplexGraph, flatten_monoplex
from plexmine.predict import LinkClass, ScoreTable, decode_keys

from oracles import (
    brute_auc,
    brute_universe,
    full_vector_hill_climb,
    random_multiplex,
    set_classic_score,
    set_sharma_score,
)


def _line_graph(n=10, layers=1):
    edges = [(i, i + 1, l) for l in range(layers) for i in range(n - 1)]
    return MultiplexGraph(range(n), edges, directed=False, layers=range(layers))


# -- splits -------------------------------------------------------------------


def test_kfold_degenerate_folds():
    g = _line_graph(11)  # 10 edges
    folds = kfold_split(g, 10, seed=1)
    assert len(folds) == 10
    assert all(len(s.test_edges) == 1 for s in folds)


def test_kfold_partitions_edges():
    g = random_multiplex(random.Random(4), max_nodes=9, n_edges=12)
    folds = kfold_split(g, 3, seed=7)
    union = set()
    for s in folds:
        assert not (union & s.test_edges)
        union |= s.test_edges
        assert s.test_edges.isdisjoint(s.train.edges)
    assert union == set(g.edges)


def test_kfold_deterministic():
    g = random_multiplex(random.Random(4), max_nodes=9, n_edges=12)
    a = kfold_split(g, 4, seed=9)
    b = kfold_split(g, 4, seed=9)
    assert [s.test_edges for s in a] == [s.test_edges for s in b]
    c = kfold_split(g, 4, seed=10)
    assert [s.test_edges for s in a] != [s.test_edges for s in c]


def test_kfold_bounds():
    g = _line_graph(4)  # 3 edges
    with pytest.raises(EvalError):
        kfold_split(g, 1)
    with pytest.raises(EvalError):
        kfold_split(g, 4)


def test_kfold_can_isolate_nodes():
    # a leaf's only edge may land in the test fold; the node then counts new
    g = _line_graph(5)
    folds = kfold_split(g, 4, seed=0)
    assert any({n for u, v, _ in s.test_edges for n in (u, v)} - s.train.nodes for s in folds)


def _temporal_fixture():
    base = MultiplexGraph(range(5), [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0)],
                          directed=False)
    times = {(0, 1, 0): 1, (1, 2, 0): 2, (2, 3, 0): 3, (3, 4, 0): 5}
    node_times = {}
    for (u, v, _), t in times.items():
        for n in (u, v):
            node_times[n] = min(node_times.get(n, t), t)
    return TemporalMultiplexGraph(base, times, node_times)


def test_temporal_split_boundaries():
    tg = _temporal_fixture()
    split = temporal_split(tg, 2, 3)
    assert split.train.edges == frozenset({(0, 1, 0), (1, 2, 0)})
    # edge exactly at t+delta is included in the test window
    assert split.test_edges == frozenset({(2, 3, 0), (3, 4, 0)})


def test_temporal_empty_test_rejected():
    tg = _temporal_fixture()
    with pytest.raises(EvalError):
        temporal_split(tg, 5, 3)
    with pytest.raises(EvalError):
        temporal_split(tg, 99, 1)


# -- roc/auc -------------------------------------------------------------------


def test_perfect_separation_auc_one():
    scores = np.array([1.0, 1.0, 0.0, 0.0])
    labels = np.array([True, True, False, False])
    auc, points = auc_and_roc(scores, labels)
    assert auc == 1.0
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)


def test_all_tied_auc_half():
    scores = np.zeros(10)
    labels = np.array([True] * 3 + [False] * 7)
    auc, points = auc_and_roc(scores, labels)
    assert auc == 0.5
    assert points == [(0.0, 0.0), (1.0, 1.0)]


def test_auc_matches_pairwise_oracle():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(4, 30)
        scores = np.array([rng.choice((0.0, 0.5, 1.0, rng.random())) for _ in range(n)])
        labels = np.array([rng.random() < 0.4 for _ in range(n)])
        if labels.all() or not labels.any():
            continue
        auc, _ = auc_and_roc(scores, labels)
        assert auc == brute_auc(scores, labels)
        assert rank_auc(scores, labels) == auc
        rows, pos, neg = _distinct_rows(scores[:, None], labels)
        assert rank_auc(rows[:, 0], pos, neg) == auc


def test_auc_invariant_under_increasing_transform():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(5, 40)
        scores = np.array([rng.random() for _ in range(n)])
        labels = np.array([rng.random() < 0.5 for _ in range(n)])
        if labels.all() or not labels.any():
            continue
        base, _ = auc_and_roc(scores, labels)
        for f in (lambda x: 3 * x + 1, np.exp, lambda x: x ** 3 + x):
            transformed, _ = auc_and_roc(f(scores), labels)
            assert transformed == pytest.approx(base, abs=1e-12)


def test_roc_monotone_and_trapezoid_consistency():
    rng = random.Random(5)
    scores = np.array([rng.choice((0.0, 0.3, 0.7)) for _ in range(50)])
    labels = np.array([rng.random() < 0.5 for _ in range(50)])
    auc, points = auc_and_roc(scores, labels)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert xs == sorted(xs) and ys == sorted(ys)
    trap = sum((x1 - x0) * (y1 + y0) / 2
               for (x0, y0), (x1, y1) in zip(points, points[1:]))
    assert trap == pytest.approx(auc, abs=1e-15)


def test_degenerate_universe_rejected():
    with pytest.raises(EvalError):
        auc_and_roc(np.ones(3), np.array([True, True, True]))


# -- candidate universe ---------------------------------------------------------


def _toy_split():
    train = MultiplexGraph([0, 1, 2], [(0, 1, 0), (1, 2, 0)], directed=False,
                           layers=[0])
    test = frozenset({(0, 2, 0), (2, 3, 0)})  # one old-old, one old-new (node 3)
    return Split(train=train, test_edges=test)


def _decoded(uni):
    """(u, v, l) old-old and (u, l) old-new candidates, with their labels."""
    l, u, v = (a.tolist() for a in decode_keys(uni.keys, uni.width))
    n = uni.n_oldold
    assert v[n:] == [uni.width] * (uni.n_candidates - n)  # NEW
    labels = uni.labels.tolist()
    return (list(zip(u[:n], v[:n], l[:n])), list(zip(u[n:], l[n:])),
            labels[:n], labels[n:])


def test_universe_membership_and_positives():
    split = _toy_split()
    oldold, oldnew, oo_pos, on_pos = _decoded(candidate_universe(split))
    assert set(oldold) == {(0, 2, 0)}  # only non-edge between train nodes
    assert oo_pos == [True]
    assert set(oldnew) == {(0, 0), (1, 0), (2, 0)}
    assert dict(zip(oldnew, on_pos)) == {(0, 0): False, (1, 0): False, (2, 0): True}


@pytest.mark.parametrize("directed", [False, True])
def test_universe_and_scores_match_enumeration_oracle(directed):
    rng = random.Random(31 if directed else 30)
    for _ in range(60):
        g = random_multiplex(rng, max_nodes=9, directed=directed)
        k = rng.randint(2, min(4, g.n_edges))
        split = kfold_split(g, k, seed=rng.randrange(100))[rng.randrange(k)]
        n_layers = len(g.layers)
        # entries outside the universe: reversed pairs, training edges,
        # nodes outside the training graph, layers past the last one
        table = ScoreTable(directed=directed, baseline=rng.choice((0.0, -0.5)))
        for _ in range(rng.randint(0, 30)):
            u, v = rng.sample(range(g.n_nodes + 2), 2)
            table.oldold[(u, v, rng.randrange(n_layers + 1))] = rng.random()
        for e in rng.sample(sorted(split.train.edges), min(3, split.train.n_edges)):
            table.oldold[e] = rng.random()
        for _ in range(rng.randint(0, 8)):
            table.oldnew[(rng.randrange(g.n_nodes + 2), rng.randrange(n_layers + 1))] = rng.random()
        full = brute_universe(split)
        n_neg = rng.randint(1, len(full[0]) + len(full[1]) + 2)
        for neg, want in ((None, full), (n_neg, brute_universe(split, n_neg, seed=7))):
            uni = candidate_universe(split, neg, seed=7)
            assert _decoded(uni) == want
            oldold, oldnew = want[0], want[1]
            scores = [table.oldold.get(c, table.baseline) for c in oldold]
            scores += [table.oldnew.get(c, table.baseline) for c in oldnew]
            assert universe_scores(uni, table).tolist() == scores


def test_negative_layers_are_scored():
    # the key is a bijection for any integer layer: only node ids outside
    # [0, W) are dropped from a table
    train = MultiplexGraph([0, 1, 2], [(0, 1, -2), (1, 2, 5)], directed=False,
                           layers=[-2, 5])
    split = Split(train=train, test_edges=frozenset({(0, 2, -2), (2, 3, -2)}))
    table = ScoreTable(directed=False, oldold={(0, 2, -2): 1.0, (0, 3, -2): 0.5},
                       oldnew={(2, -2): 1.0, (3, 5): 0.5})
    uni = candidate_universe(split)
    oldold, oldnew, _, _ = _decoded(uni)
    want = [table.oldold.get(c, 0.0) for c in oldold] + [table.oldnew.get(c, 0.0) for c in oldnew]
    assert universe_scores(uni, table).tolist() == want
    assert roc_auc(table, split).auc == 1.0


def test_unscored_candidates_get_baseline_zero():
    split = _toy_split()
    uni = candidate_universe(split)
    empty = ScoreTable(directed=False)
    assert universe_scores(uni, empty).tolist() == [0.0] * uni.n_candidates


def test_roc_auc_end_to_end_segments():
    split = _toy_split()
    table = ScoreTable(directed=False)
    table.oldold[(0, 2, 0)] = 1.0
    table.oldnew[(2, 0)] = 0.5
    report = roc_auc(table, split)
    assert report.auc == 1.0
    assert report.segment_aucs[LinkClass.OLD_NEW] == 1.0
    # the only old-old candidate is positive: segment AUC undefined
    assert report.segment_aucs[LinkClass.OLD_OLD] is None
    assert report.segment_counts[LinkClass.OLD_NEW]["positives"] == 1


def test_sampled_universe_close_to_full():
    g = generate(SynthConfig(n=60, layers=2, avg_degree=4, n_labels=1, seed=2))
    split = kfold_split(g, 5, seed=3)[0]
    rng = random.Random(0)
    table = ScoreTable(directed=False)
    for e in split.test_edges:  # plant a decent predictor with noise
        if rng.random() < 0.8:
            table.oldold[e] = 1.0 + rng.random()
    for u in sorted(split.train.nodes)[:20]:
        table.oldold[(u, (u + 7) % 60, 0)] = rng.random()
    full = roc_auc(table, split)
    n_pos = candidate_universe(split).positives()
    sampled = roc_auc(table, split, n_neg=10 * n_pos, seed=5)
    assert abs(full.auc - sampled.auc) < 0.02


def test_sampled_universe_needs_a_negative():
    split = _toy_split()
    for n_neg in (0, -3):
        with pytest.raises(EvalError, match="n_neg >= 1"):
            candidate_universe(split, n_neg)


# -- baselines -------------------------------------------------------------------


def test_sharma_zero_for_never_connected():
    g = MultiplexGraph(range(4), [(0, 1, 0), (0, 1, 1), (2, 3, 0)],
                       directed=False, layers=[0, 1])
    table = sharma_score(g)
    assert (0, 2, 0) not in table.oldold  # never connected anywhere
    assert (2, 3, 1) in table.oldold      # connected in layer 0


def test_sharma_coexistence_probability():
    # layers 0 and 1 coincide on every pair: p(0,1) = 1
    pairs = [(0, 1), (1, 2), (2, 3)]
    edges = [(u, v, 0) for u, v in pairs] + [(u, v, 1) for u, v in pairs]
    g = MultiplexGraph(range(4), edges + [(0, 3, 0)], directed=False,
                       layers=[0, 1])
    table = sharma_score(g)
    # (0,3) connected in layer 0 only; p(0->1) = 3/4
    assert table.oldold[(0, 3, 1)] == pytest.approx(3 / 4)


def test_sharma_single_layer_rejected():
    g = _line_graph(5, layers=1)
    with pytest.raises(EvalError):
        sharma_score(g)


def test_sharma_never_scores_oldnew():
    g = MultiplexGraph(range(4), [(0, 1, 0), (0, 1, 1)], directed=False,
                       layers=[0, 1])
    assert sharma_score(g).oldnew == {}


def _classic_fixture():
    edges = [(0, 2, 0), (1, 2, 0), (2, 3, 0), (0, 4, 0), (1, 4, 0)]
    return MultiplexGraph(range(5), edges, directed=False)


def test_classic_formulas():
    g = _classic_fixture()
    nbrs = {0: {2, 4}, 1: {2, 4}, 2: {0, 1, 3}, 3: {2}, 4: {0, 1}}
    ra = classic_score(g, "ra").oldold[(0, 1, 0)]
    assert ra == pytest.approx(1 / 3 + 1 / 2)
    ja = classic_score(g, "ja").oldold[(0, 1, 0)]
    assert ja == pytest.approx(2 / 2)
    pa = classic_score(g, "pa").oldold[(0, 1, 0)]
    assert pa == pytest.approx(len(nbrs[0]) * len(nbrs[1]))
    aa = classic_score(g, "aa").oldold[(0, 1, 0)]
    assert aa == pytest.approx(1 / math.log(3) + 1 / math.log(2))


def test_classic_no_common_neighbors_zero():
    g = MultiplexGraph(range(4), [(0, 1, 0), (2, 3, 0)], directed=False)
    for method in ("ra", "ja", "aa"):
        table = classic_score(g, method)
        assert (0, 2, 0) not in table.oldold


def test_classic_matches_set_oracle():
    rng = random.Random(6)
    for _ in range(10):
        g = random_multiplex(rng, max_nodes=10, max_layers=3, directed=False)
        mono = flatten_monoplex(g)
        nbrs = {n: set() for n in mono.nodes}
        for u, v, _ in mono.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        nodes = sorted(mono.nodes)
        for method in ("ra", "ja", "pa", "aa"):
            table = classic_score(mono, method)
            for i, u in enumerate(nodes):
                for v in nodes[i + 1:]:
                    if v in nbrs[u]:
                        continue
                    common = nbrs[u] & nbrs[v]
                    if method == "ra":
                        want = sum(1 / len(nbrs[z]) for z in common)
                    elif method == "ja":
                        union = nbrs[u] | nbrs[v]
                        want = len(common) / len(union) if union else 0.0
                    elif method == "pa":
                        want = len(nbrs[u]) * len(nbrs[v])
                    else:
                        want = sum(1 / math.log(len(nbrs[z])) for z in common)
                    got = table.oldold.get((u, v, 0), 0.0)
                    assert got == pytest.approx(want, abs=1e-12)


def _random_gapped_multiplex(rng, directed):
    """Node ids with gaps, layer ids that are negative, sparse or gapped,
    and layers that may hold no edge."""
    layers = rng.choice(([0, 1], [-2, 5], [3, 7, 100], [0, 1, 2, 3]))
    n = rng.randint(2, 10)
    nodes = rng.sample(range(3 * n), n)
    used = rng.sample(layers, rng.randint(1, len(layers)))
    edges = [(*rng.sample(nodes, 2), rng.choice(used)) for _ in range(rng.randint(0, 4 * n))]
    return MultiplexGraph(nodes, edges, directed=directed, layers=layers)


def _hexed(table):
    return ({k: (type(s), float(s).hex()) for k, s in table.oldold.items()},
            table.oldnew, table.baseline)


@pytest.mark.parametrize("directed", [False, True])
def test_baseline_scorers_match_set_scorers_bit_for_bit(directed):
    rng = random.Random(43 if directed else 42)
    for _ in range(160):
        g = _random_gapped_multiplex(rng, directed)
        assert _hexed(sharma_score(g)) == _hexed(set_sharma_score(g))
        (layer,) = rng.sample(sorted(g.layers), 1)
        mono = MultiplexGraph(g.nodes, [(u, v, layer) for u, v, _ in g.edges],
                              directed=directed, layers=[layer])
        for method in ("ra", "ja", "pa", "aa"):
            assert _hexed(classic_score(mono, method)) == _hexed(set_classic_score(mono, method))


def test_classic_requires_single_layer():
    g = MultiplexGraph(range(3), [(0, 1, 0), (1, 2, 1)], layers=[0, 1])
    with pytest.raises(EvalError):
        classic_score(g, "ra")


def test_combined_auc_between_segments_on_constructed_instance():
    # equal candidate counts per segment, segment AUCs 1.0 and 0.0: the
    # combined AUC must land between them
    train = MultiplexGraph([0, 1, 2], [(0, 1, 0)], directed=False, layers=[0])
    split = Split(train=train, test_edges=frozenset({(0, 2, 0), (1, 9, 0)}))
    oldold, oldnew, _, _ = _decoded(candidate_universe(split))
    assert len(oldold) == 2 and len(oldnew) == 3
    table = ScoreTable(directed=False)
    table.oldold[(0, 2, 0)] = 10.0   # the old-old positive, ranked top
    table.oldold[(1, 2, 0)] = 5.0
    table.oldnew[(0, 0)] = 4.0       # negatives above the old-new positive
    table.oldnew[(2, 0)] = 4.0
    table.oldnew[(1, 0)] = 2.0       # the positive (node 1 meets node 9)
    report = roc_auc(table, split)
    seg = report.segment_aucs
    assert seg[LinkClass.OLD_OLD] == 1.0
    assert seg[LinkClass.OLD_NEW] == 0.0
    assert seg[LinkClass.OLD_NEW] <= report.auc <= seg[LinkClass.OLD_OLD]


# -- ensemble ---------------------------------------------------------------------


def test_ensemble_needs_two_tables():
    split = _toy_split()
    with pytest.raises(EvalError):
        ensemble([ScoreTable(directed=False)], split)


def test_ensemble_base_preserves_ranking_of_identical_tables():
    split = _toy_split()
    t = ScoreTable(directed=False)
    t.oldold[(0, 2, 0)] = 2.0
    t.oldnew[(1, 0)] = 1.0
    res = ensemble([t, t], split, optimize=False)
    uni = candidate_universe(split)
    combined = universe_scores(uni, res.table)
    single = universe_scores(uni, t)
    assert np.all(np.argsort(combined) == np.argsort(single))
    assert np.linalg.norm(res.weights) == pytest.approx(1.0)


def test_ensemble_optimize_requires_scorers():
    split = _toy_split()
    t = ScoreTable(directed=False)
    with pytest.raises(EvalError):
        ensemble([t, t], split, optimize=True)


def test_ensemble_optimized_recovers_planted_signal():
    g = generate(SynthConfig(n=50, layers=2, avg_degree=4, n_labels=1, seed=8))
    split = kfold_split(g, 5, seed=1)[0]

    def perfect(train):
        t = ScoreTable(directed=False)
        missing = set(g.edges) - set(train.edges)
        for e in missing:
            if e[0] in train.nodes and e[1] in train.nodes:
                t.oldold[e] = 1.0
        return t

    def noise(train):
        rng = random.Random(123)
        t = ScoreTable(directed=False)
        nodes = sorted(train.nodes)
        for _ in range(200):
            u, v = rng.sample(nodes, 2)
            if u > v:
                u, v = v, u
            l = rng.randrange(2)
            if (u, v, l) not in train.edges:
                t.oldold[(u, v, l)] = rng.random()
        return t

    tables = [perfect(split.train), noise(split.train)]
    res = ensemble(tables, split, optimize=True, seed=4,
                   scorers=[perfect, noise], restarts=10)
    assert res.internal_auc is not None
    perfect_only = roc_auc(tables[0], split).auc
    combined = roc_auc(res.table, split).auc
    assert combined >= perfect_only - 0.02


def _duplicated_scores(rng, m, n_distinct, n_extra, p_pos=0.05):
    """Standardized score rows over ``n_distinct`` distinct rows, ``n_extra``
    of them repeated with a heavy skew, and labels with both classes.

    Column 0 is sparse and coarse (most candidates at the baseline 0, the
    rest on a 0.5 grid), as rule scores are, so that distinct rows also tie
    under some weight vectors.
    """
    base = rng.normal(size=(n_distinct, m))
    base[:, 0] = np.where(rng.random(n_distinct) < 0.6, 0.0, np.round(base[:, 0] * 2) / 2)
    ids = np.concatenate([np.arange(n_distinct),
                          np.minimum(rng.zipf(1.3, size=n_extra) - 1, n_distinct - 1)])
    X = base[rng.permutation(ids)]
    sd = X.std(axis=0)
    Z = (X - X.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
    labels = rng.random(len(Z)) < p_pos
    labels[:2] = (True, False)
    return Z, labels


@pytest.mark.parametrize("m", [2, 3, 4])
def test_distinct_row_auc_equals_full_vector_auc(m):
    # 7 sizes x 50 weight vectors per m: 1,050 vectors over the three m
    rng = np.random.default_rng(m)
    for n_distinct in (1, 2, 3, 10, 100, 1000, 12000):
        Z, labels = _duplicated_scores(rng, m, n_distinct, 2 * n_distinct + 5)
        rows, pos, neg = _distinct_rows(Z, labels)
        assert len(rows) == n_distinct
        assert (pos.sum(), neg.sum()) == (labels.sum(), (~labels).sum())
        eye = np.eye(m)
        weights = [np.ones(m) / np.sqrt(m), *eye, *-eye]
        while len(weights) < 50:
            w = rng.normal(size=m)
            weights.append(w / np.linalg.norm(w))
        for w in weights:
            full = rank_auc(Z @ w, labels)
            assert rank_auc(rows @ w, pos, neg) == full
            for a, b in zip(_tie_groups(rows @ w, pos, neg), _tie_groups(Z @ w, labels)):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("m, n_distinct, n_extra, restarts", [
    (2, 1, 40, 5), (2, 300, 1700, 50), (3, 500, 2500, 10), (4, 60, 900, 10),
])
def test_hill_climb_matches_full_vector_climb(m, n_distinct, n_extra, restarts):
    rng = np.random.default_rng(n_distinct)
    Z, labels = _duplicated_scores(rng, m, n_distinct, n_extra, p_pos=0.02)
    # a planted signal in column 1, so that the climb moves
    labels |= (Z[:, 1] > 1.5) & (rng.random(len(Z)) < 0.3)
    w, auc = _hill_climb_weights(Z, labels, 7, restarts)
    w_full, auc_full = full_vector_hill_climb(Z, labels, 7, restarts)
    assert np.array_equal(w, w_full)
    assert auc == auc_full

"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 5 and 6 bind to the public Aarhus/CElegans datasets; when
the files are absent (see data/README.md) those tests SKIP with an
explicit reason and the same protocol runs against deterministic
synthetic stand-ins in the *_standin tests, which are always on.
"""

import random
import time

import numpy as np
import pytest

from plexmine.coupled import from_coupled, to_coupled
from plexmine.datagen import SynthConfig, generate
from plexmine.evaluate import auc_and_roc, rank_auc, roc_auc, sharma_score
from plexmine.graph import MultiplexGraph
from plexmine.io import dataset_paths, load_multiplex
from plexmine.matcher import match_array, mis_support_array
from plexmine.miner import MiningConfig, mine
from plexmine.pattern import Strategy, canonical_code
from plexmine.pipeline import cross_validate, make_rule_scorer, run_mining
from plexmine.predict import LinkClass, apply_rules
from plexmine.rules import RuleBuilder, restrict_rules
from plexmine.signed import SignMap, frustrated_count, frustration

from oracles import (
    brute_apply_rules,
    brute_auc,
    brute_canonical_key,
    brute_frustration_count,
    brute_mine,
    enumerate_embeddings,
    image_table,
    mis_support,
    random_connected_pattern,
    random_multiplex,
)
from test_coupled import _random_instance


def _ok(n: int, msg: str) -> None:
    print(f"\nPASS criterion {n}: {msg}")


def _dataset(name: str, directed: bool):
    try:
        edge, attr = dataset_paths(name)
    except FileNotFoundError:
        pytest.skip(
            f"{name} dataset not present under data/ (no network access in "
            f"the build sandbox; see data/README.md for how to fetch it)"
        )
    return load_multiplex(edge, attr, directed=directed)


# -- criterion 1: minimum-image-support fixture --------------------------------


def test_criterion_1_mis_fixture(image_table_graph, chain_pattern):
    t0 = time.perf_counter()
    embs = enumerate_embeddings(chain_pattern, image_table_graph)
    assert len(embs) == 4
    assert [len(s) for s in image_table(embs, 4)] == [3, 3, 3, 3]
    assert mis_support(embs, 4) == 3
    E = match_array(chain_pattern, image_table_graph)
    assert mis_support_array(E, 1, np.zeros(image_table_graph.index().width, dtype=bool)) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"4 embeddings, support 3, {elapsed * 1000:.0f} ms")


# -- criteria 2 + 3: mining oracle equivalence and anti-monotonicity -----------


class _OfferRecorder:
    def __init__(self):
        self.pairs = []

    def offer(self, parent, child, delta):
        self.pairs.append((parent.support, child.support))


def test_criteria_2_and_3_mining_oracle_and_antimonotonicity():
    rng = random.Random(8_2025)
    t0 = time.perf_counter()
    total_patterns = 0
    offers = 0
    for trial in range(200):
        g = random_multiplex(rng, max_nodes=8, max_layers=3, max_labels=3,
                             n_edges=rng.randint(4, 10))
        sigma = rng.choice((1, 2, 3))
        s = rng.choice((2, 3, 4))
        recorder = _OfferRecorder()
        ps = mine(g, MiningConfig(sigma, s), rule_sink=recorder)
        got = {brute_canonical_key(rec.pattern): rec.support for rec in ps}
        want = brute_mine(g, sigma, s)
        assert got == want, f"trial {trial}: mining disagrees with oracle"
        total_patterns += len(ps)
        for parent_supp, child_supp in recorder.pairs:
            assert child_supp <= parent_supp
        offers += len(recorder.pairs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert total_patterns > 500, "vacuous run: too few patterns mined"
    _ok(2, f"200 graphs match the exhaustive oracle ({total_patterns} "
           f"patterns, {elapsed:.1f} s)")
    _ok(3, f"anti-monotonicity held on {offers} parent/child extensions")


# -- criterion 4: canonical invariance ------------------------------------------


def test_criterion_4_canonical_invariance():
    rng = random.Random(44)
    violations = 0
    for trial in range(100):
        p = random_connected_pattern(rng, max_nodes=5, n_layers=2,
                                     directed=trial % 2 == 0)
        for strategy in (Strategy.BFS, Strategy.DFS):
            codes = {canonical_code(p, strategy)}
            for _ in range(20):
                perm = list(range(p.k))
                rng.shuffle(perm)
                codes.add(canonical_code(p.relabeled(tuple(perm)), strategy))
            if len(codes) != 1:
                violations += 1
    assert violations == 0
    _ok(4, "100 patterns x 20 permutations x {BFS,DFS}: one code each")


# -- criterion 5: mode equivalence + speed direction -----------------------------


def _mode_equivalence_and_speed(g, sigmas, size, conf, time_budget_s):
    t_start = time.perf_counter()
    timings = {}
    for sigma in sigmas:
        emb = run_mining(g, sigma, size, conf, Strategy.BFS, "embedded")
        post = run_mining(g, sigma, size, conf, Strategy.BFS, "posthoc")
        assert emb.rules.to_tsv() == post.rules.to_tsv(), f"rule sets differ at {sigma}"
        timings[sigma] = (emb.timings.total_s, post.timings.total_s)
    assert time.perf_counter() - t_start < time_budget_s
    lo = min(sigmas)
    emb_t, post_t = timings[lo]
    assert emb_t < post_t, (
        f"embedded ({emb_t:.2f}s) not faster than post-hoc ({post_t:.2f}s) "
        f"at sigma={lo}"
    )
    return timings


def test_criterion_5_aarhus_mode_equivalence_and_speed():
    g = _dataset("aarhus", directed=False)
    timings = _mode_equivalence_and_speed(g, (0.4, 0.6, 0.8), 4, 0.5, 300.0)
    emb_t, post_t = timings[0.4]
    _ok(5, f"Aarhus: set-equal at 40/60/80%; embedded {emb_t:.2f}s < "
           f"post-hoc {post_t:.2f}s at 40%")


def test_criterion_5_standin_mode_equivalence_and_speed():
    # Aarhus-scale synthetic graph (61 nodes, 5 layers, ~600 edges); same
    # protocol as the dataset-bound test above.
    g = generate(SynthConfig(n=61, layers=5, avg_degree=4, n_labels=1, seed=11))
    timings = _mode_equivalence_and_speed(g, (0.4, 0.6, 0.8), 4, 0.5, 300.0)
    emb_t, post_t = timings[0.4]
    _ok(5, f"stand-in: set-equal at 40/60/80%; embedded {emb_t:.2f}s < "
           f"post-hoc {post_t:.2f}s at 40%")


# -- criterion 6: AUC reproduction ------------------------------------------------


def test_criterion_6_aarhus_auc():
    g = _dataset("aarhus", directed=False)
    assert g.n_nodes == 61 and g.n_edges == 620 and len(g.layers) == 5
    t0 = time.perf_counter()
    result = cross_validate(g, make_rule_scorer(0.25, 4, 0.5), k=10, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert result.mean_auc >= 0.85, f"mean AUC {result.mean_auc:.3f} < 0.85"
    _ok(6, f"Aarhus 10-fold mean AUC {result.mean_auc:.3f} >= 0.85 "
           f"({elapsed:.0f} s)")


def test_criterion_6_celegans_auc():
    g = _dataset("celegans", directed=True)
    assert g.n_nodes == 279 and len(g.layers) == 3
    t0 = time.perf_counter()
    result = cross_validate(g, make_rule_scorer(0.3, 4, 0.5), k=10, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    assert result.mean_auc >= 0.92, f"mean AUC {result.mean_auc:.3f} < 0.92"
    _ok(6, f"CElegans 10-fold mean AUC {result.mean_auc:.3f} >= 0.92 "
           f"({elapsed:.0f} s)")


def test_criterion_6_standin_cv_pipeline():
    # Correlated two-layer graph at Aarhus scale: layer 1 mirrors layer 0,
    # so cross-layer rules carry real signal. The full 10-fold pipeline
    # must clear the same 0.85 bar the dataset test uses.
    base = generate(SynthConfig(n=61, layers=1, avg_degree=4, n_labels=1, seed=21))
    edges = set(base.edges) | {(u, v, 1) for u, v, _ in base.edges}
    g = MultiplexGraph(base.nodes, edges, directed=False, layers=[0, 1])
    t0 = time.perf_counter()
    result = cross_validate(g, make_rule_scorer(0.2, 3, 0.5), k=10, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert result.mean_auc >= 0.85, f"mean AUC {result.mean_auc:.3f} < 0.85"
    _ok(6, f"stand-in 10-fold mean AUC {result.mean_auc:.3f} >= 0.85 "
           f"({elapsed:.0f} s)")


# -- criterion 7: scorer oracle -----------------------------------------------------


def test_criterion_7_scorer_oracle():
    rng = random.Random(7_7_7)
    graphs_checked = 0
    rules_checked = 0
    while graphs_checked < 100:
        g = random_multiplex(rng, max_nodes=7, max_layers=2, max_labels=2,
                             n_edges=rng.randint(4, 9))
        min_confidence = rng.choice((0.0, 0.4, 0.7))
        sink = RuleBuilder()
        ps = mine(g, MiningConfig(rng.choice((1, 2)), 3), rule_sink=sink)
        rules = restrict_rules(sink.result(), ps, min_confidence)
        if not len(rules):
            continue
        graphs_checked += 1
        rules_checked += len(rules)
        for dedupe in (False, True):
            oo, on = brute_apply_rules(g, rules, dedupe_rule_firings=dedupe)
            for pattern_set in (ps, None):
                table = apply_rules(g, rules, pattern_set=pattern_set,
                                    dedupe_rule_firings=dedupe)
                # same keys, and every score the same float as the oracle's
                assert table.oldold == oo
                assert table.oldnew == on
    _ok(7, f"100 graphs / {rules_checked} rules match the brute-force "
           "scorer exactly")


# -- criterion 8: old-new capability --------------------------------------------


def _planted_oldnew_instance():
    """Training graph with an attach-to-new-node motif.

    40 hubs ('h') have satellite edges in layer 0: hubs 0..29 one each,
    hubs 30..39 four each. Half the graph carries layer-1 history edges to
    'n' nodes, giving the attach rule confidence 0.5. The test set adds a
    brand-new layer-1 neighbor to every degree-4 hub.
    """
    edges = []
    attrs = {}
    for i in range(40):
        attrs[i] = "h"
    sat = 100
    for i in range(30):
        edges.append((i, sat, 0))
        attrs[sat] = "s"
        sat += 1
    for i in range(30, 40):
        for _ in range(4):
            edges.append((i, sat, 0))
            attrs[sat] = "s"
            sat += 1
    history_hubs = list(range(0, 30, 2)) + list(range(30, 35))
    n_node = 300
    for i in history_hubs:
        edges.append((i, n_node, 1))
        attrs[n_node] = "n"
        n_node += 1
    train = MultiplexGraph(list(attrs), edges, attrs=attrs, directed=False,
                           layers=[0, 1])
    test_edges = frozenset((i, 400 + i, 1) for i in range(30, 40))
    from plexmine.evaluate import Split
    return Split(train=train, test_edges=test_edges)


def test_criterion_8_oldnew_capability():
    split = _planted_oldnew_instance()
    sink = RuleBuilder()
    ps = mine(split.train, MiningConfig(10, 3), rule_sink=sink)
    table = apply_rules(split.train, restrict_rules(sink.result(), ps, 0.5), pattern_set=ps)
    report = roc_auc(table, split)
    ours = report.segment_aucs[LinkClass.OLD_NEW]
    assert ours is not None and ours >= 0.9, f"old-new AUC {ours}"

    sharma_table = sharma_score(split.train)
    sharma_report = roc_auc(sharma_table, split)
    assert sharma_report.segment_counts[LinkClass.OLD_NEW]["scored"] == 0
    assert sharma_report.segment_aucs[LinkClass.OLD_NEW] == 0.5  # all ties
    _ok(8, f"planted motif: rules old-new AUC {ours:.3f} >= 0.9; "
           f"coexistence baseline zero-scored (AUC 0.5)")


# -- criterion 9: frustration oracle -----------------------------------------------


def test_criterion_9_frustration_oracle(chain_pattern):
    rng = random.Random(99)
    checked = 0
    while checked < 500:
        p = random_connected_pattern(rng, max_nodes=6, n_layers=3)
        if not p.edges:
            continue
        signs = SignMap({l: rng.choice((1, -1)) for l in range(3)})
        sedges = [(e.i, e.j, signs.signs[e.layer]) for e in p.edges]
        assert frustrated_count(p, signs) == brute_frustration_count(p.k, sedges)
        checked += 1

    from plexmine.pattern import Pattern, PatternEdge
    from fractions import Fraction
    signs = SignMap({0: 1, 1: -1})

    def tri(layers):
        return Pattern(False, ("_", "_", "_"),
                       (PatternEdge(0, 1, layers[0], False),
                        PatternEdge(0, 2, layers[1], False),
                        PatternEdge(1, 2, layers[2], False)))

    assert frustration(tri((0, 0, 1)), signs).index == Fraction(1, 3)
    assert frustration(tri((0, 1, 1)), signs).index == 0
    _ok(9, "500 random signed patterns (k<=6) match the 2^k brute force; "
           "triangle fixtures exact")


# -- criterion 10: ROC properties ---------------------------------------------------


def test_criterion_10_roc_properties():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(6, 60)
        scores = np.array([rng.choice((0.0, 0.25, 0.5, rng.random()))
                           for _ in range(n)])
        labels = np.array([rng.random() < 0.4 for _ in range(n)])
        if labels.all() or not labels.any():
            continue
        base, points = auc_and_roc(scores, labels)
        for f in (lambda x: 2 * x + 3, np.exp, lambda x: x ** 3):
            assert auc_and_roc(f(scores), labels)[0] == pytest.approx(base, abs=1e-12)
        # reported AUC equals the trapezoid integral of the ROC points
        trap = sum((x1 - x0) * (y1 + y0) / 2
                   for (x0, y0), (x1, y1) in zip(points, points[1:]))
        assert abs(trap - base) <= 1e-12
        # and the rank/pairwise statistics agree
        assert rank_auc(scores, labels) == base
        assert brute_auc(scores, labels) == base
    tied, _ = auc_and_roc(np.zeros(20), np.array([True] * 8 + [False] * 12))
    assert tied == 0.5
    _ok(10, "AUC invariant under increasing transforms; ties give exactly "
            "0.500; trapezoid == reported to 1e-12")


# -- criterion 11: coupled round-trip ------------------------------------------------


def test_criterion_11_coupled_roundtrip():
    rng = random.Random(1111)
    for _ in range(100):
        inst = _random_instance(rng)
        assert from_coupled(to_coupled(inst)) == inst
    _ok(11, "100 random many-to-many instances survive the round-trip")

"""Tests of the benchmark's own parts: its AUC, its inputs and its spans."""

from __future__ import annotations

import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

from auc import split_auc  # noqa: E402
from inputs import SPECS, base_graph, synth, write_inputs  # noqa: E402
from oracles import brute_auc  # noqa: E402
from plexmine import evaluate  # noqa: E402
from plexmine.datagen import SynthConfig, generate  # noqa: E402
from plexmine.graph import MultiplexGraph  # noqa: E402
from plexmine.predict import ScoreTable  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def _listed_universe(split):
    """The candidate universe written out pair by pair."""
    g = split.train
    nodes = sorted(g.nodes)
    cands, labels = [], []
    for l in sorted(g.layers):
        for u in nodes:
            for v in nodes:
                if u == v or (not g.directed and u > v) or (u, v, l) in g.edges:
                    continue
                cands.append(("oo", (u, v, l)))
                labels.append((u, v, l) in split.test_edges)
    for l in sorted(g.layers):
        for u in nodes:
            new = any((a == u and b not in g.nodes) or (b == u and a not in g.nodes)
                      for a, b, el in split.test_edges if el == l)
            cands.append(("on", (u, l)))
            labels.append(new)
    return cands, labels


def _random_split(rng: random.Random, directed: bool):
    """A k-fold split of a small random graph whose universe has both classes."""
    while True:
        n, layers = rng.randint(5, 9), rng.randint(1, 3)
        edges = {(u, v, l) for u in range(n) for v in range(n) for l in range(layers)
                 if u != v and (directed or u < v) and rng.random() < 0.3}
        if len(edges) < 3:
            continue
        g = MultiplexGraph(range(n), edges, attrs={u: "a" for u in range(n)},
                           directed=directed, layers=range(layers))
        split = evaluate.kfold_split(g, 3, seed=rng.randrange(100))[rng.randrange(3)]
        cands, labels = _listed_universe(split)
        if any(labels) and not all(labels):
            return split, cands, labels


@pytest.mark.parametrize("trial", range(12))
def test_split_auc_matches_brute_force(trial):
    rng = random.Random(trial)
    directed = trial % 3 == 0
    split, cands, labels = _random_split(rng, directed)
    baseline = rng.choice([0.0, 0.5, -1.0])
    table = ScoreTable(directed=directed, baseline=baseline)
    for kind, key in cands:
        if rng.random() < 0.5:
            score = rng.choice([0.5, 1.0, 2.0, baseline])  # ties, also with the baseline
            (table.oldold if kind == "oo" else table.oldnew)[key] = score
    scores = [(table.oldold if kind == "oo" else table.oldnew).get(key, baseline)
              for kind, key in cands]
    want = brute_auc(scores, labels)
    got = split_auc(table.oldold, table.oldnew, baseline, split.train.nodes,
                    split.train.layers, split.train.edges, split.test_edges, directed)
    assert got == pytest.approx(want, abs=1e-12)
    assert evaluate.roc_auc(table, split).auc == pytest.approx(want, abs=1e-9)


def test_synth_matches_datagen():
    for n, layers, deg, labels, seed in [(61, 5, 4, 1, 11), (40, 2, 6, 3, 2)]:
        edges, attrs = synth(n, layers, deg, labels, seed)
        g = generate(SynthConfig(n=n, layers=layers, avg_degree=deg, n_labels=labels, seed=seed))
        assert edges == set(g.edges)
        assert attrs == dict(g.attrs)


@pytest.mark.parametrize("workload", ["mine-standin", "ensemble-opt"])
def test_inputs_deterministic_per_seed(tmp_path, workload):
    files = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        paths = write_inputs(workload, seed, str(tmp_path / name))
        files[name] = [open(p, encoding="utf-8").read() for p in paths]
    assert files["a"] == files["b"]
    assert files["a"] != files["c"]


def test_seeds_change_the_text_but_not_the_loaded_graph(tmp_path):
    from plexmine.io import load_multiplex

    edges, attrs = base_graph("cv-overlap")
    spec = SPECS["cv-overlap"]
    assert len(attrs) == spec.n
    assert {l for _, _, l in edges} == set(range(spec.layers))
    graphs, texts = [], []
    for seed in (0, 1):
        paths = write_inputs("cv-overlap", seed, str(tmp_path / str(seed)))
        texts.append([open(p, encoding="utf-8").read() for p in paths])
        g = load_multiplex(*paths)
        graphs.append((set(g.edges), dict(g.attrs)))
    assert texts[0] != texts[1]
    assert graphs[0] == graphs[1] == (edges, attrs)


def test_tracer_restores_patched_names_and_counts_calls():
    from plexmine import evaluate as ev

    original = ev.rank_auc
    tracer = Tracer()
    tracer.install()
    try:
        assert ev.rank_auc is not original
        ev.rank_auc(np.array([0.1, 0.9, 0.5]), np.array([False, True, False]))
    finally:
        tracer.uninstall()
    assert ev.rank_auc is original
    figures = layer_metrics(tracer.to_json())
    assert figures["evaluate.rank_auc_calls"] == 1


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "miner.mine", "start": 0.0, "end": 10.0, "parent": None, "items": 5},
        {"name": "matcher.support", "start": 1.0, "end": 4.0, "parent": 0, "items": 0},
        {"name": "graph.has_pairs", "start": 5.0, "end": 6.0, "parent": 0, "items": 0},
        {"name": "graph.has_pairs", "start": 5.2, "end": 5.5, "parent": 2, "items": 0},
    ]
    figures = layer_metrics(spans)
    assert figures["miner.mine_self_s"] == pytest.approx(6.0)
    assert figures["graph.has_pairs_calls"] == 2
    assert figures["miner.mine_items"] == 5


def test_benchmark_json_names_what_run_reports():
    import json

    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER

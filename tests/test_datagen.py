import pytest

from plexmine.datagen import SynthConfig, generate
from plexmine.io import canonical_edge_text


def test_defaults_shape():
    g = generate(SynthConfig(seed=5))
    assert g.n_nodes == 500
    assert len(g.layers) == 7
    assert len(set(g.attrs.values())) <= 4


def test_tree_floor_small_graph():
    g = generate(SynthConfig(n=10, layers=1, avg_degree=2, n_labels=1, seed=0))
    assert g.n_nodes == 10
    assert g.n_edges == 9  # m=1 attachment builds a tree


def test_per_layer_edge_count_exact():
    cfg = SynthConfig(n=40, layers=3, avg_degree=6, n_labels=2, seed=9)
    g = generate(cfg)
    m = cfg.m
    for l in g.layers:
        count = sum(1 for e in g.edges if e[2] == l)
        assert count == m * (cfg.n - m)


def test_same_seed_byte_identical():
    a = generate(SynthConfig(n=60, layers=2, seed=13))
    b = generate(SynthConfig(n=60, layers=2, seed=13))
    assert canonical_edge_text(a) == canonical_edge_text(b)
    c = generate(SynthConfig(n=60, layers=2, seed=14))
    assert canonical_edge_text(a) != canonical_edge_text(c)


def test_mean_degree_within_ten_percent():
    target = 8
    for seed in range(10):
        g = generate(SynthConfig(n=200, layers=1, avg_degree=target, seed=seed))
        mean_deg = 2 * g.n_edges / g.n_nodes
        assert abs(mean_deg - target) / target < 0.10


def test_odd_degree_rounds_down():
    cfg = SynthConfig(n=30, layers=1, avg_degree=5, seed=1)
    g = generate(cfg)
    assert cfg.m == 2
    assert g.n_edges == 2 * (30 - 2)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        generate(SynthConfig(n=5, avg_degree=8))
    with pytest.raises(ValueError):
        generate(SynthConfig(layers=0))
    with pytest.raises(ValueError):
        generate(SynthConfig(p_triangle=1.5))
    for avg_degree in (1, 0, -4):
        with pytest.raises(ValueError):
            generate(SynthConfig(n=20, avg_degree=avg_degree))

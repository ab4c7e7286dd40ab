import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_canonical_key, brute_mine
from plexmine.coupled import COUPLING, INTRA, MultilayerInstance, from_coupled, to_coupled
from plexmine.graph import GraphError, MultiplexGraph
from plexmine.io import load_multiplex, save_multiplex
from plexmine.miner import MiningConfig, mine
from plexmine.pattern import Strategy


def test_minimal_coupling():
    inst = MultilayerInstance.build(
        replicas=[("n", 0), ("n", 1)],
        couplings=[(("n", 0), ("n", 1))],
        intra_edges=[],
    )
    g = to_coupled(inst)
    assert len(g.nodes) == 2
    assert g.edges == frozenset({(0, 1, COUPLING)})
    assert from_coupled(g) == inst


def test_intra_edges_reappear_once_with_kind_2():
    # two layers, mixed couplings, several intra edges
    inst = MultilayerInstance.build(
        replicas=[("a", 0), ("b", 0), ("c", 0), ("a", 1), ("b", 1), ("d", 1)],
        couplings=[(("a", 0), ("a", 1)), (("b", 0), ("b", 1)),
                   (("a", 0), ("d", 1))],
        intra_edges=[(("a", 0), ("b", 0)), (("b", 0), ("c", 0)),
                     (("a", 1), ("d", 1))],
    )
    g = to_coupled(inst)
    assert not g.directed
    assert g.layer_names == {COUPLING: "coupling", INTRA: "intra"}
    # a replica (entity, layer) is the node named entity@layer, labelled layer
    assert {(g.node_names[n], g.attrs[n]) for n in g.nodes} == {
        (f"{e}@{l}", str(l)) for e, l in inst.replicas}
    intra = [(g.node_names[u], g.node_names[v]) for u, v, k in g.edges if k == INTRA]
    assert len(intra) == len(inst.intra_edges)
    normalized = {tuple(sorted(pair)) for pair in intra}
    assert normalized == {(f"{a[0]}@{a[1]}", f"{b[0]}@{b[1]}") for a, b in inst.intra_edges}
    # layer of each intra edge recoverable from node labels
    for u, v, k in g.edges:
        if k == INTRA:
            assert g.attrs[u] == g.attrs[v]


def test_coupling_referencing_absent_replica_rejected():
    inst = MultilayerInstance.build(
        replicas=[("n", 0)],
        couplings=[(("n", 0), ("n", 1))],
        intra_edges=[],
    )
    with pytest.raises(GraphError):
        to_coupled(inst)


def test_intra_edge_spanning_layers_rejected():
    good = MultilayerInstance.build(
        replicas=[("a", 0), ("b", 1)], couplings=[], intra_edges=[])
    g = to_coupled(good)
    corrupted = MultiplexGraph(g.nodes, [(0, 1, INTRA)], g.attrs,
                               layer_names=g.layer_names, node_names=g.node_names)
    with pytest.raises(GraphError, match="spans layers 0 and 1"):
        from_coupled(corrupted)


def test_coupling_within_one_layer_rejected():
    inst = MultilayerInstance.build(
        replicas=[("a", 0), ("b", 0)], couplings=[(("a", 0), ("b", 0))], intra_edges=[])
    with pytest.raises(GraphError, match="within one layer"):
        to_coupled(inst)


def test_intra_self_loop_rejected():
    # MultiplexGraph drops loops, so the edge could not come back
    inst = MultilayerInstance.build(
        replicas=[("a", 0)], couplings=[], intra_edges=[(("a", 0), ("a", 0))])
    with pytest.raises(GraphError, match="to itself"):
        to_coupled(inst)


def _two_replicas(**changes) -> MultiplexGraph:
    """The coupled graph of a-0 -- a-1, with ``changes`` to its fields."""
    fields = dict(nodes=[0, 1], edges=[(0, 1, COUPLING)], attrs={0: "0", 1: "1"},
                  directed=False, layer_names={COUPLING: "coupling", INTRA: "intra"},
                  node_names={0: "a@0", 1: "a@1"})
    fields.update(changes)
    return MultiplexGraph(**fields)


def test_from_coupled_reads_names_and_labels():
    assert from_coupled(_two_replicas()) == MultilayerInstance.build(
        replicas=[("a", 0), ("a", 1)], couplings=[(("a", 0), ("a", 1))], intra_edges=[])
    # the entity is the text before the last @
    g = _two_replicas(node_names={0: "x@y@0", 1: "x@y@1"})
    assert from_coupled(g).replicas == {("x@y", 0), ("x@y", 1)}


@pytest.mark.parametrize("changes, message", [
    (dict(node_names={0: "a@0", 1: "a@2"}), "is not named"),
    (dict(node_names={0: "a@0", 1: "a"}), "is not named"),
    (dict(attrs={0: "0", 1: "x"}, node_names={0: "a@0", 1: "a@x"}), "is not named"),
    (dict(layer_names={COUPLING: "coupled", INTRA: "intra"}), "unknown layer name 'coupled'"),
    (dict(directed=True), "undirected"),
    (dict(attrs={0: "0", 1: "0"}, node_names={0: "a@0", 1: "b@0"}), "within one layer"),
])
def test_from_coupled_rejects(changes, message):
    with pytest.raises(GraphError, match=message):
        from_coupled(_two_replicas(**changes))


def _random_instance(rng: random.Random) -> MultilayerInstance:
    n_layers = rng.randint(2, 3)
    names = "uvwxyz"[: rng.randint(2, 5)]
    replicas = {(n, l) for n in names for l in range(n_layers)
                if rng.random() < 0.8}
    if len(replicas) < 2:
        replicas = {(names[0], 0), (names[0], 1)}
    reps = sorted(replicas)
    couplings = set()
    intra = set()
    for _ in range(rng.randint(0, 6)):
        a, b = rng.sample(reps, 2)
        if a[1] == b[1]:
            if a[0] != b[0]:
                intra.add(tuple(sorted((a, b))))
        else:
            couplings.add(tuple(sorted((a, b))))
    return MultilayerInstance.build(replicas, couplings, intra)


def test_roundtrip_random_instances():
    rng = random.Random(42)
    for _ in range(100):
        inst = _random_instance(rng)
        assert from_coupled(to_coupled(inst)) == inst


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_roundtrip_property(seed):
    inst = _random_instance(random.Random(seed))
    assert from_coupled(to_coupled(inst)) == inst


def _file_form(inst: MultilayerInstance) -> MultilayerInstance:
    """The instance a saved coupled graph loads back as: no edgeless replica."""
    touched = {rep for pair in inst.couplings | inst.intra_edges for rep in pair}
    return MultilayerInstance(frozenset(touched), inst.couplings, inst.intra_edges)


def test_file_roundtrip_random_instances(tmp_path):
    rng = random.Random(7)
    edges, attrs = str(tmp_path / "c.edges"), str(tmp_path / "c.attrs")
    for _ in range(60):
        inst = _random_instance(rng)
        save_multiplex(to_coupled(inst), edges, attrs)
        assert from_coupled(load_multiplex(edges, attrs)) == _file_form(inst)


@pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
def test_mine_coupled_graph_matches_oracle(strategy):
    rng = random.Random(5)
    total = 0
    for _ in range(40):
        g = to_coupled(_random_instance(rng))
        ps = mine(g, MiningConfig(1, 3, strategy))
        got = {brute_canonical_key(rec.pattern): rec.support for rec in ps}
        assert got == brute_mine(g, 1, 3)
        total += len(got)
    assert total > 100, "vacuous run: too few patterns mined"

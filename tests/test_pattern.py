import itertools
import random

import pytest

from plexmine.pattern import (
    CanonicalCode,
    Delta,
    Pattern,
    PatternEdge,
    PatternError,
    Strategy,
    apply_delta,
    canonical_code,
    canonical_delta,
    canonical_orderings,
    pattern_from_code,
)

from oracles import brute_canonical_key, random_connected_pattern


def test_single_node_code():
    p = Pattern(False, ("x",), ())
    code = canonical_code(p)
    assert code.root_label == "x"
    assert code.tuples == ()


def test_triangle_all_orderings_one_code():
    tri = Pattern(False, ("x", "x", "x"),
                  (PatternEdge(0, 1, 0, False), PatternEdge(0, 2, 0, False),
                   PatternEdge(1, 2, 0, False)))
    for strategy in (Strategy.BFS, Strategy.DFS):
        codes = {canonical_code(tri.relabeled(perm), strategy)
                 for perm in itertools.permutations(range(3))}
        assert len(codes) == 1
    # uniform triangle has the full symmetric group of canonical orderings
    assert len(canonical_orderings(tri)) == 6


def test_parallel_edges_tree_then_cycle():
    par = Pattern(False, ("x", "y"),
                  (PatternEdge(0, 1, 0, False), PatternEdge(0, 1, 1, False)))
    code = canonical_code(par)
    assert len(code.tuples) == 2
    tree, cyc = code.tuples
    assert tree.dst == 1  # discovers node 1
    assert cyc.dst == 1   # closes the length-2 cycle on a discovered node
    assert tree.layer != cyc.layer


def test_disconnected_pattern_rejected():
    p = Pattern(False, ("x", "y", "z"), (PatternEdge(0, 1, 0, False),))
    with pytest.raises(PatternError):
        canonical_code(p)
    # two components whose explorations share a first tuple
    p = Pattern(False, ("a", "b", "a", "b", "b"),
                (PatternEdge(0, 1, 0, False), PatternEdge(2, 3, 0, False),
                 PatternEdge(2, 4, 0, False)))
    for strategy in Strategy:
        with pytest.raises(PatternError):
            canonical_code(p, strategy)


def test_pattern_validation():
    with pytest.raises(PatternError):
        Pattern(False, ("x", "y"), (PatternEdge(1, 0, 0, False),))
    with pytest.raises(PatternError):
        Pattern(False, ("x", "y"), (PatternEdge(0, 1, 0, True),))  # dirbit undirected
    with pytest.raises(PatternError):
        Pattern(False, ("x", "y"),
                (PatternEdge(0, 1, 0, False), PatternEdge(0, 1, 0, False)))


@pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
@pytest.mark.parametrize("directed", [False, True])
def test_canonical_invariance_random(strategy, directed):
    rng = random.Random(17 if directed else 23)
    for _ in range(60):
        p = random_connected_pattern(rng, max_nodes=5, directed=directed)
        base = canonical_code(p, strategy)
        for _ in range(10):
            perm = list(range(p.k))
            rng.shuffle(perm)
            assert canonical_code(p.relabeled(tuple(perm)), strategy) == base


def test_code_string_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        p = random_connected_pattern(rng, directed=rng.random() < 0.5)
        for strategy in (Strategy.BFS, Strategy.DFS):
            code = canonical_code(p, strategy)
            assert CanonicalCode.from_string(code.to_string()) == code
            # the code reconstructs the pattern up to isomorphism
            assert canonical_code(pattern_from_code(code), strategy) == code


def test_code_string_quotes_labels():
    p = Pattern(False, ("a b~;", "x:y"), (PatternEdge(0, 1, 0, False),))
    code = canonical_code(p)
    assert CanonicalCode.from_string(code.to_string()) == code


QUOTED = "a b|c;d:e-%"
PINNED_CODES = [
    # a 4-cycle whose BFS and DFS codes differ
    (Pattern(False, ("x", "x", "y", "x"),
             (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False),
              PatternEdge(0, 3, 1, False), PatternEdge(2, 3, 0, False))),
     "Bu|x|0-1:0:0:x;0-2:0:0:y;1-3:1:0:x;2-3:0:0:x",
     "Du|x|0-1:0:0:x;1-2:0:0:y;2-3:0:0:x;3-0:1:0:x"),
    # a triangle with a tail, under all-equal labels
    (Pattern(False, ("x", "x", "x", "x"),
             (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False),
              PatternEdge(1, 3, 0, False), PatternEdge(2, 3, 1, False))),
     "Bu|x|0-1:0:0:x;0-2:0:0:x;0-3:0:0:x;1-2:1:0:x",
     "Du|x|0-1:0:0:x;0-2:0:0:x;2-3:1:0:x;3-0:0:0:x"),
    # directed antiparallel edges in one layer
    (Pattern(True, ("a", "b", "a"),
             (PatternEdge(0, 1, 0, True), PatternEdge(0, 1, 0, False),
              PatternEdge(1, 2, 1, False))),
     "Bd|a|0-1:0:0:b;0-1:0:1:b;1-2:1:0:a",
     "Dd|a|0-1:0:0:b;1-0:0:1:a;1-2:1:0:a"),
    # parallel edges in three layers
    (Pattern(False, ("y", "x", "y"),
             (PatternEdge(0, 1, 0, False), PatternEdge(0, 1, 2, False),
              PatternEdge(0, 1, 1, False), PatternEdge(1, 2, 1, False))),
     "Bu|x|0-1:0:0:y;0-1:1:0:y;0-2:1:0:y;0-1:2:0:y",
     "Du|x|0-1:0:0:y;1-0:1:0:x;1-0:2:0:x;0-2:1:0:y"),
    # labels that need quoting
    (Pattern(True, (QUOTED, "_", QUOTED),
             (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, True))),
     "Bd|_|0-1:0:1:a%20b%7Cc%3Bd%3Ae-%25;0-2:0:1:a%20b%7Cc%3Bd%3Ae-%25",
     "Dd|_|0-1:0:1:a%20b%7Cc%3Bd%3Ae-%25;0-2:0:1:a%20b%7Cc%3Bd%3Ae-%25"),
]


@pytest.mark.parametrize("p, bfs, dfs", PINNED_CODES)
def test_code_form_is_pinned(p, bfs, dfs):
    # dumps written under CODE_SCHEME_VERSION 1 must keep reading back
    for strategy, text in ((Strategy.BFS, bfs), (Strategy.DFS, dfs)):
        code = canonical_code(p, strategy)
        assert code.to_string() == text
        assert CanonicalCode.from_string(text) == code


# the canonical orderings of each PINNED_CODES pattern under BFS and DFS,
# in discovery order; ``RuleTable.columns`` reads the first
PINNED_ORDERINGS = [
    (((1, 0, 2, 3),), ((0, 1, 2, 3),)),
    (((1, 2, 3, 0), (1, 3, 2, 0)), ((1, 0, 2, 3), (1, 0, 3, 2))),
    (((0, 1, 2),), ((0, 1, 2),)),
    (((1, 0, 2),), ((1, 0, 2),)),
    (((1, 0, 2), (1, 2, 0)), ((1, 0, 2), (1, 2, 0))),
]


def test_orderings_of_pinned_codes_are_pinned():
    assert [(canonical_orderings(p, Strategy.BFS), canonical_orderings(p, Strategy.DFS))
            for p, _, _ in PINNED_CODES] == PINNED_ORDERINGS


@pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
@pytest.mark.parametrize("directed", [False, True])
def test_canonical_orderings_are_every_permutation_onto_the_code(strategy, directed):
    # an ordering maps code index -> node index; the orderings are exactly
    # the permutations that carry the pattern onto its code's pattern
    rng = random.Random(2803 if directed else 2807)
    for _ in range(1500):
        p = random_connected_pattern(rng, max_nodes=5, n_layers=rng.randint(1, 3),
                                     directed=directed)
        target = canonical_code(p, strategy).pattern
        onto = set()
        for order in itertools.permutations(range(p.k)):
            inverse = [0] * p.k
            for ci, node in enumerate(order):
                inverse[node] = ci
            if p.relabeled(tuple(inverse)) == target:
                onto.add(order)
        assert set(canonical_orderings(p, strategy)) == onto


def test_apply_delta_node_and_cycle():
    edge = Pattern(False, ("x", "y"), (PatternEdge(0, 1, 0, False),))
    grown = apply_delta(edge, Delta(0, None, 1, False, "z"))
    assert grown.k == 3 and len(grown.edges) == 2
    closed = apply_delta(grown, Delta(1, 2, 0, False))
    assert closed.k == 3 and len(closed.edges) == 3
    with pytest.raises(PatternError):
        apply_delta(edge, Delta(0, 1, 0, False))  # already present


def test_delta_key_collapses_symmetric_placements():
    edge = Pattern(False, ("x", "x"), (PatternEdge(0, 1, 0, False),))
    k0 = canonical_delta(edge, Delta(0, None, 1, False, "y"), canonical_orderings(edge))
    k1 = canonical_delta(edge, Delta(1, None, 1, False, "y"), canonical_orderings(edge))
    assert k0 == k1 == Delta(0, None, 1, False, "y")
    # asymmetric labels keep placements apart
    edge2 = Pattern(False, ("x", "y"), (PatternEdge(0, 1, 0, False),))
    a = canonical_delta(edge2, Delta(0, None, 1, False, "z"), canonical_orderings(edge2))
    b = canonical_delta(edge2, Delta(1, None, 1, False, "z"), canonical_orderings(edge2))
    assert a != b


def test_delta_key_string_roundtrip():
    edge = Pattern(True, ("x", "y"), (PatternEdge(0, 1, 0, True),))
    for d in (Delta(0, None, 1, False, "z"), Delta(0, 1, 1, False)):
        canonical = canonical_delta(edge, d, canonical_orderings(edge))
        assert Delta.from_string(canonical.to_string()) == canonical
        assert canonical.layer == d.layer
        assert (canonical.j is None) == (d.j is None)


def test_delta_string_roundtrip_over_random_deltas():
    rng = random.Random(41)
    labels = ["a", "a b", "x:y", "50%", "|;-", "\u00e9", "N:0:1:0:_"]
    for _ in range(300):
        i, layer, dirbit = rng.randrange(6), rng.randrange(-3, 40), rng.random() < 0.5
        if rng.random() < 0.5:
            d = Delta(i, None, layer, dirbit, rng.choice(labels))
        else:
            d = Delta(i, i + 1 + rng.randrange(5), layer, dirbit)
        text = d.to_string()
        assert d.to_string() is text  # computed once per delta object
        assert Delta.from_string(text) == d
        assert text.count(":") == (4 if d.j is None else 3)


@pytest.mark.parametrize("text", ["N:0:1:7:b", "C:0-1:0:2", "C:0-1:0:", "C:0-1:0:True",
                                  "X:0-1:0:0", "N:0:1:0:b:c", "C:1-0:0:0"])
def test_delta_string_rejects_bad_forms(text):
    with pytest.raises(ValueError):  # PatternError is one
        Delta.from_string(text)


@pytest.mark.parametrize("text", ["Bd|a|0-1:0:7:b", "Bu|a|0-1:0:1:b"])
def test_code_string_rejects_bad_dirbits(text):
    with pytest.raises(PatternError):
        CanonicalCode.from_string(text)


def test_directed_direction_bit_distinguishes():
    fwd = Pattern(True, ("x", "y"), (PatternEdge(0, 1, 0, True),))
    rev = Pattern(True, ("x", "y"), (PatternEdge(0, 1, 0, False),))
    assert canonical_code(fwd) != canonical_code(rev)
    # reciprocated pair is one isomorphism class regardless of indexing
    pair1 = Pattern(True, ("x", "x"),
                    (PatternEdge(0, 1, 0, True), PatternEdge(0, 1, 0, False)))
    assert canonical_code(pair1.relabeled((1, 0))) == canonical_code(pair1)


@pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
@pytest.mark.parametrize("directed", [False, True])
def test_delta_round_trips_through_its_key(strategy, directed):
    """A delta's dirbit means the same in the delta and in its canonical
    form on the canonical pattern."""
    rng = random.Random(29 if directed else 31)
    dirbits = (False, True) if directed else (False,)
    for _ in range(30):
        p = random_connected_pattern(rng, max_nodes=4, directed=directed)
        code, orderings = canonical_code(p, strategy), canonical_orderings(p, strategy)
        deltas = [Delta(i, None, layer, b, lab)
                  for i in range(p.k) for layer in (0, 1) for b in dirbits for lab in "ab"]
        deltas += [Delta(i, j, layer, b)
                   for j in range(p.k) for i in range(j) for layer in (0, 1) for b in dirbits
                   if PatternEdge(i, j, layer, b) not in p.edges]
        for d in deltas:
            canonical = canonical_delta(p, d, orderings)
            assert (brute_canonical_key(apply_delta(code.pattern, canonical))
                    == brute_canonical_key(apply_delta(p, d))), (p, d)


def test_dirbit_on_undirected_pattern_is_rejected():
    edge = Pattern(False, ("x", "y"), (PatternEdge(0, 1, 0, False),))
    for d in (Delta(0, None, 1, True, "z"), Delta(0, 1, 1, True)):
        with pytest.raises(PatternError):
            apply_delta(edge, d)
        with pytest.raises(PatternError):
            canonical_delta(edge, d, canonical_orderings(edge))

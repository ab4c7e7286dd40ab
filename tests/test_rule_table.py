"""Rule application reads a table of rules grouped by antecedent record and
delta column pair: every score and every provenance list is checked
against per-rule brute force, exactly (``float.hex``), and a fold's rules,
as the mask of its source mine's offer table, against mining the fold.
"""

import random
from pathlib import Path

import pytest

from plexmine.cli import main
from plexmine.evaluate import kfold_split
from plexmine.graph import MultiplexGraph
from plexmine.io import load_multiplex, save_multiplex
from plexmine.miner import MiningConfig, MiningInvariantError, mine, restrict
from plexmine.pattern import Delta, Pattern, PatternEdge, Strategy
from plexmine.predict import apply_rules, score_dump
from plexmine.rules import RuleBuilder, RuleSet, RuleTable, derive_rules_posthoc

from oracles import brute_apply_rules, random_multiplex
from test_predict import _rule, _ruleset, _selections

CONFIDENCE = 0.5


def _hex(scores: dict) -> list:
    return sorted((k, s.hex()) for k, s in scores.items())


def _table_text(table) -> list:
    return [[(k, s.hex()) for k, s in table.oldold.items()],
            [(k, s.hex()) for k, s in table.oldnew.items()], table.provenance]


def _fired(g, rules: list, dedupe: bool = False) -> dict:
    """Provenance from brute force: each scored key and the positions in
    ``rules`` of the rules that fire it alone."""
    fired: dict = {}
    for rule_id, rule in enumerate(rules):
        oldold, oldnew = brute_apply_rules(g, _ruleset(rule), dedupe_rule_firings=dedupe)
        for key in oldold:
            fired.setdefault(("oldold", key), []).append(rule_id)
        for key in oldnew:
            fired.setdefault(("oldnew", key), []).append(rule_id)
    return fired


def _assert_brute(g, rules: RuleSet, table, dedupe: bool) -> None:
    """``table``, with provenance, is what brute force gives for ``rules``."""
    oldold, oldnew = brute_apply_rules(g, rules, dedupe_rule_firings=dedupe)
    assert _hex(table.oldold) == _hex(oldold)
    assert _hex(table.oldnew) == _hex(oldnew)
    assert table.provenance == _fired(g, RuleTable(rules).fitting(g).rules(), dedupe)


@pytest.mark.parametrize("directed", [False, True])
def test_grouped_application_equals_brute_force(directed):
    rng = random.Random(90 + directed)
    flipped = shared = 0
    for _ in range(30):
        g = random_multiplex(rng, max_nodes=8, directed=directed)
        sink = RuleBuilder()
        ps = mine(g, MiningConfig(1, rng.choice((2, 3))), rule_sink=sink)
        rules = sink.result()
        mined, walked = _selections(g, rules, ps)
        flipped += int(mined.table.flip.sum())
        shared += len(rules) - len(mined.table.group_ant)
        for dedupe in (False, True):
            for selection in (mined, walked):
                table = apply_rules(g, selection, dedupe_rule_firings=dedupe,
                                    track_provenance=True)
                _assert_brute(g, rules, table, dedupe)
    assert shared > 50  # many groups hold several rules
    assert (flipped > 0) == directed


def test_directed_delta_from_the_high_column_to_the_low_one():
    """The rule closes the 2-path's end back to its start: in the record's
    columns the new edge runs from the high column to the low one."""
    g = MultiplexGraph(range(4), [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 1, 1)], directed=True)
    path2 = Pattern(True, ("_",) * 3, (PatternEdge(0, 1, 0, True), PatternEdge(1, 2, 0, True)))
    back = _rule(path2, Delta(0, 2, 1, False), 4, 3)  # 2 -> 0 in layer 1
    ahead = _rule(path2, Delta(0, 2, 1, True), 4, 2)  # 0 -> 2 in layer 1
    rules = _ruleset(back, ahead)
    selected = RuleTable(rules).fitting(g)
    assert selected.table.flip.tolist().count(True) == 1
    assert len(selected.table.group_ant) == 1  # one group: the same column pair
    table = apply_rules(g, rules, track_provenance=True)
    ids = {r.support_c: n for n, r in enumerate(selected.rules())}
    assert table.oldold == {(2, 0, 1): 0.75, (0, 2, 1): 0.5, (1, 3, 1): 0.5}
    assert table.provenance == {("oldold", (2, 0, 1)): [ids[3]],
                                ("oldold", (0, 2, 1)): [ids[2]],
                                ("oldold", (1, 3, 1)): [ids[2]]}
    _assert_brute(g, rules, table, dedupe=False)


@pytest.mark.parametrize("dedupe", [False, True])
def test_automorphic_rows_of_an_undirected_antecedent_count_once(dedupe):
    """A star's two leaves swap: each pair of leaves is read from two rows
    with one node set, and a rule adds its confidence once per node set.
    Hand-built rules are walked on the graph; the mine's own offers read
    the mined record's rows."""
    g = MultiplexGraph(range(5), [(0, 1, 0), (0, 2, 0), (0, 3, 0), (3, 4, 0)],
                       directed=False, layers=[0, 1])
    path2 = Pattern(False, ("_",) * 3, (PatternEdge(0, 1, 0, False), PatternEdge(1, 2, 0, False)))
    rules = _ruleset(_rule(path2, Delta(0, 2, 0, False), 4, 3),
                     _rule(path2, Delta(0, 2, 1, False), 4, 1))
    sink = RuleBuilder()
    ps = mine(g, MiningConfig(1, 4), rule_sink=sink)
    rec = ps.get(rules.sorted_rules()[0].antecedent_code)
    assert len(rec.embeddings) == 2 * len(set(map(frozenset, rec.embeddings.tolist())))
    table = apply_rules(g, rules, dedupe_rule_firings=dedupe, track_provenance=True)
    assert table.oldold[(1, 2, 0)] == 0.75 and table.oldold[(1, 2, 1)] == 0.25
    _assert_brute(g, rules, table, dedupe)
    offers = sink.result()
    assert any(r.antecedent_code == rec.code for r in offers)
    table = apply_rules(g, RuleTable(offers, ps).select(ps, 0.0), dedupe_rule_firings=dedupe,
                        track_provenance=True)
    _assert_brute(g, offers, table, dedupe)


def _mine_source(g, sigma, size, strategy=Strategy.BFS):
    sink = RuleBuilder()
    ps = mine(g, MiningConfig(sigma, size, strategy), rule_sink=sink)
    return RuleTable(sink.result(), ps)


def _assert_fold(table: RuleTable, g, sigma, size, strategy=Strategy.BFS,
                 min_confidence=CONFIDENCE):
    """The fold's selection of ``table`` scores, with provenance, what
    mining the fold and applying its rule set gives, and brute force."""
    derived = restrict(table.mine, g, sigma)
    selected = table.select(derived, min_confidence)
    ps = mine(g, MiningConfig(sigma, size, strategy))
    rules = derive_rules_posthoc(ps, min_confidence, strategy)
    assert selected.rule_set().to_tsv() == rules.to_tsv()
    assert [r.to_line() for r in selected.rules()] == [r.to_line() for r in rules.sorted_rules()]
    for dedupe in (False, True):
        got = apply_rules(g, selected, dedupe_rule_firings=dedupe, track_provenance=True)
        want = apply_rules(g, RuleTable(rules, ps).select(ps, 0.0), dedupe_rule_firings=dedupe,
                           track_provenance=True)
        assert _table_text(got) == _table_text(want)
        _assert_brute(g, rules, got, dedupe)
    return derived


def test_fold_that_loses_a_label_shrinks_its_single_node_records():
    g = MultiplexGraph(range(9), [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 4, 0), (4, 5, 1),
                                  (5, 0, 0), (6, 7, 0), (7, 8, 1), (8, 6, 0), (0, 6, 1)],
                       attrs={n: "ab"[n % 2] if n < 8 else "z" for n in range(9)})
    table = _mine_source(g, 1, 3)
    fold = g.subgraph_of_edges(e for e in g.edges if not {0, 1, 8} & set(e[:2]))
    assert "z" not in fold.attrs.values()
    derived = _assert_fold(table, fold, 1, 3)
    singles = [(src, derived.get(src.code)) for src in table.mine if src.pattern.k == 1]
    assert [rec is None for _, rec in singles] == [False, False, True]  # a, b, z
    assert [len(rec.embeddings) for _, rec in singles[:2]] == [3, 3]  # of 4 and 4


@pytest.mark.parametrize("directed", [False, True])
def test_fold_selections_equal_per_fold_mining(directed):
    rng = random.Random(41 + directed)
    for _ in range(40):
        src = random_multiplex(rng, max_nodes=9, directed=directed)
        edges = sorted(src.edges)
        strategy = rng.choice(list(Strategy))
        size = rng.randint(1, 4)
        sigma = rng.randint(1, 2)
        table = _mine_source(src, sigma, size, strategy)
        fold = src.subgraph_of_edges(rng.sample(edges, rng.randint(1, len(edges))))
        _assert_fold(table, fold, sigma + rng.randint(0, 1), size, strategy,
                     rng.choice([0.0, 0.3, CONFIDENCE, 1.0]))
        _assert_fold(table, src, sigma, size, strategy)


def test_selection_refuses_a_set_not_derived_from_its_mine():
    g = random_multiplex(random.Random(3), max_nodes=8, n_edges=10)
    table = _mine_source(g, 1, 3)
    other = mine(g, MiningConfig(1, 3))
    fold = kfold_split(g, 3, seed=0)[0].train
    for ps in (other, restrict(other, fold, 1)):
        with pytest.raises(MiningInvariantError):
            table.select(ps, CONFIDENCE)
    # a table with no mine has no records to select by, and a table read
    # off a mine has its records' columns, which a walk on a graph lacks
    with pytest.raises(MiningInvariantError):
        RuleTable(_ruleset(*table.rules)).select(table.mine, CONFIDENCE)
    with pytest.raises(MiningInvariantError):
        table.fitting(g)


@pytest.mark.parametrize("directed", [False, True])
def test_explain_lists_the_rules_that_fired_each_written_triple(tmp_path, directed):
    rng = random.Random(7 + directed)
    checked = 0
    for case in range(8):
        prefix = str(tmp_path / f"g{case}")
        save_multiplex(random_multiplex(rng, max_nodes=9, directed=directed),
                       prefix + ".edges", prefix + ".attrs")
        flags = ["--directed"] if directed else []
        rules_path, why = prefix + ".rules", prefix + ".why"
        assert main(["mine", prefix + ".edges", "--attrs", prefix + ".attrs", "--support", "1",
                     "--size", "3", "--confidence", "0.3", "--rules-out", rules_path,
                     "--patterns-out", prefix + ".patterns", *flags]) == 0
        g = load_multiplex(prefix + ".edges", prefix + ".attrs", directed)
        rules = RuleSet.from_tsv(rules_path)
        top = rng.randint(1, 6)
        assert main(["predict", prefix + ".edges", "--attrs", prefix + ".attrs",
                     "--rules", rules_path, "--top", str(top), "--explain", why,
                     "--out", prefix + ".scores", *flags]) == 0
        fired = _fired(g, rules.sorted_rules())
        names = {v: n for n, v in g.node_names.items()}
        layers = {v: n for n, v in g.layer_names.items()}
        want = []
        for line in Path(prefix + ".scores").read_text().splitlines():
            u, v, layer, _ = line.split("\t")
            key = (("oldnew", (names[u], layers[layer])) if v == "NEW"
                   else ("oldold", (names[u], names[v], layers[layer])))
            want += [f"{u}\t{v}\t{layer}\t{rules.sorted_rules()[n].to_line()}"
                     for n in fired[key]]
        got = Path(why).read_text().splitlines()
        assert got == want and all(len(line.split("\t")) == 9 for line in got)
        checked += len(got)
    assert checked > 20


@pytest.fixture
def small_graph(tmp_path):
    prefix = str(tmp_path / "g")
    assert main(["generate", "--nodes", "40", "--layers", "2", "--avg-degree", "4",
                 "--labels", "2", "--seed", "3", "--out-prefix", prefix]) == 0
    return prefix


def test_explain_to_an_unwritable_path_exits_1(small_graph, tmp_path, capsys):
    rules_path = str(tmp_path / "r.tsv")
    assert main(["mine", small_graph + ".edges", "--attrs", small_graph + ".attrs",
                 "--support", "25%", "--size", "3", "--rules-out", rules_path,
                 "--patterns-out", str(tmp_path / "p.tsv")]) == 0
    capsys.readouterr()
    for path in (str(tmp_path), str(tmp_path / "missing" / "why.tsv")):
        assert main(["predict", small_graph + ".edges", "--attrs", small_graph + ".attrs",
                     "--rules", rules_path, "--explain", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


def test_explain_changes_no_score(small_graph, tmp_path, capsys):
    rules_path = str(tmp_path / "r.tsv")
    assert main(["mine", small_graph + ".edges", "--attrs", small_graph + ".attrs",
                 "--support", "25%", "--size", "3", "--rules-out", rules_path,
                 "--patterns-out", str(tmp_path / "p.tsv")]) == 0
    capsys.readouterr()
    dumps = []
    for extra in ([], ["--explain", str(tmp_path / "why.tsv")]):
        assert main(["predict", small_graph + ".edges", "--attrs", small_graph + ".attrs",
                     "--rules", rules_path, "--top", "7", *extra]) == 0
        dumps.append(capsys.readouterr())
    assert dumps[0] == dumps[1] and len(dumps[0].out.splitlines()) == 7
    g = load_multiplex(small_graph + ".edges", small_graph + ".attrs")
    rules = RuleSet.from_tsv(rules_path)
    assert dumps[0].out == "".join(
        score_dump(apply_rules(g, rules), g.node_names, g.layer_names).splitlines(True)[:7])
    explained = (tmp_path / "why.tsv").read_text().splitlines()
    assert {tuple(line.split("\t")[:3]) for line in explained} == {
        tuple(line.split("\t")[:3]) for line in dumps[0].out.splitlines()}
    assert all(len(line.split("\t")) == 9 for line in explained)

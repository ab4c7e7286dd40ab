import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from plexmine import evaluate, predict
from plexmine.cli import _support_arg, main
from plexmine.evaluate import kfold_split, sharma_score, temporal_split
from plexmine.io import load_multiplex, load_temporal
from plexmine.pipeline import (CrossValResult, cross_validate, evaluate_split,
                               make_rule_scorer, run_mining)
from plexmine.predict import apply_rules, load_score_dump, score_dump
from plexmine.rules import DEFAULT_MIN_CONFIDENCE, RuleSet, RuleTable


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def small_graph(tmp_path):
    prefix = str(tmp_path / "g")
    code, _, _ = run_cli("generate", "--nodes", "40", "--layers", "2",
                         "--avg-degree", "4", "--labels", "2", "--seed", "3",
                         "--out-prefix", prefix)
    assert code == 0
    return prefix


def test_version_mentions_code_scheme(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "canonical-code-scheme" in capsys.readouterr().out


def test_generate_writes_files(small_graph, tmp_path):
    edges = open(small_graph + ".edges").read()
    attrs = open(small_graph + ".attrs").read()
    assert len(attrs.splitlines()) == 40
    assert all(len(line.split("\t")) == 3 for line in edges.splitlines())


def test_mine_deterministic_and_streams_separate(small_graph, tmp_path):
    pat1 = str(tmp_path / "p1.tsv")
    rules1 = str(tmp_path / "r1.tsv")
    code, out, err = run_cli(
        "mine", small_graph + ".edges", "--attrs", small_graph + ".attrs",
        "--support", "20%", "--size", "3", "--confidence", "0.5",
        "--patterns-out", pat1, "--rules-out", rules1, "--timings")
    assert code == 0
    assert out == ""  # data went to files
    # timings on stderr only, one line per mining phase
    assert [line.split("\t")[0] for line in err.splitlines()] == [
        "preprocess_s", "mining_s", "rule_posthoc_s"]
    pat2 = str(tmp_path / "p2.tsv")
    rules2 = str(tmp_path / "r2.tsv")
    code, _, _ = run_cli(
        "mine", small_graph + ".edges", "--attrs", small_graph + ".attrs",
        "--support", "20%", "--size", "3", "--confidence", "0.5",
        "--patterns-out", pat2, "--rules-out", rules2)
    assert open(pat1).read() == open(pat2).read()
    assert open(rules1).read() == open(rules2).read()


def test_mine_both_modes_reports_equality(small_graph, tmp_path):
    code, _, err = run_cli(
        "mine", small_graph + ".edges", "--support", "30%", "--size", "3",
        "--rule-mode", "both",
        "--patterns-out", str(tmp_path / "p.tsv"),
        "--rules-out", str(tmp_path / "r.tsv"))
    assert code == 0
    assert "mode-equivalence\tequal" in err


@pytest.mark.parametrize("support, size, warning", [
    pytest.param("90%", "3", "exceeds every label class", id="sigma-above-labels"),
    pytest.param("20%", "1", "patterns and 0 rules", id="no-rules"),
    pytest.param("20%", "3", None, id="rules-found"),
])
def test_mine_warns_when_nothing_comes_out(small_graph, support, size, warning):
    args = ("mine", small_graph + ".edges", "--attrs", small_graph + ".attrs",
            "--support", support, "--size", size)
    code, out, err = run_cli(*args)
    assert code == 0
    g = load_multiplex(small_graph + ".edges", small_graph + ".attrs")
    run = run_mining(g, _support_arg(support), int(size), DEFAULT_MIN_CONFIDENCE)
    assert out == run.patterns.dump() + run.rules.to_tsv()
    if warning is None:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.startswith("warning: ") and warning in err


def test_mine_of_empty_graph_warns_once(tmp_path):
    edges = tmp_path / "empty.edges"
    edges.write_text("")
    code, _, err = run_cli("mine", str(edges))
    assert code == 0
    assert err == "warning: the graph has no nodes, so no pattern can be found\n"


def test_predict_roundtrip(small_graph, tmp_path):
    rules = str(tmp_path / "rules.tsv")
    run_cli("mine", small_graph + ".edges", "--support", "25%", "--size", "3",
            "--rules-out", rules, "--patterns-out", str(tmp_path / "p.tsv"))
    code, out, _ = run_cli("predict", small_graph + ".edges", "--rules", rules,
                           "--top", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) <= 5
    scores = [float(l.split("\t")[3]) for l in lines]
    assert scores == sorted(scores, reverse=True)


def test_predict_timings_add_one_stderr_line(small_graph, tmp_path):
    rules = str(tmp_path / "rules.tsv")
    run_cli("mine", small_graph + ".edges", "--support", "25%", "--size", "3",
            "--rules-out", rules, "--patterns-out", str(tmp_path / "p.tsv"))
    args = ("predict", small_graph + ".edges", "--rules", rules)
    code, plain, plain_err = run_cli(*args)
    assert (code, plain_err) == (0, "")
    code, out, err = run_cli(*args, "--timings")
    assert code == 0
    assert out == plain != ""
    [line] = err.splitlines()
    name, seconds = line.split("\t")
    assert name == "apply_s" and float(seconds) >= 0


def test_predict_top_ranks_once_and_writes_the_head_of_the_full_dump(small_graph, tmp_path,
                                                                    monkeypatch):
    rules_path = str(tmp_path / "rules.tsv")
    run_cli("mine", small_graph + ".edges", "--attrs", small_graph + ".attrs",
            "--support", "20%", "--size", "3", "--rules-out", rules_path)
    args = ("predict", small_graph + ".edges", "--attrs", small_graph + ".attrs",
            "--rules", rules_path)
    code, full, _ = run_cli(*args)
    assert code == 0 and len(full.splitlines()) > 5
    ranks = []
    ranked = predict._ranked

    def counted(table):
        ranks.append(table)
        return ranked(table)

    monkeypatch.setattr(predict, "_ranked", counted)
    code, top, _ = run_cli(*args, "--top", "5", "--explain", str(tmp_path / "why.tsv"))
    assert code == 0 and len(ranks) == 1
    assert top == "".join(full.splitlines(True)[:5])


def test_predict_that_skips_every_rule_warns_twice(small_graph, tmp_path, capsys):
    """In process, where the root logger has pytest's handlers."""
    rules = str(tmp_path / "rules.tsv")
    code, _, _ = run_cli("mine", small_graph + ".edges", "--attrs", small_graph + ".attrs",
                         "--support", "25%", "--size", "3", "--rules-out", rules,
                         "--patterns-out", str(tmp_path / "p.tsv"))
    n_rules = len(open(rules).read().splitlines())
    assert code == 0 and n_rules > 2
    # without --attrs every node has the default label, which no rule uses
    assert main(["predict", small_graph + ".edges", "--rules", rules]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"warning: skipped {n_rules} of {n_rules} rules: they reference a layer or label "
        "absent from the graph",
        f"warning: {n_rules} rules scored no candidate, so predict wrote no rows"]


def test_predict_sorts_the_rule_set_once(small_graph, tmp_path, monkeypatch):
    rules_path = str(tmp_path / "rules.tsv")
    run_cli("mine", small_graph + ".edges", "--attrs", small_graph + ".attrs",
            "--support", "20%", "--size", "3", "--rules-out", rules_path)
    # the nodes of label "a" take a label no rule names, so the rules with
    # an "a" node are skipped and the others still score
    attrs = str(tmp_path / "relabeled.attrs")
    with open(small_graph + ".attrs") as src, open(attrs, "w") as dst:
        for line in src:
            node, label = line.split()
            dst.write(f"{node} {'zz' if label == 'a' else label}\n")
    g = load_multiplex(small_graph + ".edges", attrs)
    rules = RuleSet.from_tsv(rules_path)
    n_fit = len(RuleTable(rules).fitting(g))
    assert 0 < n_fit < len(rules)
    want = score_dump(apply_rules(g, rules), g.node_names, g.layer_names)
    sorts = []
    sorted_rules = RuleSet.sorted_rules

    def counted(self):
        sorts.append(self)
        return sorted_rules(self)

    monkeypatch.setattr(RuleSet, "sorted_rules", counted)
    code, out, err = run_cli("predict", small_graph + ".edges", "--attrs", attrs,
                             "--rules", rules_path)
    assert code == 0 and len(sorts) == 1
    assert out == want != ""
    assert err == (f"warning: skipped {len(rules) - n_fit} of {len(rules)} rules: they "
                   "reference a layer or label absent from the graph\n")


def test_evaluate_kfold(small_graph):
    code, out, _ = run_cli(
        "evaluate", small_graph + ".edges", "--kfold", "3", "--seed", "1",
        "--support", "25%", "--size", "3", "--confidence", "0.4")
    assert code == 0
    assert "mean\tauc=" in out
    assert out.count("fold") == 3


def test_evaluate_sharma_and_sampled(small_graph):
    code, out, _ = run_cli(
        "evaluate", small_graph + ".edges", "--kfold", "3", "--seed", "1",
        "--method", "sharma", "--universe", "sampled:500")
    assert code == 0
    assert "mean\tauc=" in out


def test_evaluate_monoplex_classic(small_graph):
    code, out, _ = run_cli(
        "evaluate", small_graph + ".edges", "--kfold", "3", "--seed", "1",
        "--method", "ra", "--monoplex")
    assert code == 0
    assert "mean\tauc=" in out


def test_frustration_report(small_graph, tmp_path):
    rules = str(tmp_path / "rules.tsv")
    run_cli("mine", small_graph + ".edges", "--support", "25%", "--size", "3",
            "--rules-out", rules, "--patterns-out", str(tmp_path / "p.tsv"))
    code, out, _ = run_cli("frustration", "--rules", rules,
                           "--edges", small_graph + ".edges",
                           "--signs", "L0:+,L1:-")
    assert code == 0
    assert "zero_consequent" in out


@pytest.mark.parametrize("signs, message", [
    ("L9:+", "unknown layer name 'L9'"),
    ("L0:+,L0:-,L1:-", "layer 'L0' is given more than once"),
    ("L0:+,L0:x,L1:-", "layer 'L0' is given more than once"),
])
def test_bad_signs_spec_exits_2(small_graph, tmp_path, signs, message):
    rules = str(tmp_path / "rules.tsv")
    run_cli("mine", small_graph + ".edges", "--support", "25%", "--size", "3",
            "--rules-out", rules, "--patterns-out", str(tmp_path / "p.tsv"))
    code, out, err = run_cli("frustration", "--rules", rules,
                             "--edges", small_graph + ".edges", "--signs", signs)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.fixture
def temporal_graph(tmp_path):
    # two mirrored layers; edges arrive over days 1..10, then 11..13
    import random
    rng = random.Random(2)
    lines = []
    for i in range(40):
        u, v = rng.sample(range(12), 2)
        t = rng.randint(1, 10)
        lines.append(f"{u}\t{v}\tL0\t{t}")
        lines.append(f"{u}\t{v}\tL1\t{t}")
    for i in range(6):
        u, v = rng.sample(range(14), 2)
        lines.append(f"{u}\t{v}\tL0\t{11 + i % 3}")
    path = tmp_path / "temporal.edges"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_evaluate_temporal(temporal_graph):
    code, out, _ = run_cli(
        "evaluate", temporal_graph, "--temporal", "10", "3",
        "--support", "3", "--size", "3", "--confidence", "0.4")
    assert code == 0
    assert out.startswith("auc\t")
    assert "auc_oldnew" in out


def test_evaluate_ensemble_kfold(small_graph):
    code, out, _ = run_cli(
        "evaluate", small_graph + ".edges", "--kfold", "3", "--seed", "1",
        "--support", "25%", "--size", "3",
        "--ensemble", "rules,sharma", "--ensemble-mode", "base")
    assert code == 0
    assert "mean\tauc=" in out


@pytest.mark.parametrize("mode, per_fold", [("base", 1), ("opt", 2)])
def test_evaluate_ensemble_reuses_fold_universe(small_graph, monkeypatch, mode, per_fold):
    # ensemble builds the fold's universe (and, to tune weights, the
    # internal split's); the fold is then scored on the one already built
    calls = []
    build = evaluate.candidate_universe
    monkeypatch.setattr(evaluate, "candidate_universe",
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    code, out, err = run_cli(
        "evaluate", small_graph + ".edges", "--kfold", "2", "--seed", "1",
        "--support", "25%", "--size", "2",
        "--ensemble", "rules,sharma", "--ensemble-mode", mode)
    assert code == 0, err
    assert out.count("fold") == 2
    assert len(calls) == 2 * per_fold


@pytest.mark.parametrize("bad_line", [
    pytest.param("nosuchnode\tNEW\tL0\t0.5", id="unknown-node"),
    pytest.param("{u}\tNEW\tL9\t0.5", id="unknown-layer"),
    pytest.param("{u}\tNEW\tL0", id="field-count"),
    pytest.param("{u}\tNEW\tL0\tabc", id="non-numeric-score"),
    pytest.param("{u}\tNEW\tL0\tnan", id="nan-score"),
    pytest.param("{u}\tNEW\tL0\t-1e999", id="infinite-score"),
    pytest.param("{u}\tNEW\tL0\t0.5", id="repeated-candidate-other-score"),
])
def test_evaluate_bad_score_dump_is_parse_error(temporal_graph, tmp_path, bad_line):
    u = open(temporal_graph).readline().split("\t")[0]
    dump = tmp_path / "scores.tsv"
    dump.write_text(f"{u}\tNEW\tL0\t1.0\n" + bad_line.format(u=u) + "\n")
    code, _, err = run_cli("evaluate", temporal_graph, "--temporal", "10", "3",
                           "--method", "sharma", "--scores-tsv", str(dump))
    assert code == 1
    assert f"{dump}:2:" in err


@pytest.mark.parametrize("field, value, name", [
    pytest.param(5, None, "expected 6 fields", id="field-count"),  # the confidence column dropped
    pytest.param(3, "many", "supports", id="non-integer-support"),
    pytest.param(3, "0", "supports", id="support_a-zero"),
    pytest.param(4, "99999", "supports", id="support_c-above-support_a"),
    pytest.param(0, "Bu", "antecedent code", id="antecedent-code-form"),
    pytest.param(0, "Xq|_|", "antecedent code", id="antecedent-code-head"),
    pytest.param(0, "Bu|a|0-1:0:0:a;3-2:0:0:a;2-3:1:0:a", "antecedent code",
                 id="antecedent-disconnected"),
    pytest.param(0, "Bu|_|0-1:1:0:_;0-2:0:0:_",
                 "antecedent code Bu|_|0-1:1:0:_;0-2:0:0:_ is not canonical",
                 id="antecedent-not-canonical"),
    pytest.param(0, "Bu|_|0-1:0:1:_", "antecedent code", id="code-dirbit-on-undirected"),
    pytest.param(0, "Bd|_|0-1:0:7:_", "antecedent code", id="code-dirbit-not-0-or-1"),
    pytest.param(1, "Bu|a|x", "consequent code", id="consequent-code-form"),
    pytest.param(2, "C:0", "delta", id="delta-form"),
    pytest.param(2, "C:0-5:0:0", "delta", id="delta-outside-antecedent"),
    pytest.param(2, "N:7:0:0:_", "delta", id="node-delta-outside-antecedent"),
    pytest.param(2, "N:0:0:1:_", "delta", id="delta-dirbit-on-undirected"),
    pytest.param(1, "Bu|zz|", "consequent code", id="consequent-not-antecedent-plus-delta"),
    pytest.param(5, "abc", "confidence", id="confidence-form"),
    pytest.param(5, "0.000001", "confidence", id="confidence-not-support-ratio"),
    pytest.param(5, "nan", "confidence", id="confidence-nan"),
])
@pytest.mark.parametrize("command", ["predict", "frustration"])
def test_bad_rule_dump_is_parse_error(small_graph, tmp_path, field, value, name, command):
    rules = tmp_path / "rules.tsv"
    run_cli("mine", small_graph + ".edges", "--support", "25%", "--size", "3",
            "--rules-out", str(rules), "--patterns-out", str(tmp_path / "p.tsv"))
    good = rules.read_text().splitlines()[0]
    parts = good.split("\t")
    if value is None:
        del parts[field]
    else:
        parts[field] = value
    rules.write_text(good + "\n" + "\t".join(parts) + "\n")
    args = (["predict", small_graph + ".edges"] if command == "predict"
            else ["frustration", "--signs", "L0:+,L1:-"])
    code, _, err = run_cli(*args, "--rules", str(rules))
    assert code == 1
    assert err.startswith(f"error: {rules}:2: {name}"), err


def test_evaluate_external_scores_join_ensemble(temporal_graph, tmp_path):
    # build an external dump by predicting on the training window
    rules = str(tmp_path / "r.tsv")
    code, _, _ = run_cli("mine", temporal_graph, "--support", "3", "--size", "2",
                         "--rules-out", rules,
                         "--patterns-out", str(tmp_path / "p.tsv"))
    assert code == 1  # 4-column temporal file cannot load as a static graph

    static = tmp_path / "static.edges"
    static.write_text("".join(
        "\t".join(line.split("\t")[:3]) + "\n"
        for line in open(temporal_graph)))
    run_cli("mine", str(static), "--support", "3", "--size", "2",
            "--rules-out", rules, "--patterns-out", str(tmp_path / "p.tsv"))
    scores = str(tmp_path / "ext.tsv")
    run_cli("predict", str(static), "--rules", rules, "--out", scores)
    code, out, err = run_cli(
        "evaluate", temporal_graph, "--temporal", "10", "3",
        "--support", "3", "--size", "2", "--scores-tsv", scores)
    assert code == 0, err
    assert out.startswith("auc\t")
    # external dumps cannot drive weight optimization
    code, _, err = run_cli(
        "evaluate", temporal_graph, "--temporal", "10", "3",
        "--ensemble", "rules,sharma", "--ensemble-mode", "opt",
        "--scores-tsv", scores)
    assert code == 2
    assert "internal split" in err
    # and are rejected under k-fold
    code, _, err = run_cli(
        "evaluate", str(static), "--kfold", "3", "--scores-tsv", scores)
    assert code == 2


# -- one evaluation path: the CLI prints what evaluate_split returns ----------------


def _cv_text(reports) -> str:
    lines = [
        f"fold{i}\tauc={rep.auc:.6f}\t" + "\t".join(
            f"{seg.value}={'' if a is None else f'{a:.6f}'}" for seg, a in rep.segment_aucs.items())
        for i, rep in enumerate(reports)
    ]
    lines.append(f"mean\tauc={sum(r.auc for r in reports) / len(reports):.6f}")
    return "\n".join(lines) + "\n"


def _rules_25():
    return make_rule_scorer(0.25, 3, DEFAULT_MIN_CONFIDENCE)


@pytest.mark.parametrize("flags, reports", [
    pytest.param(("--method", "rules"),
                 lambda g: cross_validate(g, _rules_25(), k=3, seed=1).fold_reports,
                 id="rules"),
    pytest.param(("--method", "sharma", "--universe", "sampled:500"),
                 lambda g: cross_validate(g, sharma_score, 3, 1, 500).fold_reports,
                 id="sharma-sampled"),
    pytest.param(("--ensemble", "rules,sharma", "--ensemble-mode", "base"),
                 lambda g: [evaluate_split(s, [_rules_25(), sharma_score], seed=1)
                            for s in kfold_split(g, 3, 1)],
                 id="ensemble-base"),
    pytest.param(("--ensemble", "rules,sharma", "--ensemble-mode", "opt"),
                 lambda g: [evaluate_split(s, [_rules_25(), sharma_score], optimize=True, seed=1)
                            for s in kfold_split(g, 3, 1)],
                 id="ensemble-opt"),
])
def test_evaluate_kfold_prints_evaluate_split_per_fold(small_graph, flags, reports):
    code, out, err = run_cli("evaluate", small_graph + ".edges", "--kfold", "3", "--seed", "1",
                             "--support", "25%", "--size", "3", *flags)
    assert code == 0, err
    assert out == _cv_text(reports(load_multiplex(small_graph + ".edges")))


@pytest.mark.parametrize("with_dump", [False, True])
def test_evaluate_temporal_prints_evaluate_split(temporal_graph, tmp_path, with_dump):
    tg = load_temporal(temporal_graph)
    split = temporal_split(tg, 10, 3)
    tables, flags = [], []
    if with_dump:  # a second table: the dump joins the rules in an ensemble
        dump = tmp_path / "sharma.tsv"
        dump.write_text(score_dump(sharma_score(split.train), tg.base.node_names,
                                   tg.base.layer_names))
        tables, flags = [load_score_dump(str(dump), tg.base)], ["--scores-tsv", str(dump)]
    code, out, err = run_cli("evaluate", temporal_graph, "--temporal", "10", "3",
                             "--support", "3", "--size", "2", *flags)
    assert code == 0, err
    scorer = make_rule_scorer(3, 2, DEFAULT_MIN_CONFIDENCE)
    assert out == evaluate_split(split, [scorer], tables).to_tsv()


def test_evaluate_kfold_ensemble_of_one_method_is_that_method(small_graph):
    # one table makes no ensemble, under --kfold as under --temporal
    args = ("evaluate", small_graph + ".edges", "--kfold", "3", "--seed", "1")
    code, out, err = run_cli(*args, "--ensemble", "sharma")
    assert code == 0, err
    assert (code, out) == run_cli(*args, "--method", "sharma")[:2]


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("1\t2\n")
    code, _, err = run_cli("mine", str(bad), "--patterns-out",
                           str(tmp_path / "p"), "--rules-out", str(tmp_path / "r"))
    assert code == 1
    assert "expected 3 fields" in err


def test_exit_code_invalid_params(small_graph, tmp_path):
    code, _, err = run_cli("mine", small_graph + ".edges", "--support", "0",
                           "--patterns-out", str(tmp_path / "p"),
                           "--rules-out", str(tmp_path / "r"))
    assert code == 2
    assert "support" in err


def test_exit_code_missing_file(tmp_path):
    code, _, _ = run_cli("mine", str(tmp_path / "nope.edges"))
    assert code == 1


@pytest.mark.parametrize("support", ["abc", "40%x", "%"])
def test_bad_support_names_the_forms_it_accepts(small_graph, capsys, support):
    with pytest.raises(SystemExit) as exc:
        main(["mine", small_graph + ".edges", "--support", support])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --support: expected an integer count, a fraction such as 0.4 or a "
        f"percentage such as 40%, got {support!r}\n")


@pytest.mark.parametrize("command", ["mine", "evaluate"])
@pytest.mark.parametrize("confidence", ["nan", "-1", "1.5", "inf", "abc"])
def test_bad_confidence_names_its_range(small_graph, capsys, command, confidence):
    with pytest.raises(SystemExit) as exc:
        main([command, small_graph + ".edges", "--confidence", confidence])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"argument --confidence: expected a number in [0, 1], got {confidence!r}\n")


@pytest.mark.parametrize("degree", ["0", "-4", "1"])
def test_generate_rejects_average_degree_below_two(tmp_path, degree):
    code, _, err = run_cli("generate", "--nodes", "20", "--avg-degree", degree,
                           "--out-prefix", str(tmp_path / "g"))
    assert (code, err) == (2, "error: avg_degree must be >= 2\n")
    assert list(tmp_path.iterdir()) == []


def test_generate_warns_that_odd_degree_rounds_down(tmp_path):
    code, _, err = run_cli("generate", "--nodes", "30", "--layers", "1", "--avg-degree", "5",
                           "--out-prefix", str(tmp_path / "g"))
    assert code == 0
    assert err.splitlines()[0] == "warning: odd --avg-degree 5 rounds down to 4"


@pytest.mark.parametrize("flags", [["--attrs", "{g}.attrs"], ["--directed"]])
def test_frustration_takes_no_flag_that_layer_names_ignore(small_graph, tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        main(["frustration", "--rules", str(tmp_path / "r.tsv"), "--signs", "L0:+",
              "--edges", small_graph + ".edges", *(f.format(g=small_graph) for f in flags)])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    (["evaluate", "{g}.edges", "--kfold", "2", "--keep-layers", "L0"],
     "--keep-layers needs --monoplex"),
    (["mine", "{g}.edges", "--timings-out", "{d}/t.tsv", "--rules-out", "{d}/r.tsv"],
     "--timings-out needs --timings"),
    (["predict", "{g}.edges", "--rules", "{d}/r.tsv", "--top", "-3"], "--top must be >= 1, got -3"),
    (["predict", "{g}.edges", "--rules", "{d}/r.tsv", "--top", "0"], "--top must be >= 1, got 0"),
    (["evaluate", "{g}.edges", "--kfold", "2", "--method", "sharma", "--ensemble", "rules,sharma"],
     "--ensemble replaces --method; give one of them"),
    (["evaluate", "{g}.edges", "--temporal", "10", "3", "--kfold", "2"],
     "--temporal replaces --kfold; give one of them"),
    (["evaluate", "{g}.edges", "--kfold", "3", "--ensemble-mode", "opt"],
     "--ensemble-mode opt needs --ensemble with two or more methods"),
    (["evaluate", "{g}.edges", "--kfold", "3", "--method", "sharma", "--ensemble-mode", "opt"],
     "--ensemble-mode opt needs --ensemble with two or more methods"),
    (["evaluate", "{g}.edges", "--kfold", "3", "--ensemble", "sharma", "--ensemble-mode", "opt"],
     "--ensemble-mode opt needs --ensemble with two or more methods"),
])
def test_flag_that_would_do_nothing_is_invalid(small_graph, tmp_path, args, message):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run_cli(*(a.format(g=small_graph, d=out_dir) for a in args))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(out_dir.iterdir()) == []


def test_split_and_cv_result_hold_only_fields_that_are_read():
    assert [f.name for f in fields(evaluate.Split)] == ["train", "test_edges"]
    assert [f.name for f in fields(CrossValResult)] == ["fold_reports", "mean_auc"]


@pytest.mark.parametrize("universe", ["sampled:x", "sampled:", "sampled:1.5", "bogus"])
def test_bad_universe_names_the_form_it_expects(small_graph, universe):
    code, _, err = run_cli("evaluate", small_graph + ".edges", "--kfold", "2",
                           "--method", "sharma", "--universe", universe)
    assert code == 2
    assert err == f"error: --universe must be full or sampled:N, got {universe!r}\n"


@pytest.mark.parametrize("target", ["edges", "attrs", "rules", "temporal", "scores"])
def test_input_that_is_not_utf8_is_parse_error(small_graph, temporal_graph, tmp_path, target):
    rules = tmp_path / "rules.tsv"
    run_cli("mine", small_graph + ".edges", "--support", "25%", "--size", "2",
            "--rules-out", str(rules), "--patterns-out", str(tmp_path / "p.tsv"))
    u = open(temporal_graph).readline().split("\t")[0]
    scores = tmp_path / "scores.tsv"
    scores.write_text(f"{u}\tNEW\tL0\t1.0\n{u}\tNEW\tL1\t0.5\n")
    paths = {"edges": small_graph + ".edges", "attrs": small_graph + ".attrs",
             "rules": str(rules), "temporal": temporal_graph, "scores": str(scores)}
    with open(paths[target], "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    bad = tmp_path / f"bad.{target}"
    bad.write_bytes(lines[0] + b"\xff\xfe" + b"".join(lines[1:]))
    paths[target] = str(bad)
    if target in ("edges", "attrs", "rules"):
        args = ["predict", paths["edges"], "--attrs", paths["attrs"], "--rules", paths["rules"]]
    else:
        args = ["evaluate", paths["temporal"], "--temporal", "10", "3",
                "--method", "sharma", "--scores-tsv", paths["scores"]]
    code, _, err = run_cli(*args)
    assert (code, err) == (1, f"error: {bad}:2: not valid UTF-8\n")


# -- exit-code fuzzing of dump files ----------------------------------------------

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)
FUZZ_TEXT = st.one_of(
    st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e999", "0x10", "-1", "NEW",
                     "C:", "N:", "C:0-", "Bu|", "Bu|zz|0-1:0:0:a", "é"]),
    st.text(alphabet="0123456789-:|_.abNC \t", max_size=10),
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A graph with a valid rule dump, and a temporal graph with a valid
    score dump, written once for every fuzz example."""
    d = tmp_path_factory.mktemp("fuzz")
    prefix = str(d / "g")
    run_cli("generate", "--nodes", "30", "--layers", "2", "--avg-degree", "4",
            "--labels", "2", "--seed", "3", "--out-prefix", prefix)
    rules = d / "rules.tsv"
    run_cli("mine", prefix + ".edges", "--attrs", prefix + ".attrs", "--support", "25%",
            "--size", "3", "--rules-out", str(rules), "--patterns-out", str(d / "p.tsv"))
    rng = random.Random(2)
    lines = []
    for t in range(1, 14):
        for _ in range(4):
            u, v = rng.sample(range(14 if t > 10 else 12), 2)
            lines.append(f"{u}\t{v}\tL{t % 2}\t{t}")
    temporal = d / "temporal.edges"
    temporal.write_text("\n".join(lines) + "\n")
    static = d / "static.edges"
    static.write_text("".join("\t".join(x.split("\t")[:3]) + "\n" for x in lines[:40]))
    static_rules = d / "static_rules.tsv"
    run_cli("mine", str(static), "--support", "3", "--size", "2",
            "--rules-out", str(static_rules), "--patterns-out", str(d / "sp.tsv"))
    scores = d / "scores.tsv"
    run_cli("predict", str(static), "--rules", str(static_rules), "--out", str(scores))
    return {"dir": d, "graph": prefix, "rules": rules.read_text().splitlines(),
            "temporal": str(temporal), "scores": scores.read_text().splitlines()}


def _mutated(lines: list[str], data) -> str:
    """A few edits of a dump: drop a field, swap two fields (codes among
    them), put text in a field, or point a delta outside its antecedent."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(0, len(lines) - 1))
        parts = lines[n].split("\t")
        f = data.draw(st.integers(0, len(parts) - 1))
        kind = data.draw(st.sampled_from(["drop", "swap", "text", "delta"]))
        if kind == "drop":
            del parts[f]
        elif kind == "swap":
            g = data.draw(st.integers(0, len(parts) - 1))
            parts[f], parts[g] = parts[g], parts[f]
        elif kind == "text":
            parts[f] = data.draw(FUZZ_TEXT) + data.draw(st.sampled_from(["", parts[f]]))
        else:
            index = st.integers(-3, 12).map(str)
            head = parts[f].split(":")
            if head[0] == "C" and len(head) > 1:
                head[1] = f"{data.draw(index)}-{data.draw(index)}"
            elif head[0] == "N" and len(head) > 1:
                head[1] = data.draw(index)
            parts[f] = ":".join(head)
        lines[n] = "\t".join(parts)
    return "\n".join(lines) + "\n"


def _assert_exit_contract(code: int, err: str) -> None:
    assert code in (0, 1), err
    assert "Traceback" not in err


# how every rule-dump parse error begins, after `path:line: `
RULE_DUMP_ERRORS = ("expected 6 fields", "supports", "confidence", "antecedent code",
                    "delta", "consequent code", "conflicting supports")


@pytest.mark.parametrize("command", ["predict", "frustration"])
@FUZZ
@given(data=st.data())
def test_mutated_rule_dump_keeps_exit_contract(fuzz_inputs, command, data):
    path = fuzz_inputs["dir"] / f"mutated_{command}.tsv"
    path.write_text(_mutated(fuzz_inputs["rules"], data))
    edges = fuzz_inputs["graph"] + ".edges"
    args = (["predict", edges] if command == "predict"
            else ["frustration", "--edges", edges, "--signs", "L0:+,L1:-"])
    code, _, err = run_cli(*args, "--rules", str(path))
    _assert_exit_contract(code, err)
    if code == 1:  # a field name, not a Python exception text, opens the message
        assert err.startswith(f"error: {path}:"), err
        assert err.split(": ", 2)[2].startswith(RULE_DUMP_ERRORS), err


@FUZZ
@given(data=st.data())
def test_mutated_score_dump_keeps_exit_contract(fuzz_inputs, data):
    path = fuzz_inputs["dir"] / "mutated_scores.tsv"
    path.write_text(_mutated(fuzz_inputs["scores"], data))
    code, _, err = run_cli("evaluate", fuzz_inputs["temporal"], "--temporal", "10", "3",
                           "--method", "sharma", "--scores-tsv", str(path))
    _assert_exit_contract(code, err)


# -- exit-code fuzzing of graph files ------------------------------------------------

NOT_UTF8 = [b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80abc"]


def _mutated_file(lines: list[str], data) -> bytes:
    """A few edits of a whitespace-separated file: bytes that are not UTF-8,
    a dropped or an extra field, a field replaced by text or by another
    name, or a line repeated as is or with its last field changed (a
    conflicting label)."""
    out = [line.encode() for line in lines]
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(0, len(lines) - 1))
        parts = lines[n].split("\t")
        f = data.draw(st.integers(0, len(parts) - 1))
        kind = data.draw(st.sampled_from(["bytes", "drop", "extra", "text", "name",
                                          "repeat", "conflict"]))
        if kind == "bytes":
            line = out[n]
            at = data.draw(st.integers(0, len(line)))
            out[n] = line[:at] + data.draw(st.sampled_from(NOT_UTF8)) + line[at:]
            continue
        if kind == "drop":
            del parts[f]
        elif kind == "extra":
            parts.insert(f, data.draw(FUZZ_TEXT))
        elif kind == "text":
            parts[f] = data.draw(FUZZ_TEXT)
        elif kind == "name":
            parts[f] = data.draw(st.sampled_from(["1", "01", "99", "L0", "L1", "a", "é"]))
        else:
            at = data.draw(st.integers(0, len(lines)))
            if kind == "conflict":
                parts[-1] = data.draw(st.sampled_from(["x", "L1", "7", parts[-1] + "z"]))
            out.insert(at, "\t".join(parts).encode())
            continue
        out[n] = "\t".join(parts).encode()
    return b"\n".join(out) + b"\n"


@pytest.fixture(scope="module")
def graph_fuzz_inputs(fuzz_inputs):
    """``fuzz_inputs`` plus an attribute file for its temporal graph."""
    d = fuzz_inputs["dir"]
    tattrs = d / "temporal.attrs"
    tattrs.write_text("".join(f"{n}\t{'ab'[n % 2]}\n" for n in range(14)))
    graph = fuzz_inputs["graph"]
    return {"dir": d, "rules": str(d / "rules.tsv"),
            "edges": graph + ".edges", "attrs": graph + ".attrs",
            "temporal": fuzz_inputs["temporal"], "tattrs": str(tattrs)}


def _graph_command(command: str, paths: dict) -> list[str]:
    mining = ["--support", "25%", "--size", "2"]
    if command == "mine":
        return ["mine", paths["edges"], "--attrs", paths["attrs"], *mining,
                "--patterns-out", str(paths["dir"] / "p.out"),
                "--rules-out", str(paths["dir"] / "r.out")]
    if command == "predict":
        return ["predict", paths["edges"], "--attrs", paths["attrs"],
                "--rules", paths["rules"], "--out", str(paths["dir"] / "s.out")]
    if command == "evaluate-kfold":
        return ["evaluate", paths["edges"], "--attrs", paths["attrs"], "--kfold", "3",
                *mining]
    return ["evaluate", paths["temporal"], "--attrs", paths["tattrs"],
            "--temporal", "10", "3", "--support", "2", "--size", "2"]


@FUZZ
@given(data=st.data())
def test_mutated_frustration_edge_file_keeps_exit_contract(graph_fuzz_inputs, data):
    with open(graph_fuzz_inputs["edges"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    mutated = graph_fuzz_inputs["dir"] / "mutated_frustration.edges"
    mutated.write_bytes(_mutated_file(lines, data))
    code, _, err = run_cli("frustration", "--rules", graph_fuzz_inputs["rules"],
                           "--edges", str(mutated), "--signs", "L0:+,L1:-")
    _assert_exit_contract(code, err)
    if code == 1:
        assert err.startswith(f"error: {mutated}:"), err


@pytest.mark.parametrize("command, target", [
    ("mine", "edges"), ("mine", "attrs"), ("predict", "edges"), ("predict", "attrs"),
    ("evaluate-kfold", "edges"), ("evaluate-kfold", "attrs"),
    ("evaluate-temporal", "temporal"), ("evaluate-temporal", "tattrs"),
])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_graph_file_keeps_exit_contract(graph_fuzz_inputs, command, target, data):
    paths = dict(graph_fuzz_inputs)
    with open(paths[target], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    mutated = paths["dir"] / f"mutated.{target}"
    mutated.write_bytes(_mutated_file(lines, data))
    paths[target] = str(mutated)
    code, _, err = run_cli(*_graph_command(command, paths))
    _assert_exit_contract(code, err)
    if code == 1:  # the file and line at fault open the message
        assert err.startswith(f"error: {mutated}:"), err

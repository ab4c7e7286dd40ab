import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from plexmine import evaluate
from plexmine.cli import main


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
    assert "mining_s" in err  # timings on stderr only
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
])
def test_evaluate_bad_score_dump_is_parse_error(temporal_graph, tmp_path, bad_line):
    u = open(temporal_graph).readline().split("\t")[0]
    dump = tmp_path / "scores.tsv"
    dump.write_text(f"{u}\tNEW\tL0\t1.0\n" + bad_line.format(u=u) + "\n")
    code, _, err = run_cli("evaluate", temporal_graph, "--temporal", "10", "3",
                           "--method", "sharma", "--scores-tsv", str(dump))
    assert code == 1
    assert f"{dump}:2:" in err


@pytest.mark.parametrize("field, value", [
    pytest.param(5, None, id="field-count"),  # the confidence column dropped
    pytest.param(3, "many", id="non-integer-support"),
    pytest.param(3, "0", id="support_a-zero"),
    pytest.param(4, "99999", id="support_c-above-support_a"),
])
@pytest.mark.parametrize("command", ["predict", "frustration"])
def test_bad_rule_dump_is_parse_error(small_graph, tmp_path, field, value, command):
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
    assert f"{rules}:2:" in err


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

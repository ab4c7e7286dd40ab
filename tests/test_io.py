import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from plexmine.graph import MultiplexGraph
from plexmine.io import (
    ParseError,
    canonical_edge_text,
    load_multiplex,
    load_temporal,
    save_multiplex,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_drops_loops_and_comments(tmp_path):
    path = _write(tmp_path, "g.edges", "# comment\n1\t2\ta\n2\t1\ta\n1\t1\ta\n")
    g = load_multiplex(path, directed=True)
    assert g.n_edges == 2
    gu = load_multiplex(path, directed=False)
    assert gu.n_edges == 1


def test_malformed_line_reports_lineno(tmp_path):
    path = _write(tmp_path, "bad.edges", "1\t2\ta\n1\t2\n")
    with pytest.raises(ParseError) as err:
        load_multiplex(path)
    assert "bad.edges:2" in str(err.value)


def test_attr_unknown_node_rejected(tmp_path):
    e = _write(tmp_path, "g.edges", "1\t2\ta\n")
    a = _write(tmp_path, "g.attrs", "7\tboss\n")
    with pytest.raises(ParseError) as err:
        load_multiplex(e, a)
    assert "7" in str(err.value)


def test_dense_remap_and_name_table(tmp_path):
    path = _write(tmp_path, "g.edges", "10\t2\tx\n2\t5\ty\n")
    g = load_multiplex(path)
    assert g.nodes == frozenset({0, 1, 2})
    assert sorted(g.node_names.values()) == ["10", "2", "5"]
    # numeric sort: 2 -> 0, 5 -> 1, 10 -> 2
    assert g.node_names[0] == "2" and g.node_names[2] == "10"
    assert sorted(g.layer_names.values()) == ["x", "y"]


def test_equal_integer_names_load_alike_under_every_hash_seed(tmp_path):
    # 1, 01 and 001 are one integer; string order breaks the tie, so no set
    # iteration order (which PYTHONHASHSEED changes) reaches the node ids
    edges = _write(tmp_path, "g.edges",
                   "1\t5\tL0\n01\t5\tL0\n001\t7\tL1\n01\t7\tL1\n1\t001\tL1\n5\t7\tL0\n")
    attrs = _write(tmp_path, "g.attrs", "1\ta\n01\tb\n001\ta\n5\tb\n7\ta\n")
    script = (
        "import sys\n"
        "from plexmine.cli import main\n"
        "from plexmine.io import load_multiplex\n"
        "e, a, d = sys.argv[1:]\n"
        "print(load_multiplex(e, a).node_names)\n"
        "main(['mine', e, '--attrs', a, '--support', '1', '--size', '3',\n"
        "      '--patterns-out', d + '/p.tsv', '--rules-out', d + '/r.tsv'])\n"
        "print(open(d + '/p.tsv').read() + open(d + '/r.tsv').read())\n"
        "main(['predict', e, '--attrs', a, '--rules', d + '/r.tsv'])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in range(6):
        out_dir = tmp_path / f"seed{seed}"
        out_dir.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, edges, attrs, str(out_dir)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    (out,) = outputs
    assert out.startswith("{0: '001', 1: '01', 2: '1', 3: '5', 4: '7'}\n")
    assert "\n01\tNEW\t" in out and "\n001\tNEW\t" in out  # the score dump


def test_attr_repeated_label_accepted_conflicting_label_rejected(tmp_path):
    e = _write(tmp_path, "g.edges", "0\t1\ta\n")
    g = load_multiplex(e, _write(tmp_path, "same.attrs", "0\tx\n1\ty\n0\tx\n"))
    assert {g.node_names[n]: g.attrs[n] for n in g.nodes} == {"0": "x", "1": "y"}
    conflict = _write(tmp_path, "conflict.attrs", "0\tx\n1\ty\n0\tz\n")
    msg = f"{conflict}:3: node '0' already has label 'x', not 'z'"
    with pytest.raises(ParseError, match=re.escape(msg)):
        load_multiplex(e, conflict)


def test_line_that_is_not_utf8_reports_lineno(tmp_path):
    # a comment line is checked too: the file as a whole must be UTF-8
    for text in (b"1\t2\ta\n\xff\t3\ta\n", b"1\t2\ta\n# caf\xe9\n"):
        path = tmp_path / "g.edges"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: not valid UTF-8")):
            load_multiplex(str(path))
    path.write_bytes("1\t2\tcafé\n# 🙂\n".encode())
    assert load_multiplex(str(path)).layer_names == {0: "café"}


def test_missing_attrs_default(tmp_path):
    e = _write(tmp_path, "g.edges", "1\t2\ta\n2\t3\ta\n")
    a = _write(tmp_path, "g.attrs", "1\tboss\n")
    g = load_multiplex(e, a)
    labels = {g.node_names[n]: g.attrs[n] for n in g.nodes}
    assert labels == {"1": "boss", "2": "_", "3": "_"}


def test_serialize_load_idempotent(tmp_path):
    path = _write(tmp_path, "g.edges", "3\t1\tb\n1\t2\ta\n2\t3\ta\n")
    g = load_multiplex(path)
    out1 = tmp_path / "round1.edges"
    save_multiplex(g, str(out1))
    g2 = load_multiplex(str(out1))
    assert canonical_edge_text(g2) == out1.read_text(encoding="utf-8")
    # second pass is byte-identical
    out2 = tmp_path / "round2.edges"
    save_multiplex(g2, str(out2))
    assert out1.read_text() == out2.read_text()


def test_save_lists_only_nodes_an_edge_touches(tmp_path):
    # the edge file cannot hold an edgeless node, and the loader rejects an
    # attribute line for a node its edge file lacks
    g = MultiplexGraph([0, 1, 2], [(0, 1, 0)], {0: "a", 1: "b", 2: "c"})
    edges, attrs = tmp_path / "g.edges", tmp_path / "g.attrs"
    save_multiplex(g, str(edges), str(attrs))
    assert attrs.read_text(encoding="utf-8") == "0\ta\n1\tb\n"
    h = load_multiplex(str(edges), str(attrs))
    assert {h.node_names[n]: h.attrs[n] for n in h.nodes} == {"0": "a", "1": "b"}


def test_temporal_load_and_node_times(tmp_path):
    path = _write(tmp_path, "g.tedges", "1\t2\ta\t5\n2\t3\ta\t9\n1\t2\ta\t7\n")
    tg = load_temporal(path)
    assert tg.base.n_edges == 2
    (e1,) = [e for e in tg.base.edges if tg.edge_times[e] == 5]
    assert tg.edge_times[e1] == 5  # duplicate keeps earliest
    names = {tg.base.node_names[n]: t for n, t in tg.node_times.items()}
    assert names == {"1": 5, "2": 5, "3": 9}
    assert tg.time_range == (5, 9)


def test_temporal_bad_timestamp(tmp_path):
    path = _write(tmp_path, "g.tedges", "1\t2\ta\tlate\n")
    with pytest.raises(ParseError):
        load_temporal(path)


@pytest.mark.parametrize("directed", [False, True])
def test_temporal_base_equals_untimed_load(tmp_path, directed):
    # loops (node e and layer L3 only in one), duplicates in both
    # orientations, and repeated triples with other times
    rows = ["b\ta\tL2\t4", "a\tb\tL2\t1", "a\ta\tL1\t0", "c\td\tL1\t3",
            "c\td\tL1\t2", "d\tc\tL1\t8", "e\te\tL3\t5", "10\t2\tL1\t3"]
    rng = random.Random(1)
    for _ in range(40):
        u, v = rng.choice("abcdfg"), rng.choice("abcdfg")
        rows.append(f"{u}\t{v}\tL{rng.randrange(3)}\t{rng.randrange(9)}")
    attrs = _write(tmp_path, "g.attrs", "a\tx\ne\ty\n10\tz\n")
    timed = _write(tmp_path, "g.tedges", "\n".join(rows) + "\n")
    untimed = _write(tmp_path, "g.edges",
                     "".join(row.rsplit("\t", 1)[0] + "\n" for row in rows))
    for attr_path in (None, attrs):
        base = load_temporal(timed, attr_path, directed).base
        g = load_multiplex(untimed, attr_path, directed)
        assert base == g
        assert (base.node_names, base.layer_names) == (g.node_names, g.layer_names)

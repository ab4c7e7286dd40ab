"""Edge-list / attribute file parsing and canonical serialization.

File formats (UTF-8, TAB-separated, ``#`` comments; a line that is not
UTF-8 is a parse error):
    edge file:          u <TAB> v <TAB> layer
    attribute file:     node <TAB> label
    temporal edge file: u <TAB> v <TAB> layer <TAB> t      (integer t)

Node and layer identifiers in files are arbitrary strings; the loader
remaps nodes to dense 0..n-1 ids (numeric sort when every id parses as an
integer, ties such as ``1`` and ``01`` broken by string order;
lexicographic otherwise) and keeps the original names in a sidecar table.
Layers are numbered by sorted name.
"""

from __future__ import annotations

import os
import re
from typing import Iterable, Iterator

from .graph import MultiplexGraph, TemporalMultiplexGraph


class ParseError(ValueError):
    """Malformed input file; carries path and line number."""

    def __init__(self, path: str, lineno: int, msg: str):
        super().__init__(f"{path}:{lineno}: {msg}")
        self.path = path
        self.lineno = lineno


# what the ``surrogateescape`` error handler decodes a byte that is not UTF-8 to
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def text_lines(path: str) -> Iterator[tuple[int, str]]:
    """Line number and stripped text of every line of ``path`` that is
    neither blank nor a ``#`` comment.

    Raises ``ParseError(path, line)`` at the first line that is not UTF-8.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line.isascii() and _UNDECODABLE.search(line):
                raise ParseError(path, lineno, "not valid UTF-8")
            if line and not line.startswith("#"):
                yield lineno, line


def _rows(path: str, n_fields: int) -> Iterable[tuple[int, list[str]]]:
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) != n_fields:
            raise ParseError(path, lineno, f"expected {n_fields} fields, got {len(parts)}")
        yield lineno, parts


def _dense_ids(names: set[str]) -> dict[str, int]:
    try:
        ordered = sorted(names, key=lambda s: (int(s), s))
    except ValueError:
        ordered = sorted(names)
    return {name: i for i, name in enumerate(ordered)}


def _read_edges(path: str, n_fields: int) -> tuple[list[list], dict[str, int], dict[str, int]]:
    """An edge file's rows (a fourth field is an integer time), node ids and layer ids."""
    raw = []
    for lineno, parts in _rows(path, n_fields):
        if n_fields == 4:
            try:
                parts[3] = int(parts[3])
            except ValueError:
                raise ParseError(path, lineno, f"non-integer timestamp {parts[3]!r}") from None
        raw.append(parts)
    nid = _dense_ids({n for parts in raw for n in parts[:2]})
    lid = {name: i for i, name in enumerate(sorted({parts[2] for parts in raw}))}
    return raw, nid, lid


def _graph(edges, nid, lid, attr_path: str | None, directed: bool) -> MultiplexGraph:
    return MultiplexGraph(
        nodes=range(len(nid)),
        edges=edges,
        attrs=_load_attrs(attr_path, nid) if attr_path else {},
        directed=directed,
        layers=range(len(lid)),
        layer_names={i: name for name, i in lid.items()},
        node_names={i: name for name, i in nid.items()},
    )


def load_multiplex(
    edge_path: str, attr_path: str | None = None, directed: bool = False
) -> MultiplexGraph:
    """Load a multiplex graph; drops loops and collapses duplicate triples."""
    raw, nid, lid = _read_edges(edge_path, 3)
    edges = {(nid[u], nid[v], lid[l]) for u, v, l in raw if u != v}
    return _graph(edges, nid, lid, attr_path, directed)


def _load_attrs(path: str, nid: dict[str, int]) -> dict[int, str]:
    """Node labels; a node may be listed again only with the same label."""
    attrs: dict[int, str] = {}
    for lineno, (node, label) in _rows(path, 2):
        if node not in nid:
            raise ParseError(path, lineno, f"attribute references unknown node {node!r}")
        if attrs.setdefault(nid[node], label) != label:
            raise ParseError(path, lineno, f"node {node!r} already has label "
                                           f"{attrs[nid[node]]!r}, not {label!r}")
    return attrs


def load_temporal(
    edge_path: str, attr_path: str | None = None, directed: bool = False
) -> TemporalMultiplexGraph:
    """Load a temporal edge file. Duplicate triples keep the earliest time."""
    raw, nid, lid = _read_edges(edge_path, 4)
    times: dict[tuple[int, int, int], int] = {}
    for u, v, l, t in raw:
        if u == v:
            continue
        a, b = nid[u], nid[v]
        if not directed and a > b:
            a, b = b, a
        key = (a, b, lid[l])
        times[key] = min(times.get(key, t), t)
    base = _graph(times.keys(), nid, lid, attr_path, directed)
    node_times = {}
    for (u, v, _), t in times.items():
        for n in (u, v):
            node_times[n] = min(node_times.get(n, t), t)
    return TemporalMultiplexGraph(base=base, edge_times=times, node_times=node_times)


def canonical_edge_text(g: MultiplexGraph) -> str:
    """Canonical serialization: one edge per line, sorted by (layer, u, v)."""
    lines = []
    for u, v, l in sorted(g.edges, key=lambda e: (e[2], e[0], e[1])):
        lines.append(f"{g.node_names[u]}\t{g.node_names[v]}\t{g.layer_names[l]}")
    return "\n".join(lines) + ("\n" if lines else "")


def canonical_attr_text(g: MultiplexGraph) -> str:
    """One label line per node that an edge touches, in node order: the edge
    file holds no other node, so the loader would reject a line for one."""
    touched = sorted({n for u, v, _ in g.edges for n in (u, v)})
    lines = [f"{g.node_names[n]}\t{g.attrs[n]}" for n in touched]
    return "\n".join(lines) + ("\n" if lines else "")


def save_multiplex(g: MultiplexGraph, edge_path: str, attr_path: str | None = None) -> None:
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_edge_text(g))
    if attr_path:
        with open(attr_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_attr_text(g))


def dataset_paths(name: str, data_dir: str | None = None) -> tuple[str, str | None]:
    """Resolve data/<name>.edges (+ optional .attrs) under a data directory.

    The directory defaults to $PLEXMINE_DATA_DIR, falling back to ./data.
    Raises FileNotFoundError when the edge file is absent.
    """
    root = data_dir or os.environ.get("PLEXMINE_DATA_DIR", "data")
    edge = os.path.join(root, f"{name}.edges")
    attr = os.path.join(root, f"{name}.attrs")
    if not os.path.exists(edge):
        raise FileNotFoundError(edge)
    return edge, (attr if os.path.exists(attr) else None)

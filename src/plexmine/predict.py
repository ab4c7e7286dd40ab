"""Rule application: score unobserved triples on the training graph.

Every rule fires once per antecedent embedding: the delta edge is
instantiated through the embedding and the rule's confidence is added to
the implied (u, v, l) score, or to the (u, l) old-new score when the rule
introduces a fresh node. Firings that land on an existing training triple
contribute nothing. Automorphic embeddings (same node image set) that
instantiate the same prediction are collapsed first, so symmetric
antecedents do not inflate scores by their automorphism count.

Each candidate is one int64 key ``(l * (W + 1) + u) * (W + 1) + v``, where
W is the training graph's index width (largest node id + 1) and ``v == W``
stands for NEW. The key is a bijection for any integer layer and any node
in ``[0, W)``. ``ScoreTable.from_keys`` writes a table from keys and
``ScoreTable.key_arrays`` reads one back as keys, so score tables, the
candidate universe and the ensemble share this one encoding.

Accumulation works on arrays. Rules are visited in sorted order, which
groups them by antecedent, and each antecedent's embeddings are fetched
once and given per-row node-set ids. Each rule encodes its firings as
candidate keys, counts the distinct node sets per key, and appends (key,
confidence x count) to one flat list. At the end one ``np.unique`` and one
weighted ``np.bincount`` sum the contributions in sorted-rule order,
exactly as adding them one by one to 0.0 would.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .graph import MultiplexGraph
from .io import ParseError, text_lines
from .matcher import match_array
from .miner import PatternSet
from .rules import AssociationRule, RuleSet

logger = logging.getLogger(__name__)


class LinkClass(str, Enum):
    OLD_OLD = "oldold"
    OLD_NEW = "oldnew"


def encode_keys(width: int, l, u, v) -> np.ndarray:
    """Candidate keys of (layer, u, v); ``v == width`` stands for NEW."""
    base = width + 1
    return (np.asarray(l, dtype=np.int64) * base + u) * base + v


def decode_keys(keys: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of ``encode_keys``: (layer, u, v) arrays."""
    lu, v = np.divmod(keys, width + 1)
    l, u = np.divmod(lu, width + 1)
    return l, u, v


@dataclass
class ScoreTable:
    """Sparse prediction scores.

    ``oldold`` maps (u, v, l) for links between known nodes; ``oldnew``
    maps (u, l) for "u will connect to a previously unseen node in l".
    Candidates not listed implicitly score ``baseline`` (0 for rule and
    baseline scorers; ensembles shift it).
    """

    directed: bool
    oldold: dict[tuple[int, int, int], float] = field(default_factory=dict)
    oldnew: dict[tuple[int, int], float] = field(default_factory=dict)
    baseline: float = 0.0
    provenance: dict[tuple, list[int]] | None = None

    @classmethod
    def from_keys(cls, directed: bool, width: int, keys: np.ndarray, scores: np.ndarray,
                  baseline: float = 0.0) -> "ScoreTable":
        """The table scoring each candidate key (see the module docstring)
        with its score; each segment's entries keep the order of ``keys``."""
        l, u, v = decode_keys(keys, width)
        new = v == width
        oldold = zip(u[~new].tolist(), v[~new].tolist(), l[~new].tolist())
        oldnew = zip(u[new].tolist(), l[new].tolist())
        return cls(directed, oldold=dict(zip(oldold, scores[~new].tolist())),
                   oldnew=dict(zip(oldnew, scores[new].tolist())), baseline=baseline)

    def key_arrays(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate keys and scores of every entry, old-old then old-new.

        Entries with a node outside [0, width) are dropped first: no
        universe holds them, and their keys could alias a candidate.
        """
        oo = np.array(list(self.oldold), dtype=np.int64).reshape(-1, 3)
        on = np.array(list(self.oldnew), dtype=np.int64).reshape(-1, 2)
        u = np.concatenate([oo[:, 0], on[:, 0]])
        v = np.concatenate([oo[:, 1], np.full(len(on), width, dtype=np.int64)])
        l = np.concatenate([oo[:, 2], on[:, 1]])
        scores = np.fromiter(chain(self.oldold.values(), self.oldnew.values()),
                             dtype=float, count=len(u))
        new = np.arange(len(u)) >= len(oo)
        ok = (u >= 0) & (u < width) & (v >= 0) & ((v < width) | new)
        return encode_keys(width, l[ok], u[ok], v[ok]), scores[ok]


def apply_rules(
    g_train: MultiplexGraph,
    rules: RuleSet,
    pattern_set: PatternSet | None = None,
    dedupe_rule_firings: bool = False,
    track_provenance: bool = False,
) -> ScoreTable:
    """Accumulate confidence-weighted rule firings into a score table.

    Antecedent embeddings are reused from ``pattern_set`` when it holds the
    antecedent and re-matched on the graph otherwise, once per antecedent.
    A rule adds, to each key it fires, its confidence times the number of
    distinct node sets firing that key (times 1 with
    ``dedupe_rule_firings``). Every score is the sum of its rules'
    contributions in ``sorted_rules()`` order, starting from 0.0, whatever
    order the rules were added in. Rules referencing layers or labels absent
    from the graph are skipped, with one warning giving their count. With
    ``track_provenance`` the table maps each scored ``("oldold", (u, v,
    l))`` or ``("oldnew", (u, l))`` to the ids (positions in
    ``sorted_rules()``) of the rules that fired it, ascending.
    """
    labels_present = g_train.labels_present()
    idx = g_train.index()
    W = idx.width
    # (keys, weights, rule id) per firing rule, after an empty part that lets
    # a rule set firing nothing concatenate
    parts = [(np.empty(0, np.int64), np.empty(0), -1)]
    antecedent = None
    skipped = 0
    for rule_id, rule in enumerate(rules.sorted_rules()):
        ant = rule.antecedent
        delta = rule.delta
        needed_layers = set(ant.layers) | {delta.layer}
        needed_labels = set(ant.node_labels)
        if delta.new_label is not None:
            needed_labels.add(delta.new_label)
        if not needed_layers <= g_train.layers or not needed_labels <= labels_present:
            skipped += 1
            continue
        if rule.antecedent_code != antecedent:
            antecedent = rule.antecedent_code
            E = _antecedent_embeddings(rule, g_train, pattern_set)
            node_sets = _node_set_ids(E)
        if delta.j is None:
            sets, tail, head = node_sets, E[:, delta.i], W
        else:
            a, b = E[:, delta.i], E[:, delta.j]
            if g_train.directed:
                tail, head = (a, b) if delta.dirbit else (b, a)
            else:
                tail, head = np.minimum(a, b), np.maximum(a, b)
            fresh = ~idx.has_pairs(tail, head, delta.layer)
            sets, tail, head = node_sets[fresh], tail[fresh], head[fresh]
        if not len(sets):
            continue
        keys, counts = _distinct_sets_per_target(sets, encode_keys(W, delta.layer, tail, head))
        if dedupe_rule_firings:
            counts = np.ones_like(counts)
        parts.append((keys, rule.confidence * counts, rule_id))
    if skipped:
        logger.warning("skipped %d of %d rules: they reference a layer or label "
                       "absent from the graph", skipped, len(rules))

    keys, inverse = np.unique(np.concatenate([p[0] for p in parts]), return_inverse=True)
    scores = np.bincount(inverse, weights=np.concatenate([p[1] for p in parts]),
                         minlength=len(keys))
    table = ScoreTable.from_keys(g_train.directed, W, keys, scores)
    if track_provenance:
        rule_ids = np.repeat([p[2] for p in parts], [len(p[0]) for p in parts])
        firing = np.split(rule_ids[np.argsort(inverse, kind="stable")],
                          np.cumsum(np.bincount(inverse))[:-1])
        l, u, v = (a.tolist() for a in decode_keys(keys, W))
        table.provenance = {
            ("oldnew", (ui, li)) if vi == W else ("oldold", (ui, vi, li)): ids.tolist()
            for li, ui, vi, ids in zip(l, u, v, firing)}
    return table


def _antecedent_embeddings(
    rule: AssociationRule, g: MultiplexGraph, pattern_set: PatternSet | None
) -> np.ndarray:
    if pattern_set is not None:
        rec = pattern_set.get(rule.antecedent_code)
        if rec is not None:
            return rec.embeddings_canonical()
    return match_array(rule.antecedent, g)


def _node_set_ids(E: np.ndarray) -> np.ndarray:
    """One id per embedding row, equal for rows with the same node set."""
    rows = np.sort(E, axis=1)
    order = np.lexsort(rows.T)
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first)
    return ids


def _distinct_sets_per_target(sets: np.ndarray, targets: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct targets, ascending, and how many distinct node sets fire each."""
    order = np.lexsort((sets, targets))
    sets, targets = sets[order], targets[order]
    first = np.ones(len(targets), dtype=bool)
    first[1:] = (targets[1:] != targets[:-1]) | (sets[1:] != sets[:-1])
    return np.unique(targets[first], return_counts=True)


def top_k(table: ScoreTable, k: int) -> list[tuple[tuple, float]]:
    """Highest-scoring entries of both segments, ties broken lexicographically
    by key; an old-new entry's key is (u, None, l)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = [((u, v, l), s) for (u, v, l), s in table.oldold.items()]
    entries += [((u, None, l), s) for (u, l), s in table.oldnew.items()]
    entries.sort(key=lambda kv: (-kv[1], _entry_order(kv[0])))
    return entries[:k]


def _entry_order(key: tuple):
    u, v, l = key
    return (u, v is None, -1 if v is None else v, l)


def score_dump(
    table: ScoreTable,
    node_names: dict[int, str] | None = None,
    layer_names: dict[int, str] | None = None,
) -> str:
    """TSV dump `u  v-or-NEW  layer  score`, sorted by score descending."""
    nn = node_names or {}
    ln = layer_names or {}
    rows = top_k(table, k=max(1, len(table.oldold) + len(table.oldnew))) \
        if (table.oldold or table.oldnew) else []
    lines = []
    for (u, v, l), s in rows:
        vs = "NEW" if v is None else str(nn.get(v, v))
        lines.append(f"{nn.get(u, u)}\t{vs}\t{ln.get(l, l)}\t{s:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_score_dump(path: str, g: MultiplexGraph) -> ScoreTable:
    """Read a score dump file into a table, mapping names through ``g``.

    Raises ``ParseError(path, line)`` for a line that is not UTF-8, a wrong
    field count, a node or layer name ``g`` does not have, a score that is
    not a finite number, or a candidate listed again with another score
    (on an undirected graph ``u v`` and ``v u`` are one candidate).
    """
    node_ids = {name: nid for nid, name in g.node_names.items()}
    layer_ids = {name: lid for lid, name in g.layer_names.items()}
    table = ScoreTable(directed=g.directed)
    for lineno, line in text_lines(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(path, lineno, f"expected 4 fields, got {len(parts)}")
        u_name, v_name, l_name, score_text = parts
        try:
            u = node_ids[u_name]
            v = None if v_name == "NEW" else node_ids[v_name]
            l = layer_ids[l_name]
        except KeyError as exc:
            raise ParseError(path, lineno,
                             f"unknown node or layer name {exc.args[0]!r}") from None
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric score {score_text!r}") from None
        if not math.isfinite(score):
            raise ParseError(path, lineno, f"non-finite score {score_text!r}")
        if v is None:
            entries, key = table.oldnew, (u, l)
        else:
            if not g.directed and u > v:
                u, v = v, u
            entries, key = table.oldold, (u, v, l)
        if entries.setdefault(key, score) != score:
            raise ParseError(path, lineno, f"candidate already has score {entries[key]!r}, "
                                           f"not {score_text!r}")
    return table

"""Rule application: score unobserved triples on the training graph.

Every rule fires once per antecedent embedding: the delta edge is
instantiated through the embedding and the rule's confidence is added to
the implied (u, v, l) score, or to the (u, l) old-new score when the rule
introduces a fresh node. Firings that land on an existing training triple
contribute nothing. Automorphic embeddings (same node image set) that
instantiate the same prediction are collapsed first, so symmetric
antecedents do not inflate scores by their automorphism count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .graph import MultiplexGraph
from .io import ParseError
from .matcher import match_array
from .miner import PatternSet
from .rules import AssociationRule, RuleSet

logger = logging.getLogger(__name__)


class LinkClass(str, Enum):
    OLD_OLD = "oldold"
    OLD_NEW = "oldnew"
    NEW_NEW = "newnew"


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

    def oldold_score(self, u: int, v: int, l: int) -> float:
        if not self.directed and u > v:
            u, v = v, u
        return self.oldold.get((u, v, l), self.baseline)

    def oldnew_score(self, u: int, l: int) -> float:
        return self.oldnew.get((u, l), self.baseline)


def apply_rules(
    g_train: MultiplexGraph,
    rules: RuleSet,
    pattern_set: PatternSet | None = None,
    dedupe_rule_firings: bool = False,
    track_provenance: bool = False,
) -> ScoreTable:
    """Accumulate confidence-weighted rule firings into a score table.

    Mined embeddings are reused via ``pattern_set`` when available;
    otherwise antecedents are re-matched on the graph. Rules referencing
    layers or labels absent from the graph are skipped with a warning.
    Accumulation is commutative, so rule processing order is irrelevant.
    """
    table = ScoreTable(directed=g_train.directed,
                       provenance={} if track_provenance else None)
    labels_present = g_train.labels_present()
    idx = g_train.index()
    for rule_id, rule in enumerate(rules.sorted_rules()):
        ant = rule.antecedent
        delta = rule.delta
        needed_layers = set(ant.layers) | {delta.layer}
        needed_labels = set(ant.node_labels)
        if delta.new_label is not None:
            needed_labels.add(delta.new_label)
        if not needed_layers <= g_train.layers or not needed_labels <= labels_present:
            logger.warning(
                "skipping rule %d: references layer/label absent from the graph",
                rule_id,
            )
            continue
        E = _antecedent_embeddings(rule, g_train, pattern_set)
        if E.shape[0] == 0:
            continue
        if delta.introduces_new_node:
            anchors = E[:, delta.i]
            firings = np.column_stack([np.sort(E, axis=1), anchors])
            firings = np.unique(firings, axis=0)  # collapse automorphic twins
            keys, counts = np.unique(firings[:, -1], return_counts=True)
            for u, cnt in zip(keys, counts):
                key = (int(u), delta.layer)
                amount = rule.confidence * (1 if dedupe_rule_firings else int(cnt))
                table.oldnew[key] = table.oldnew.get(key, 0.0) + amount
                _note(table, ("oldnew", key), rule_id)
        else:
            a, b = E[:, delta.i], E[:, delta.j]
            if g_train.directed:
                tail, head = (a, b) if delta.forward else (b, a)
            else:
                tail, head = np.minimum(a, b), np.maximum(a, b)
            fresh = ~idx.has_pairs(tail, head, delta.layer)
            if not fresh.any():
                continue
            firings = np.column_stack(
                [np.sort(E[fresh], axis=1), tail[fresh], head[fresh]]
            )
            firings = np.unique(firings, axis=0)
            pairs, counts = np.unique(firings[:, -2:], axis=0, return_counts=True)
            for (t, h), cnt in zip(pairs, counts):
                key = (int(t), int(h), delta.layer)
                amount = rule.confidence * (1 if dedupe_rule_firings else int(cnt))
                table.oldold[key] = table.oldold.get(key, 0.0) + amount
                _note(table, ("oldold", key), rule_id)
    return table


def _antecedent_embeddings(
    rule: AssociationRule, g: MultiplexGraph, pattern_set: PatternSet | None
) -> np.ndarray:
    if pattern_set is not None:
        rec = pattern_set.get(rule.antecedent_code)
        if rec is not None:
            return rec.embeddings_canonical(g)
    return match_array(rule.antecedent, g)


def _note(table: ScoreTable, key: tuple, rule_id: int) -> None:
    if table.provenance is not None:
        table.provenance.setdefault(key, []).append(rule_id)


def classify_link(u: int, v: int, train_nodes: frozenset[int] | set[int],
                  test_nodes: frozenset[int] | set[int]) -> LinkClass:
    """Old/new link category from the split's node sets."""
    cats = []
    for n in (u, v):
        if n in train_nodes:
            cats.append("old")
        elif n in test_nodes:
            cats.append("new")
        else:
            raise ValueError(f"node {n} is in neither node set")
    if cats == ["old", "old"]:
        return LinkClass.OLD_OLD
    if cats == ["new", "new"]:
        return LinkClass.NEW_NEW
    return LinkClass.OLD_NEW


def top_k(table: ScoreTable, k: int, segment: str = "both") -> list[tuple[tuple, float]]:
    """Highest-scoring entries, ties broken lexicographically by key."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries: list[tuple[tuple, float]] = []
    if segment in ("both", "oldold"):
        entries += [((u, v, l), s) for (u, v, l), s in table.oldold.items()]
    if segment in ("both", "oldnew"):
        entries += [((u, None, l), s) for (u, l), s in table.oldnew.items()]
    if segment not in ("both", "oldold", "oldnew"):
        raise ValueError(f"unknown segment {segment!r}")
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
    rows = top_k(table, k=max(1, len(table.oldold) + len(table.oldnew)), segment="both") \
        if (table.oldold or table.oldnew) else []
    lines = []
    for (u, v, l), s in rows:
        vs = "NEW" if v is None else str(nn.get(v, v))
        lines.append(f"{nn.get(u, u)}\t{vs}\t{ln.get(l, l)}\t{s:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_score_dump(path: str, g: MultiplexGraph) -> ScoreTable:
    """Read a score dump file into a table, mapping names through ``g``.

    Raises ``ParseError(path, line)`` for a wrong field count, a node or
    layer name ``g`` does not have, or a non-numeric score.
    """
    node_ids = {name: nid for nid, name in g.node_names.items()}
    layer_ids = {name: lid for lid, name in g.layer_names.items()}
    table = ScoreTable(directed=g.directed)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
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
            if v is None:
                table.oldnew[(u, l)] = score
            else:
                if not g.directed and u > v:
                    u, v = v, u
                table.oldold[(u, v, l)] = score
    return table

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

Rules are applied from a table (``rules.RuleTable``): numpy arrays in
``sorted_rules()`` order, and a mask of the rules to apply. The table's
``fitting`` masks the rules that do not fit the graph and walks each
antecedent's code on it; the rule scorer holds one table per held mine
and masks it per fold by ``select``, which reads each antecedent's
embeddings off its record, in the record's own columns. A selected rule's
id is its rank among the selected rules. Each antecedent's embeddings are
fetched once. Each embedding row also has a node-set id
(``matcher.node_set_ids``), equal for rows of one antecedent with the
same node set; a record ``miner.restrict`` derives shares its source
record's ids, masked by its rows.

The rules of one antecedent whose deltas join the same two columns, or
anchor a fresh node at the same column, form a group: they fire from the
same node pairs of the same rows and differ only in layer and direction.
Whole antecedents are gathered into batches of about ``BATCH_FIRINGS``
group rows. Per batch, every group row becomes its node pair, in (min,
max) order when undirected, so automorphic rows collapse, or (anchor,
NEW); one sort of packed (group, pair, node-set id) values counts the
distinct node sets per (group, pair), and one pair-index probe reads each
distinct pair's edges in every layer and direction. Each kept rule of a
group then fires on the group's distinct pairs, oriented by its ``flip``
flag, except where its edge is already a training edge, with weight
confidence x node-set count. A batch yields (key, weight, rule id) parts
in rule order, so one ``np.unique`` and one weighted ``np.bincount`` over
all batches sum every score's contributions in rule order, exactly as
adding them one by one to 0.0 would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .graph import MultiplexGraph
from .io import ParseError, text_lines
from .matcher import code_embeddings, firsts, node_set_ids, ranks
from .rules import AssociationRule, RuleSelection, RuleSet, RuleTable


class LinkClass(str, Enum):
    OLD_OLD = "oldold"
    OLD_NEW = "oldnew"


def encode_keys(width: int, l, u, v) -> np.ndarray:
    """Candidate keys of (layer, u, v); ``v == width`` stands for NEW.

    ``l * base + u`` is taken in int64 however ``l`` and ``u`` come: numpy
    1.x would keep a scalar ``l`` plus int32 node ids in int32.
    """
    base = width + 1
    return np.add(np.multiply(l, base, dtype=np.int64), u, dtype=np.int64) * base + v


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


# Group rows (antecedent rows x the groups that read them) gathered before
# a batch is scored. A batch costs a few dozen numpy calls however many
# groups it holds, so small batches pay mostly call overhead, and large
# ones hold more arrays at once. At 8 k, 32 k and 128 k the 10-fold
# cv-overlap benchmark read op_s medians of 0.324, 0.325 and 0.360 s at
# peak RSS 46.7, 47.8 and 52.1 MB, and the same CV at size 4 spent
# 3.3-3.5, 3.0-3.4 and 3.3-3.8 s in rule application at 180, 180-181 and
# 186 MB: bigger batches buy nothing and cost memory.
BATCH_FIRINGS = 8192


def apply_rules(
    g_train: MultiplexGraph,
    rules: RuleSet | RuleSelection,
    dedupe_rule_firings: bool = False,
    track_provenance: bool = False,
) -> ScoreTable:
    """Accumulate confidence-weighted rule firings into a score table.

    ``rules`` is a selection of a table, which names its own records, or
    a rule set, applied as ``RuleTable(rules).fitting(g_train)`` selects
    it. A rule adds, to each key it fires, its confidence times the number
    of distinct node sets firing that key (times 1 with
    ``dedupe_rule_firings``). Every
    score is the sum of its rules' contributions in rule id order, which is
    ``sorted_rules()`` order, starting from 0.0, whatever order the rules
    were added in. With ``track_provenance`` the table maps each scored
    ``("oldold", (u, v, l))`` or ``("oldnew", (u, l))`` to the ids of the
    rules that fired it, ascending: each rule's rank among the selected
    rules, its position in ``RuleSelection.rules()``.
    """
    sel = RuleTable(rules).fitting(g_train) if isinstance(rules, RuleSet) else rules
    idx = g_train.index()
    W = idx.width
    kept = np.flatnonzero(sel.keep)
    # (keys, weights, rule ids) per batch, after an empty part that lets a
    # selection firing nothing concatenate
    parts = [(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))]
    t = sel.table
    rule_group = t.group[kept]
    groups = rule_group[firsts(rule_group)]
    ants = t.group_ant[groups]
    runs = np.append(np.flatnonzero(firsts(ants)), len(groups)).tolist()
    layer = t.layer[kept]
    kept_rules = _KeptRules(t, groups, np.searchsorted(rule_group, groups), rule_group,
                            t.flip[kept], layer, 2 * np.searchsorted(idx.layers, layer),
                            sel.support_c[kept] / sel.support_a[kept], dedupe_rule_firings)
    batch, rows, g0 = [], 0, 0  # batch: (embeddings, node-set ids) per group from g0 on
    for a, ga, gb in zip(ants[runs[:-1]].tolist(), runs[:-1], runs[1:]):
        E, sets = _embeddings(sel, a, g_train, W)
        n = len(E) * (gb - ga)
        if batch and rows + n > BATCH_FIRINGS:
            parts.append(_apply_batch(idx, g_train.directed, kept_rules, g0, batch))
            g0, batch, rows = ga, [], 0
        batch += [(E, sets)] * (gb - ga)
        rows += n
    if batch:
        parts.append(_apply_batch(idx, g_train.directed, kept_rules, g0, batch))

    keys, inverse = np.unique(np.concatenate([p[0] for p in parts]), return_inverse=True)
    scores = np.bincount(inverse, weights=np.concatenate([p[1] for p in parts]),
                         minlength=len(keys))
    table = ScoreTable.from_keys(g_train.directed, W, keys, scores)
    if track_provenance:
        rule_ids = np.concatenate([p[2] for p in parts])
        firing = np.split(rule_ids[np.argsort(inverse, kind="stable")],
                          np.cumsum(np.bincount(inverse))[:-1])
        l, u, v = (a.tolist() for a in decode_keys(keys, W))
        table.provenance = {
            ("oldnew", (ui, li)) if vi == W else ("oldold", (ui, vi, li)): ids.tolist()
            for li, ui, vi, ids in zip(l, u, v, firing)}
    return table


@dataclass
class _KeptRules:
    """What ``_apply_batch`` reads of a selection's kept rules, whose ids
    are their positions here: the table, the groups that hold a kept rule
    (ascending) and the first kept rule of each, and per kept rule its
    group, orientation flag, layer, the ``pair_masks`` bit of its layer in
    the forward direction, and its confidence."""

    table: RuleTable
    groups: np.ndarray
    group_first: np.ndarray
    rule_group: np.ndarray
    flip: np.ndarray
    layer: np.ndarray
    bit: np.ndarray
    conf: np.ndarray
    dedupe: bool


def _embeddings(sel: RuleSelection, a: int, g: MultiplexGraph,
                width: int) -> tuple[np.ndarray, np.ndarray]:
    """Record ``a``'s embeddings and node-set ids: the selection's record,
    whose ids its source record computed once and shares, or the code
    walked on ``g``."""
    rec = sel.records[a]
    if rec is not None:
        return rec.embeddings, rec.node_set_ids(width)
    E = code_embeddings(sel.table.codes[a], g)
    return E, node_set_ids(E, width)


def _apply_batch(idx, directed: bool, kr: _KeptRules, g0: int, batch
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, weights, rule ids) of the kept rules of the groups from
    ``kr.groups[g0]`` on, one group per ``batch`` item, which is the
    (embeddings, node-set ids) of its antecedent; ascending by rule id."""
    W = idx.width
    t, g1 = kr.table, g0 + len(batch)
    gs = kr.groups[g0:g1]
    fresh = t.group_fresh[gs]
    # every row of every group as the node pair its delta columns read,
    # (low, high) or (anchor, NEW), in (min, max) order when undirected so
    # that automorphic rows collapse, and the row's node-set id
    sizes = [len(E) for E, _ in batch]
    gr = np.repeat(np.arange(len(batch)), sizes)
    u = np.concatenate([E[:, c] for (E, _), c in zip(batch, t.group_lo[gs].tolist())])
    v = np.concatenate([E[:, c] for (E, _), c in zip(batch, t.group_hi[gs].tolist())])
    sets = np.concatenate([ids for _, ids in batch])
    if not len(gr):
        return np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64)
    v = np.where(fresh[gr], W, v)
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)

    # distinct (group, pair, node set) values, then node sets per (group,
    # pair): a group reads one antecedent's rows, so ids need only be equal
    # within one, and packed values stay below groups * pairs * n_sets
    pair_pos, pairs = ranks(encode_keys(W, 0, u, v))
    n_sets = int(sets.max()) + 1
    packed = np.sort((gr * len(pairs) + pair_pos) * n_sets + sets)
    group_pair = packed[firsts(packed)] // n_sets
    bounds = np.flatnonzero(firsts(group_pair))
    count = np.diff(np.append(bounds, len(group_pair)))
    pg, pp = np.divmod(group_pair[bounds], len(pairs))
    pu, pv = np.divmod(pairs[pp], W + 1)
    # every layer and direction bit of each distinct cycle pair, probed
    # once for all the rules of its group
    cyc = ~fresh[pg]
    masks = idx.pair_masks(pu[cyc], pv[cyc])
    mask_row = np.cumsum(cyc) - 1
    first = np.searchsorted(pg, np.arange(len(batch)))
    n_pairs = np.diff(np.append(first, len(pg)))

    # each kept rule of these groups over its group's distinct pairs, in
    # rule order; a flipped rule's edge runs from the high column's node
    r0 = kr.group_first[g0]
    r1 = kr.group_first[g1] if g1 < len(kr.groups) else len(kr.rule_group)
    local = np.searchsorted(gs, kr.rule_group[r0:r1])
    n = n_pairs[local]
    fr = np.repeat(np.arange(r0, r1), n)
    pair = np.arange(len(fr)) + np.repeat(first[local] - (np.cumsum(n) - n), n)
    flip = kr.flip[fr]
    tail = np.where(flip, pv[pair], pu[pair])
    head = np.where(flip, pu[pair], pv[pair])
    # a firing on a training edge contributes nothing; bit 2p of pair
    # (u, v) is the edge u -> v in the layer at position p, bit 2p + 1 the
    # edge v -> u
    on_cycle = cyc[pair]
    bit = kr.bit[fr[on_cycle]] + flip[on_cycle]
    on_edge = np.zeros(len(fr), dtype=bool)
    on_edge[on_cycle] = masks[mask_row[pair[on_cycle]], bit >> 6] \
        & (np.uint64(1) << (bit & 63).astype(np.uint64)) != 0
    live = ~on_edge
    fr, pair = fr[live], pair[live]
    keys = encode_keys(W, kr.layer[fr], tail[live], head[live])
    weights = kr.conf[fr] if kr.dedupe else kr.conf[fr] * count[pair]
    return keys, weights, fr


def top_k(table: ScoreTable, k: int) -> list[tuple[tuple, float]]:
    """Highest-scoring entries of both segments, ties broken lexicographically
    by key; an old-new entry's key is (u, None, l)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _ranked(table)[:k]


def _ranked(table: ScoreTable) -> list[tuple[tuple, float]]:
    """Every entry in ``top_k`` order."""
    entries = [((u, v, l), s) for (u, v, l), s in table.oldold.items()]
    entries += [((u, None, l), s) for (u, l), s in table.oldnew.items()]
    entries.sort(key=lambda kv: (-kv[1], _entry_order(kv[0])))
    return entries


def _entry_order(key: tuple):
    u, v, l = key
    return (u, v is None, -1 if v is None else v, l)


def ranked_rows(table: ScoreTable, node_names: dict[int, str] | None = None,
                layer_names: dict[int, str] | None = None,
                top: int | None = None) -> list[tuple[tuple, float, str]]:
    """(provenance key, score, ``u  v-or-NEW  layer`` text) of the first
    ``top`` entries (all by default) in ``top_k`` order. The table is
    ranked once and only these rows are formatted."""
    nn = node_names or {}
    ln = layer_names or {}
    rows = []
    for (u, v, l), s in _ranked(table)[:top]:
        key = ("oldnew", (u, l)) if v is None else ("oldold", (u, v, l))
        vs = "NEW" if v is None else str(nn.get(v, v))
        rows.append((key, s, f"{nn.get(u, u)}\t{vs}\t{ln.get(l, l)}"))
    return rows


def score_text(rows: list[tuple[tuple, float, str]]) -> str:
    """TSV `u  v-or-NEW  layer  score` of ``ranked_rows`` output, in its order."""
    lines = [f"{name}\t{s:.6f}" for _, s, name in rows]
    return "\n".join(lines) + ("\n" if lines else "")


def score_dump(
    table: ScoreTable,
    node_names: dict[int, str] | None = None,
    layer_names: dict[int, str] | None = None,
) -> str:
    """TSV dump `u  v-or-NEW  layer  score`, sorted by score descending."""
    return score_text(ranked_rows(table, node_names, layer_names))


def explain_text(rows: list[tuple[tuple, float, str]], table: ScoreTable,
                 rules: list[AssociationRule]) -> str:
    """TSV `u  v-or-NEW  layer  <rule line>`: for each of ``ranked_rows``'
    rows, in its order, one line per rule that fired the entry
    (``AssociationRule.to_line``), in rule id order. ``table`` tracks
    provenance, and ``rules`` lists the rules by id
    (``RuleSelection.rules()``)."""
    lines = [f"{name}\t{rules[rule_id].to_line()}"
             for key, _, name in rows for rule_id in table.provenance[key]]
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

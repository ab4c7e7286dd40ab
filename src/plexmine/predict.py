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
once: from the mined pattern set when it holds them, in the record's
pattern-index columns, to which its canonical ordering maps a rule's
node indices, or by walking the antecedent's canonical code, which
doubles as the join plan and yields columns in canonical node indexing.
Each embedding row also has a node-set id (``matcher.node_set_ids``),
equal for rows of one antecedent with the same node set. A mined record
computes its ids once, on its source array, and every record
``miner.restrict`` derives from it shares them, masked by its rows;
re-matched embeddings get theirs when fetched. Whole antecedents are
gathered into batches of about ``BATCH_FIRINGS`` firings (embedding rows
x rules), and each batch costs a few dozen numpy calls: every (rule, row)
firing is encoded as a candidate key at once, one pair-index probe drops
the firings that land on a training edge, and one sort of packed (rule,
key, node-set id) values counts the distinct node sets per (rule, key).
A batch yields (key, confidence x count) parts ascending by rule and then
by key, so one ``np.unique`` and one weighted ``np.bincount`` over all
batches sum every score's contributions in sorted-rule order, exactly as
adding them one by one to 0.0 would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, groupby

import numpy as np

from .graph import MultiplexGraph
from .io import ParseError, text_lines
from .matcher import code_embeddings, firsts, fits, node_set_ids, ranks
from .miner import PatternSet
from .rules import AssociationRule, RuleSet


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


# Firings (antecedent rows x rules) gathered before a batch is scored. A
# batch costs a few dozen numpy calls however many rules it holds, so small
# batches pay mostly call overhead: with one batch per antecedent, a 10-fold
# run on a 150-node graph took 1.70 s against 1.35 s. One batch for the
# whole rule set raised that run's peak RSS from 46 to 57 MB; with 8192
# firings it stays at the 47 MB of per-rule application.
BATCH_FIRINGS = 8192


def applicable_rules(g: MultiplexGraph, rules: RuleSet) -> list[tuple[int, AssociationRule]]:
    """(id, rule) of the rules whose layers and labels ``g`` has, where a
    rule's id is its position in ``sorted_rules()``; ``apply_rules`` skips
    the others. The consequent names every layer and label of the rule."""
    return [(rule_id, rule) for rule_id, rule in enumerate(rules.sorted_rules())
            if fits(rule.consequent_code, g)]


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
    order the rules were added in. Rules outside ``applicable_rules`` are
    skipped. With ``track_provenance`` the table maps each scored
    ``("oldold", (u, v, l))`` or ``("oldnew", (u, l))`` to the ids
    (positions in ``sorted_rules()``) of the rules that fired it, ascending.
    """
    idx = g_train.index()
    W = idx.width
    # (keys, weights, rule ids) per batch, after an empty part that lets a
    # rule set firing nothing concatenate
    parts = [(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))]
    batch, firings = [], 0
    for E, cols, sets, group in _antecedent_groups(g_train, applicable_rules(g_train, rules),
                                                   pattern_set):
        n = len(E) * len(group)
        if batch and firings + n > BATCH_FIRINGS:
            parts.append(_apply_batch(idx, g_train.directed, batch, dedupe_rule_firings))
            batch, firings = [], 0
        batch.append((E, cols, sets, group))
        firings += n
    if batch:
        parts.append(_apply_batch(idx, g_train.directed, batch, dedupe_rule_firings))

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


def _antecedent_groups(g: MultiplexGraph, rules: list[tuple[int, AssociationRule]],
                       pattern_set: PatternSet | None):
    """(embeddings, the column of each canonical node index, their
    node-set ids, [(id, rule), ...]) per run of ``rules`` sharing an
    antecedent. A mined record keeps its ids, which the records
    ``restrict`` derives from it share."""
    width = g.index().width
    for code, group in groupby(rules, key=lambda item: item[1].antecedent_code):
        rec = pattern_set.get(code) if pattern_set is not None else None
        if rec is not None:
            yield rec.embeddings, rec.orderings[0], rec.node_set_ids(width), list(group)
        else:
            E = code_embeddings(code, g)
            yield E, range(E.shape[1]), node_set_ids(E, width), list(group)


def _apply_batch(idx, directed: bool, batch, dedupe: bool
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, weights, rule ids) of every rule in ``batch``, a list of
    ``_antecedent_groups`` items, ascending by rule id and then by key."""
    W = idx.width
    # every embedding row of the batch, padded with -1 to the widest
    # antecedent, in the embeddings' dtype (``encode_keys`` promotes), and
    # its node-set id, equal only within one antecedent
    sizes = [len(E) for E, *_ in batch]
    starts = np.cumsum([0] + sizes)
    rows = np.full((starts[-1], max(E.shape[1] for E, *_ in batch)), -1,
                   dtype=np.result_type(*(E.dtype for E, *_ in batch)))
    for (E, *_), s in zip(batch, starts):
        rows[s:s + len(E), :E.shape[1]] = E
    sets = np.concatenate([ids for _, _, ids, _ in batch])

    # per rule: first row, row count, id, confidence and delta fields, the
    # delta's node indices read through its antecedent's columns; a
    # fresh-node delta reads its anchor column twice
    group_sizes = [len(group) for *_, group in batch]
    first, count = np.repeat(starts[:-1], group_sizes), np.repeat(sizes, group_sizes)
    rule_id = np.array([rid for *_, group in batch for rid, _ in group], dtype=np.int64)
    rules = [r for *_, group in batch for _, r in group]
    cols = [c for _, c, _, group in batch for _ in group]
    deltas = [r.delta for r in rules]
    conf = np.array([r.confidence for r in rules])
    col_a = np.array([c[d.i] for c, d in zip(cols, deltas)], dtype=np.int64)
    col_b = np.array([c[d.i if d.j is None else d.j] for c, d in zip(cols, deltas)],
                     dtype=np.int64)
    fresh_node = np.array([d.j is None for d in deltas])
    forward = np.array([d.dirbit for d in deltas])
    layer = np.array([d.layer for d in deltas], dtype=np.int64)

    # every (rule, row) firing, as the candidate it instantiates
    fr = np.repeat(np.arange(len(rules)), count)
    row = np.arange(len(fr)) + np.repeat(first - (np.cumsum(count) - count), count)
    a, b = rows[row, col_a[fr]], rows[row, col_b[fr]]
    if directed:
        fwd = forward[fr]
        tail, head = np.where(fwd, a, b), np.where(fwd, b, a)
    else:
        tail, head = np.minimum(a, b), np.maximum(a, b)
    head[fresh_node[fr]] = W
    key_pos, keys = ranks(encode_keys(W, layer[fr], tail, head))

    # firings on a training edge contribute nothing; the distinct keys come
    # ascending, so the pair index is probed in nearly sorted order
    l, u, v = decode_keys(keys, W)
    cyc = np.flatnonzero(v != W)
    bit = 2 * np.searchsorted(idx.layers, l[cyc])
    masks = idx.pair_masks(u[cyc], v[cyc])
    on_edge = np.zeros(len(keys), dtype=bool)
    on_edge[cyc] = masks[np.arange(len(cyc)), bit >> 6] \
        & (np.uint64(1) << (bit & 63).astype(np.uint64)) != 0
    keep = ~on_edge[key_pos]
    fr, row, key_pos = fr[keep], row[keep], key_pos[keep]
    if not len(fr):
        return np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64)

    # distinct (rule, key, node set) values, then node sets per (rule, key);
    # a rule reads one antecedent's rows, so ids need only be equal within
    # one, and packed values stay below len(rules) * len(keys) * n_sets
    n_sets = int(sets.max()) + 1
    packed = np.sort((fr * len(keys) + key_pos) * n_sets + sets[row])
    rule_key = packed[firsts(packed)] // n_sets
    bounds = np.flatnonzero(firsts(rule_key))
    rule, key = np.divmod(rule_key[bounds], len(keys))
    weights = conf[rule] if dedupe else conf[rule] * np.diff(np.append(bounds, len(rule_key)))
    return keys[key], weights, rule_id[rule]


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

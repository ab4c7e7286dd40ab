"""End-to-end orchestration: mining, scoring, per-split evaluation, timings."""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Sequence

from .evaluate import EvalError, EvalReport, Scorer, Split, ensemble, kfold_split, roc_auc
from .graph import MultiplexGraph
from .miner import MiningConfig, PatternSet, mine, restrict
from .pattern import Strategy
from .predict import ScoreTable, apply_rules
from .rules import RuleBuilder, RuleSet, RuleTable, derive_rules_posthoc


@dataclass
class PhaseTimings:
    """Wall-clock seconds per mining phase.

    ``mining_s`` includes embedded rule generation and its confidence
    filter; ``rule_posthoc_s`` is only filled by the legacy mode.
    """

    preprocess_s: float = 0.0
    mining_s: float = 0.0
    rule_posthoc_s: float = 0.0

    def to_tsv(self) -> str:
        lines = [f"{f.name}\t{getattr(self, f.name):.6f}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    @property
    def total_s(self) -> float:
        return self.preprocess_s + self.mining_s + self.rule_posthoc_s


@dataclass
class MiningRun:
    patterns: PatternSet
    rules: RuleSet
    timings: PhaseTimings


def run_mining(
    g: MultiplexGraph,
    support: float | int,
    max_nodes: int,
    min_confidence: float,
    strategy: Strategy = Strategy.BFS,
    rule_mode: str = "embedded",
) -> MiningRun:
    """Mine patterns and build the rule set in the requested mode, as one run that starts cold.

    The embedded mode keeps every offer while mining and then the rules
    that reach ``min_confidence``, the mask of the offers' table
    (``RuleTable.select``), both inside ``mining_s``.
    """
    if rule_mode not in ("embedded", "posthoc"):
        raise ValueError(f"unknown rule mode {rule_mode!r}")
    cfg = MiningConfig(support=support, max_nodes=max_nodes, strategy=strategy)
    timings = PhaseTimings()
    t0 = time.perf_counter()
    g.index()  # build adjacency up front so it lands in preprocess time
    timings.preprocess_s = time.perf_counter() - t0

    if rule_mode == "embedded":
        sink = RuleBuilder()
        t0 = time.perf_counter()
        patterns = mine(g, cfg, rule_sink=sink)
        rules = RuleTable(sink.result(), patterns).select(patterns, min_confidence).rule_set()
        timings.mining_s = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        patterns = mine(g, cfg, rule_sink=None)
        timings.mining_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        rules = derive_rules_posthoc(patterns, min_confidence, strategy)
        timings.rule_posthoc_s = time.perf_counter() - t0
    return MiningRun(patterns=patterns, rules=rules, timings=timings)


# The largest share of its root's edges that a graph may lack for the
# scorer to mine the root for it: a fold of 7 or more. Mining each fold
# is cheaper over 2 or 3 folds; the break-even lies near 4, but no
# benchmark workload runs fewer than 7 folds yet (ROADMAP.md, item 2).
SOURCE_MINE_MAX_LACKING = 0.15


def make_rule_scorer(
    support: float | int,
    max_nodes: int,
    min_confidence: float,
    strategy: Strategy = Strategy.BFS,
) -> Scorer:
    """Scorer callback (graph -> ScoreTable): mine embedded rules, apply them.

    The graphs one scorer scores (folds, an ensemble's internal splits) are
    one run and share its memo of canonical searches. The scorer holds one
    mine, made with every offer kept (``RuleBuilder``), and the table of
    those offers (``rules.RuleTable``), built once. It makes every table
    from them: the patterns by ``miner.restrict``, the rules as the table's
    mask on those patterns (``RuleTable.select``), then ``apply_rules`` on
    that selection, byte for byte what mining the graph and applying its
    rule set gives. The held mine serves a graph that is its graph
    or cut from it, at a support no lower than the mine's
    (``PatternSet.serves``). For any other graph the scorer drops the held
    mine, then mines at the graph's own support either the graph's root
    (``g.source``), when the graph lacks at most
    ``SOURCE_MINE_MAX_LACKING`` of the root's edges, or else the graph
    itself (a graph with no root is its own root), and holds that mine.
    """
    memo = {}
    held = None  # the offer table of the held mine

    def scorer(g: MultiplexGraph) -> ScoreTable:
        nonlocal held
        sigma = MiningConfig(support, max_nodes, strategy).resolve_support(g)
        if held is None or not held.mine.serves(g, sigma):
            root = g if g.source is None else g.source
            near = len(root.edges) - len(g.edges) <= SOURCE_MINE_MAX_LACKING * len(root.edges)
            held = None  # dropped before the next mine, which would otherwise hold both
            offers = RuleBuilder()
            ps = mine(root if near else g, MiningConfig(sigma, max_nodes, strategy),
                      rule_sink=offers, memo=memo)
            held = RuleTable(offers.result(), ps)
        return apply_rules(g, held.select(restrict(held.mine, g, sigma), min_confidence))

    return scorer


def evaluate_split(
    split: Split,
    scorers: Sequence[Scorer],
    tables: Sequence[ScoreTable] = (),
    optimize: bool = False,
    seed: int = 0,
    n_neg: int | None = None,
) -> EvalReport:
    """Score ``split.train`` with each scorer and evaluate on the split.

    ``tables`` (score dumps made elsewhere) join the scored tables. Two or
    more tables are combined by ``ensemble``, whose weights are tuned on an
    internal re-split with ``optimize``; that needs every table to come
    from a scorer. The combined table is evaluated on the universe the
    ensemble built unless ``n_neg`` asks for a sampled one.
    """
    scored = [s(split.train) for s in scorers]
    tables = scored + list(tables)
    if len(tables) == 1:
        return roc_auc(tables[0], split, n_neg=n_neg, seed=seed)
    if optimize and len(scored) < len(tables):
        raise EvalError("external tables cannot be re-scored on the "
                        "internal split; use --ensemble-mode base")
    res = ensemble(tables, split, optimize=optimize, seed=seed, scorers=scorers)
    return roc_auc(res.table, split, n_neg=n_neg, seed=seed,
                   uni=res.universe if n_neg is None else None)


def evaluate_splits(
    splits: list[Split],
    scorers: Sequence[Scorer],
    tables: Sequence[ScoreTable] = (),
    optimize: bool = False,
    seed: int = 0,
    n_neg: int | None = None,
) -> list[EvalReport]:
    """``evaluate_split`` on each of ``splits`` in order, with the same
    arguments. Each split is popped from the list before it is evaluated,
    so that its training graph and the ``GraphIndex`` cached on it are
    freed before the next split is scored."""
    reports = []
    while splits:
        reports.append(evaluate_split(splits.pop(0), scorers, tables, optimize, seed, n_neg))
    return reports


@dataclass
class CrossValResult:
    fold_reports: list[EvalReport]
    mean_auc: float

    @classmethod
    def from_reports(cls, reports: list[EvalReport]) -> "CrossValResult":
        return cls(fold_reports=reports, mean_auc=sum(r.auc for r in reports) / len(reports))

    def to_tsv(self) -> str:
        """One line per fold, with its AUC and segment AUCs, then the mean."""
        lines = []
        for i, rep in enumerate(self.fold_reports):
            segs = "\t".join(
                f"{seg.value}={'' if a is None else f'{a:.6f}'}"
                for seg, a in rep.segment_aucs.items()
            )
            lines.append(f"fold{i}\tauc={rep.auc:.6f}\t{segs}")
        lines.append(f"mean\tauc={self.mean_auc:.6f}")
        return "\n".join(lines) + "\n"


def cross_validate(
    g: MultiplexGraph,
    scorer: Scorer,
    k: int = 10,
    seed: int = 0,
    n_neg: int | None = None,
) -> CrossValResult:
    """k-fold CV: rescore each training fold and evaluate on its test fold
    (``evaluate_splits``)."""
    return CrossValResult.from_reports(
        evaluate_splits(kfold_split(g, k, seed), [scorer], seed=seed, n_neg=n_neg))

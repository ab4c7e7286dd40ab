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
from .rules import RuleBuilder, RuleSet, derive_rules_posthoc, restrict_rules


@dataclass
class PhaseTimings:
    """Wall-clock seconds per mining phase.

    ``mining_s`` includes embedded rule generation; ``rule_posthoc_s`` is
    only filled by the legacy mode.
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
    """Mine patterns and build the rule set in the requested mode, as one run that starts cold."""
    if rule_mode not in ("embedded", "posthoc"):
        raise ValueError(f"unknown rule mode {rule_mode!r}")
    cfg = MiningConfig(support=support, max_nodes=max_nodes, strategy=strategy)
    timings = PhaseTimings()
    t0 = time.perf_counter()
    g.index()  # build adjacency up front so it lands in preprocess time
    timings.preprocess_s = time.perf_counter() - t0

    if rule_mode == "embedded":
        sink = RuleBuilder(min_confidence)
        t0 = time.perf_counter()
        patterns = mine(g, cfg, rule_sink=sink)
        timings.mining_s = time.perf_counter() - t0
        rules = sink.result()
    else:
        t0 = time.perf_counter()
        patterns = mine(g, cfg, rule_sink=None)
        timings.mining_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        rules = derive_rules_posthoc(patterns, min_confidence, strategy)
        timings.rule_posthoc_s = time.perf_counter() - t0
    return MiningRun(patterns=patterns, rules=rules, timings=timings)


# The largest share of its source's edges that a graph may lack and still
# be derived from the source's mine: the folds of a 7-fold or finer
# cross-validation. Mining the source costs more than mining a fold, the
# more so the more edges a fold lacks, and over fewer, sparser folds
# mining each fold is cheaper (measurements in CHANGES.md).
SOURCE_MINE_MAX_LACKING = 0.15


def make_rule_scorer(
    support: float | int,
    max_nodes: int,
    min_confidence: float,
    strategy: Strategy = Strategy.BFS,
) -> Scorer:
    """Scorer callback (graph -> ScoreTable): mine embedded rules, apply them.

    The graphs one scorer scores (folds, an ensemble's internal split) are
    one run and share its memo of canonical searches. They may also share
    one mine: when a graph arrives whose ``source`` the scorer has seen
    before (the second fold of a cross-validation), the scorer mines that
    source once, at that graph's resolved support, with every offer kept.
    That graph and every later one from the source then take their
    patterns from that mine (``miner.restrict``) and their rules from its
    offers (``rules.restrict_rules``), which gives what mining them gives,
    byte for byte. A graph whose support is below the source mine's mines
    the source again at its own. A graph with no source, the first from a
    source, or one that lacks more than ``SOURCE_MINE_MAX_LACKING`` of its
    source's edges is mined directly: a source mine would not pay for
    itself over a few folds that each lack many edges. The scorer
    remembers the last two sources it has seen and holds one mine, so the
    internal split an ensemble scores after each fold, whose source is
    that fold, does not make it forget the folds' source.
    """
    memo = {}
    recent = []  # the last two distinct sources seen, most recent first
    source_mine = None  # (source, sigma, patterns, offers)

    def scorer(g: MultiplexGraph) -> ScoreTable:
        nonlocal recent, source_mine
        cfg = MiningConfig(support, max_nodes, strategy)
        src = g.source
        if src is not None and (len(src.edges) - len(g.edges)
                                > SOURCE_MINE_MAX_LACKING * len(src.edges)):
            src = None  # too far from its source for a source mine to pay
        seen = any(s is src for s in recent)
        if src is not None:
            recent = [src] + [s for s in recent if s is not src][:1]
        if not seen:
            sink = RuleBuilder(min_confidence)
            patterns = mine(g, cfg, rule_sink=sink, memo=memo)
            return apply_rules(g, sink.result(), pattern_set=patterns)
        sigma = cfg.resolve_support(g)
        if source_mine is None or source_mine[0] is not src or sigma < source_mine[1]:
            offers = RuleBuilder(0.0)
            mined = mine(src, MiningConfig(sigma, max_nodes, strategy), rule_sink=offers,
                         memo=memo)
            source_mine = src, sigma, mined, offers.result()
        patterns = restrict(source_mine[2], g, sigma)
        rules = restrict_rules(source_mine[3], patterns, min_confidence)
        return apply_rules(g, rules, pattern_set=patterns)

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


@dataclass
class CrossValResult:
    fold_reports: list[EvalReport]
    mean_auc: float

    @classmethod
    def from_reports(cls, reports: list[EvalReport]) -> "CrossValResult":
        return cls(fold_reports=reports, mean_auc=sum(r.auc for r in reports) / len(reports))


def cross_validate(
    g: MultiplexGraph,
    scorer: Scorer,
    k: int = 10,
    seed: int = 0,
    n_neg: int | None = None,
) -> CrossValResult:
    """k-fold CV: rescore each training fold and evaluate on its test fold."""
    return CrossValResult.from_reports([
        evaluate_split(split, [scorer], seed=seed, n_neg=n_neg)
        for split in kfold_split(g, k, seed)
    ])

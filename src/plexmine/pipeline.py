"""End-to-end orchestration: mining, scoring, cross-validation, timings."""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

from .evaluate import EvalReport, kfold_split, roc_auc
from .graph import MultiplexGraph
from .miner import MiningConfig, PatternSet, mine
from .pattern import Strategy
from .predict import ScoreTable, apply_rules
from .rules import RuleBuilder, RuleSet, derive_rules_posthoc


@dataclass
class PhaseTimings:
    """Wall-clock seconds per pipeline phase.

    ``mining_s`` includes embedded rule generation; ``rule_posthoc_s`` is
    only filled by the legacy mode; ``apply_s`` is rule application.
    """

    preprocess_s: float = 0.0
    mining_s: float = 0.0
    rule_posthoc_s: float = 0.0
    apply_s: float = 0.0

    def to_tsv(self) -> str:
        lines = [f"{f.name}\t{getattr(self, f.name):.6f}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    @property
    def total_s(self) -> float:
        return self.preprocess_s + self.mining_s + self.rule_posthoc_s + self.apply_s


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
    max_embeddings: int | None = None,
) -> MiningRun:
    """Mine patterns and build the rule set in the requested mode."""
    if rule_mode not in ("embedded", "posthoc"):
        raise ValueError(f"unknown rule mode {rule_mode!r}")
    cfg = MiningConfig(
        support=support,
        max_nodes=max_nodes,
        strategy=strategy,
        max_embeddings=max_embeddings,
    )
    timings = PhaseTimings()
    t0 = time.perf_counter()
    g.index()  # build adjacency up front so it lands in preprocess time
    timings.preprocess_s = time.perf_counter() - t0

    if rule_mode == "embedded":
        sink = RuleBuilder(min_confidence, strategy)
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


def score_with_rules(
    g_train: MultiplexGraph,
    support: float | int,
    max_nodes: int,
    min_confidence: float,
    strategy: Strategy = Strategy.BFS,
    rule_mode: str = "embedded",
    dedupe_rule_firings: bool = False,
    max_embeddings: int | None = None,
) -> tuple[ScoreTable, MiningRun]:
    run = run_mining(
        g_train, support, max_nodes, min_confidence, strategy, rule_mode,
        max_embeddings,
    )
    t0 = time.perf_counter()
    table = apply_rules(
        g_train,
        run.rules,
        pattern_set=run.patterns,
        dedupe_rule_firings=dedupe_rule_firings,
    )
    run.timings.apply_s = time.perf_counter() - t0
    return table, run


def make_rule_scorer(
    support: float | int,
    max_nodes: int,
    min_confidence: float,
    strategy: Strategy = Strategy.BFS,
):
    """Scorer callback (graph -> ScoreTable) for ensembles and CV."""

    def scorer(g: MultiplexGraph) -> ScoreTable:
        table, _ = score_with_rules(g, support, max_nodes, min_confidence, strategy)
        return table

    return scorer


@dataclass
class CrossValResult:
    fold_reports: list[EvalReport]
    mean_auc: float
    mean_segment_aucs: dict

    @classmethod
    def from_reports(cls, reports: list[EvalReport]) -> "CrossValResult":
        mean_auc = sum(r.auc for r in reports) / len(reports)
        seg_means = {}
        for seg in (list(reports[0].segment_aucs) if reports else []):
            vals = [r.segment_aucs[seg] for r in reports if r.segment_aucs[seg] is not None]
            seg_means[seg] = sum(vals) / len(vals) if vals else None
        return cls(fold_reports=reports, mean_auc=mean_auc, mean_segment_aucs=seg_means)


def cross_validate(
    g: MultiplexGraph,
    scorer,
    k: int = 10,
    seed: int = 0,
    universe: str = "full",
    n_neg: int | None = None,
) -> CrossValResult:
    """k-fold CV: rescore each training fold and evaluate on its test fold."""
    reports = []
    for split in kfold_split(g, k, seed):
        t0 = time.perf_counter()
        table = scorer(split.train)
        score_s = time.perf_counter() - t0
        report = roc_auc(table, split, universe=universe, n_neg=n_neg, seed=seed)
        report.timings["score"] = score_s
        reports.append(report)
    return CrossValResult.from_reports(reports)

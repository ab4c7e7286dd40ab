"""plexmine: frequent multiplex patterns, association rules, link prediction."""

__version__ = "0.1.0"

# bump when the canonical-code construction changes; dumps are only
# comparable within one scheme version
CODE_SCHEME_VERSION = 1

from .graph import MultiplexGraph, TemporalMultiplexGraph, flatten_monoplex
from .coupled import MultilayerInstance, from_coupled, to_coupled
from .io import load_multiplex, load_temporal, save_multiplex
from .pattern import CanonicalCode, Delta, Pattern, PatternEdge, Strategy, canonical_code
from .miner import MinedPattern, MiningConfig, PatternSet, mine
from .rules import AssociationRule, RuleBuilder, RuleSet, derive_rules_posthoc
from .predict import LinkClass, ScoreTable, apply_rules, top_k
from .signed import SignMap, classify_rule, frustration, frustration_report
from .evaluate import (
    EvalReport,
    Split,
    candidate_universe,
    classic_score,
    ensemble,
    kfold_split,
    roc_auc,
    sharma_score,
    temporal_split,
)
from .datagen import SynthConfig, generate

__all__ = [
    "MultiplexGraph",
    "TemporalMultiplexGraph",
    "flatten_monoplex",
    "MultilayerInstance",
    "to_coupled",
    "from_coupled",
    "load_multiplex",
    "load_temporal",
    "save_multiplex",
    "Pattern",
    "PatternEdge",
    "Delta",
    "CanonicalCode",
    "Strategy",
    "canonical_code",
    "MiningConfig",
    "MinedPattern",
    "PatternSet",
    "mine",
    "AssociationRule",
    "RuleBuilder",
    "RuleSet",
    "derive_rules_posthoc",
    "ScoreTable",
    "LinkClass",
    "apply_rules",
    "top_k",
    "SignMap",
    "frustration",
    "classify_rule",
    "frustration_report",
    "Split",
    "kfold_split",
    "temporal_split",
    "candidate_universe",
    "roc_auc",
    "sharma_score",
    "classic_score",
    "ensemble",
    "EvalReport",
    "SynthConfig",
    "generate",
]

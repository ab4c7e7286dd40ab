"""Command-line interface: mine / predict / evaluate / frustration / generate.

Every subcommand is deterministic given its inputs, flags, and seed; data
outputs go to stdout or --out files, and --timings tables go to stderr
(or --timings-out) so the streams never interleave.

`evaluate` runs one path for every split, the single --temporal split or
each --kfold fold: ``pipeline.evaluate_splits`` runs ``evaluate_split``
on each split in turn, which scores the training graph with each method,
adds the --scores-tsv dumps, and combines the tables in an ensemble
whenever there are two or more of them.

Exit codes: 1 input parse error or a file that cannot be read or
written, 2 invalid parameters, 3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from . import __version__, CODE_SCHEME_VERSION
from .datagen import SynthConfig, generate
from .evaluate import EvalError, classic_score, kfold_split, sharma_score, temporal_split
from .graph import GraphError, flatten_monoplex
from .io import ParseError, load_multiplex, load_temporal, save_multiplex
from .miner import MiningConfig, MiningError, MiningInvariantError
from .pattern import PatternError, Strategy
from .pipeline import CrossValResult, evaluate_splits, make_rule_scorer, run_mining
from .predict import apply_rules, explain_text, load_score_dump, ranked_rows, score_text
from .rules import DEFAULT_MIN_CONFIDENCE, RuleSet, RuleTable
from .signed import SignMap, SignedError, frustration_report

EXIT_PARSE = 1
EXIT_PARAMS = 2
EXIT_INTERNAL = 3


def _support_arg(text: str) -> float | int:
    """Absolute integer, fraction in (0,1], or percentage like `40%`."""
    text = text.strip()
    try:
        if text.endswith("%"):
            return float(text[:-1]) / 100.0
        if "." in text or "e" in text.lower():
            return float(text)
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer count, a fraction such as 0.4 or a percentage "
            f"such as 40%, got {text!r}") from None


def _confidence_arg(text: str) -> float:
    """A number in [0, 1], which rules out NaN and the infinities."""
    try:
        value = float(text)
        if 0.0 <= value <= 1.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("edges", help="edge file (u TAB v TAB layer)")
    p.add_argument("--attrs", help="node attribute file (node TAB label)")
    p.add_argument("--directed", action="store_true",
                   help="treat edges as directed arcs")


def _add_mining_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--support", type=_support_arg, default=1,
                   help="minimum image support: int, fraction, or N%% of |V|")
    p.add_argument("--size", type=int, default=3, help="max pattern nodes")
    p.add_argument("--confidence", type=_confidence_arg, default=DEFAULT_MIN_CONFIDENCE,
                   help="minimum rule confidence")
    p.add_argument("--strategy", choices=["bfs", "dfs"], default="bfs")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _out(path: str | None, text: str) -> None:
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _emit_timings(args, timings) -> None:
    if not args.timings:
        return
    if args.timings_out:
        with open(args.timings_out, "w", encoding="utf-8") as fh:
            fh.write(timings.to_tsv())
    else:
        sys.stderr.write(timings.to_tsv())


def _load(args):
    return load_multiplex(args.edges, args.attrs, args.directed)


def cmd_mine(args) -> int:
    if args.timings_out and not args.timings:
        raise ValueError("--timings-out needs --timings")
    g = _load(args)
    strategy = Strategy(args.strategy)
    if args.rule_mode == "both":
        emb = run_mining(g, args.support, args.size, args.confidence, strategy,
                         "embedded")
        post = run_mining(g, args.support, args.size, args.confidence, strategy,
                          "posthoc")
        equal = emb.rules.to_tsv() == post.rules.to_tsv()
        sys.stderr.write(
            f"mode-equivalence\t{'equal' if equal else 'DIFFERENT'}\t"
            f"embedded_total={emb.timings.total_s:.6f}\t"
            f"posthoc_total={post.timings.total_s:.6f}\n"
        )
        run = emb
        run.timings.rule_posthoc_s = post.timings.rule_posthoc_s
        if not equal:
            raise MiningInvariantError("embedded and post-hoc rule sets differ")
    else:
        run = run_mining(g, args.support, args.size, args.confidence, strategy,
                         args.rule_mode)
    _out(args.patterns_out, run.patterns.dump())
    _out(args.rules_out, run.rules.to_tsv())
    _emit_timings(args, run.timings)
    _warn_if_empty(g, args.support, run)
    return 0


def _warn_if_empty(g, support, run) -> None:
    """One warning line on stderr when mining yields nothing to use."""
    sigma = MiningConfig(support=support).resolve_support(g)
    largest = max(Counter(g.attrs.values()).values(), default=0)
    if g.n_nodes == 0:
        msg = "the graph has no nodes, so no pattern can be found"
    elif sigma > largest:
        msg = (f"support {sigma} exceeds every label class (largest {largest} "
               "nodes), so no pattern can be frequent")
    elif len(run.patterns) == 0 or len(run.rules) == 0:
        msg = f"support {sigma} gave {len(run.patterns)} patterns and {len(run.rules)} rules"
    else:
        return
    sys.stderr.write(f"warning: {msg}\n")


def cmd_predict(args) -> int:
    if args.top is not None and args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    g = _load(args)
    rules = RuleSet.from_tsv(args.rules)
    t0 = time.perf_counter()
    selected = RuleTable(rules).fitting(g)
    skipped = len(rules) - len(selected)
    if skipped:
        sys.stderr.write(f"warning: skipped {skipped} of {len(rules)} rules: they reference "
                         "a layer or label absent from the graph\n")
    table = apply_rules(g, selected, dedupe_rule_firings=args.dedupe_rule_firings,
                        track_provenance=args.explain is not None)
    apply_s = time.perf_counter() - t0
    rows = ranked_rows(table, g.node_names, g.layer_names, args.top)
    if args.explain is not None:
        _write(args.explain, explain_text(rows, table, selected.rules()))
    text = score_text(rows)
    _out(args.out, text)
    if not text:
        sys.stderr.write(f"warning: {len(rules)} rules scored no candidate, "
                         "so predict wrote no rows\n")
    if args.timings:
        sys.stderr.write(f"apply_s\t{apply_s:.6f}\n")
    return 0


def _method_scorer(name: str, args):
    strategy = Strategy(args.strategy)
    if name == "rules":
        return make_rule_scorer(args.support, args.size, args.confidence, strategy)
    if name == "sharma":
        return sharma_score
    if name in ("ra", "ja", "pa", "aa"):
        return lambda g: classic_score(g, name)
    raise EvalError(f"unknown method {name!r}")


def _n_neg_arg(args) -> int | None:
    """``--universe`` as negatives to sample: None for the full universe."""
    if args.universe == "full":
        return None
    if args.universe.startswith("sampled:"):
        try:
            return int(args.universe.split(":", 1)[1])
        except ValueError:
            pass
    raise EvalError(f"--universe must be full or sampled:N, got {args.universe!r}")


def cmd_evaluate(args) -> int:
    if args.keep_layers and not args.monoplex:
        raise EvalError("--keep-layers needs --monoplex")
    if args.ensemble and args.method is not None:
        raise EvalError("--ensemble replaces --method; give one of them")
    if args.temporal and args.kfold is not None:
        raise EvalError("--temporal replaces --kfold; give one of them")
    n_neg = _n_neg_arg(args)
    methods = args.ensemble.split(",") if args.ensemble else [args.method or "rules"]
    if args.ensemble_mode == "opt" and len(methods) < 2:
        raise EvalError("--ensemble-mode opt needs --ensemble with two or more methods")
    if args.temporal:
        tg = load_temporal(args.edges, args.attrs, args.directed)
        g = tg.base
        splits = [temporal_split(tg, *args.temporal)]
        if args.monoplex:
            raise EvalError("--monoplex is only supported with --kfold")
    else:
        g = _load(args)
        if args.monoplex:
            keep = None
            if args.keep_layers:
                keep = [g.layer_id(n) for n in args.keep_layers.split(",")]
            g = flatten_monoplex(g, keep)
        if args.scores_tsv:
            raise EvalError("external score dumps need a fixed --temporal split; "
                            "k-fold rescoring cannot reuse them")
    scorers = [_method_scorer(m, args) for m in methods]
    tables = [load_score_dump(path, g) for path in args.scores_tsv or []]
    if not args.temporal:
        splits = kfold_split(g, 10 if args.kfold is None else args.kfold, args.seed)
    reports = evaluate_splits(splits, scorers, tables, optimize=args.ensemble_mode == "opt",
                              seed=args.seed, n_neg=n_neg)
    if args.temporal:
        _out(args.out, reports[0].to_tsv())
    else:
        _out(args.out, CrossValResult.from_reports(reports).to_tsv())
    return 0


def cmd_frustration(args) -> int:
    rules = RuleSet.from_tsv(args.rules)
    if args.edges:
        layer_names = load_multiplex(args.edges).layer_names
    else:
        layer_ids = {e.layer for r in rules for e in r.consequent.edges}
        layer_names = {lid: str(lid) for lid in layer_ids}
    if args.signs == "pardus-preset":
        signs = SignMap.pardus_preset(layer_names)
    else:
        signs = SignMap.parse(args.signs, layer_names)
    report = frustration_report(rules, signs)
    _out(args.out, report.to_tsv())
    return 0


def cmd_generate(args) -> int:
    cfg = SynthConfig(
        n=args.nodes,
        layers=args.layers,
        avg_degree=args.avg_degree,
        p_triangle=args.p_triangle,
        n_labels=args.labels,
        seed=args.seed,
    )
    g = generate(cfg)
    if cfg.avg_degree % 2:
        sys.stderr.write(f"warning: odd --avg-degree {cfg.avg_degree} rounds down "
                         f"to {2 * cfg.m}\n")
    save_multiplex(g, f"{args.out_prefix}.edges", f"{args.out_prefix}.attrs")
    sys.stderr.write(f"wrote {g!r} to {args.out_prefix}.edges/.attrs\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plexmine",
        description="Frequent multiplex patterns, association rules, and "
                    "link prediction.",
    )
    ap.add_argument(
        "--version", action="version",
        version=f"plexmine {__version__} (canonical-code-scheme {CODE_SCHEME_VERSION})",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine frequent patterns and rules")
    _add_graph_args(p)
    _add_mining_args(p)
    p.add_argument("--rule-mode", choices=["embedded", "posthoc", "both"],
                   default="embedded")
    p.add_argument("--patterns-out")
    p.add_argument("--rules-out")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--timings-out")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("predict", help="apply a rule dump to a graph")
    _add_graph_args(p)
    p.add_argument("--rules", required=True, help="rule dump (TSV)")
    p.add_argument("--out")
    p.add_argument("--top", type=int)
    p.add_argument("--dedupe-rule-firings", action="store_true")
    p.add_argument("--explain", metavar="PATH",
                   help="write the rules that fired each written triple to PATH (TSV)")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="ROC/AUC evaluation harness")
    _add_graph_args(p)
    _add_mining_args(p)
    p.add_argument("--kfold", type=int, help="number of folds (default 10; not with --temporal)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temporal", nargs=2, type=int, metavar=("T", "DELTA"),
                   help="temporal split instead of k-fold (edge file has "
                        "a 4th integer column)")
    p.add_argument("--method", choices=["rules", "sharma", "ra", "ja", "pa", "aa"],
                   help="scoring method (default rules; not with --ensemble)")
    p.add_argument("--ensemble", help="comma list of methods to combine")
    p.add_argument("--ensemble-mode", choices=["base", "opt"], default="base")
    p.add_argument("--universe", default="full", help="full or sampled:N")
    p.add_argument("--monoplex", action="store_true",
                   help="flatten layers before evaluating")
    p.add_argument("--keep-layers", help="comma list of layer names to keep "
                                         "when flattening")
    p.add_argument("--scores-tsv", action="append",
                   help="external score dump joining the ensemble "
                        "(temporal splits only; repeatable)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("frustration", help="signed-rule frustration report")
    p.add_argument("--rules", required=True)
    p.add_argument("--signs", required=True,
                   help="`name:+,name:-,name:x` or `pardus-preset`")
    p.add_argument("--edges", help="edge file, used to resolve layer names")
    p.add_argument("--out")
    p.set_defaults(func=cmd_frustration)

    p = sub.add_parser("generate", help="synthetic multiplex graph files")
    p.add_argument("--nodes", type=int, default=500)
    p.add_argument("--layers", type=int, default=7)
    p.add_argument("--avg-degree", type=int, default=8)
    p.add_argument("--p-triangle", type=float, default=0.5)
    p.add_argument("--labels", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_generate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (MiningInvariantError, AssertionError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except (GraphError, PatternError, MiningError, EvalError, SignedError,
            ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())

"""The timed operation of each workload, and the checks of its outputs.

Calls go through the module attributes (``evaluate.kfold_split``, not a
name imported from it), so the traced run's wrappers see them.

``OPS[workload](g, wrap)`` runs one operation on a loaded graph and
returns its outputs; ``wrap`` lets the traced run put a span around the
scorer the operation hands to the program. ``digest`` condenses the
outputs so that every operation of a run can be compared with the one
that was checked in full, and ``CHECKS[workload]`` is that full check.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

from plexmine import evaluate, pipeline
from plexmine.pattern import Strategy, apply_delta, canonical_code
from plexmine.rules import derive_rules_posthoc

from auc import split_auc

KFOLD_SEED = 0

# mine-standin: acceptance criterion 5 at sigma = 40 %
STANDIN_SUPPORT, STANDIN_SIZE, STANDIN_CONF = 0.4, 4, 0.5
BRUTE_MIS_SAMPLE = 24


class CheckError(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def no_wrap(name, fn):
    return fn


def op_mine_standin(g, wrap=no_wrap):
    run = pipeline.run_mining(g, STANDIN_SUPPORT, STANDIN_SIZE, STANDIN_CONF,
                              Strategy.BFS, "embedded")
    return {"run": run, "pattern_dump": run.patterns.dump(), "rule_dump": run.rules.to_tsv()}


def op_cv_overlap(g, wrap=no_wrap):
    tables = []
    rule_scorer = pipeline.make_rule_scorer(0.1, 3, 0.5)

    def scorer(train):
        table = rule_scorer(train)
        tables.append(table)
        return table

    result = pipeline.cross_validate(g, wrap("pipeline.score", scorer), k=10, seed=KFOLD_SEED)
    return {"tables": tables, "aucs": [r.auc for r in result.fold_reports],
            "mean_auc": result.mean_auc}


def op_ensemble_opt(g, wrap=no_wrap):
    split = evaluate.kfold_split(g, 10, KFOLD_SEED)[0]
    scorers = [wrap("pipeline.score", pipeline.make_rule_scorer(0.2, 3, 0.5)),
               evaluate.sharma_score]
    tables = [s(split.train) for s in scorers]
    res = evaluate.ensemble(tables, split, optimize=True, seed=KFOLD_SEED, scorers=scorers)
    report = evaluate.roc_auc(res.table, split)
    return {"splits": [split], "tables": [res.table], "aucs": [report.auc],
            "weights": res.weights}


OPS = {
    "mine-standin": op_mine_standin,
    "cv-overlap": op_cv_overlap,
    "ensemble-opt": op_ensemble_opt,
}


def _table_text(table) -> str:
    oo = sorted(table.oldold.items())
    on = sorted(table.oldnew.items())
    return repr((table.baseline, oo, on))


def digest(out: dict) -> str:
    """sha256 over the outputs a user would see: dumps, AUCs and scores."""
    h = hashlib.sha256()
    if "pattern_dump" in out:
        h.update(out["pattern_dump"].encode())
        h.update(out["rule_dump"].encode())
    for table, auc in zip(out.get("tables", []), out.get("aucs", [])):
        h.update(repr(auc).encode())
        h.update(_table_text(table).encode())
    if "weights" in out:
        h.update(repr([float(w) for w in out["weights"]]).encode())
    return h.hexdigest()


def summary(out: dict) -> dict:
    """A few figures of the outputs, for the run's result file."""
    if "pattern_dump" in out:
        return {"patterns": len(out["run"].patterns), "rules": len(out["run"].rules)}
    aucs = out["aucs"]
    return {"auc": sum(aucs) / len(aucs), "folds": len(aucs),
            "scored": sum(len(t.oldold) + len(t.oldnew) for t in out["tables"])}


# -- checks ---------------------------------------------------------------------


def check_mining(g, out: dict, seed: int) -> dict:
    """Criterion-5 invariants of the mined patterns and rules.

    Returns the seconds taken by the legacy post-hoc derivation, which the
    traced run reports as ``rules.posthoc_s``.
    """
    from oracles import brute_mis  # tests/oracles.py

    run = out["run"]
    sigma = math.ceil(STANDIN_SUPPORT * g.n_nodes)
    records = list(run.patterns)
    _require(len(records) > 0, "no patterns mined")
    supports = {rec.code: rec.support for rec in records}
    for rec in records:
        _require(rec.support >= sigma, f"{rec.code.to_string()}: support {rec.support} < {sigma}")
    for rec in random.Random(seed).sample(records, min(BRUTE_MIS_SAMPLE, len(records))):
        brute = brute_mis(rec.pattern, g)
        _require(brute == rec.support,
                 f"{rec.code.to_string()}: support {rec.support}, brute force {brute}")
    _require(len(run.rules) > 0, "no rules derived")
    for rule in run.rules:
        _require(0 < rule.support_c <= rule.support_a,
                 f"rule supports {rule.support_a}/{rule.support_c}")
        _require(rule.support_c >= STANDIN_CONF * rule.support_a - 1e-9,
                 f"rule confidence {rule.support_c}/{rule.support_a} < {STANDIN_CONF}")
        _require(supports.get(rule.antecedent_code) == rule.support_a,
                 "rule support_a differs from its antecedent's support")
        _require(supports.get(rule.consequent_code) == rule.support_c,
                 "rule support_c differs from its consequent's support")
        cons = canonical_code(apply_delta(rule.antecedent, rule.delta), Strategy.BFS)
        _require(cons == rule.consequent_code, "consequent code is not antecedent + delta")
    t0 = time.perf_counter()
    posthoc = derive_rules_posthoc(run.patterns, STANDIN_CONF, Strategy.BFS)
    posthoc_s = time.perf_counter() - t0
    _require(posthoc.to_tsv() == out["rule_dump"], "embedded rules differ from post-hoc rules")
    return {"rules.posthoc_s": posthoc_s}


def check_folds(g, out: dict, seed: int) -> dict:
    """Each fold's AUC against a count-based Mann-Whitney of its table."""
    all_edges = set(g.edges)
    splits = out.get("splits") or evaluate.kfold_split(g, 10, KFOLD_SEED)
    _require(len(splits) == len(out["tables"]) == len(out["aucs"]), "fold count")
    for split, table, auc in zip(splits, out["tables"], out["aucs"]):
        train = set(split.train.edges)
        _require(not (train & split.test_edges), "test edges overlap the training edges")
        _require(train | split.test_edges == all_edges, "split loses edges")
        want = split_auc(table.oldold, table.oldnew, table.baseline, split.train.nodes,
                         split.train.layers, train, split.test_edges, split.train.directed)
        _require(abs(auc - want) <= 1e-9, f"AUC {auc!r}, count-based {want!r}")
    if "mean_auc" in out:
        aucs = out["aucs"]
        _require(len(aucs) == 10, f"{len(aucs)} folds, expected 10")
        _require(abs(out["mean_auc"] - sum(aucs) / len(aucs)) <= 1e-12, "mean AUC")
    if "weights" in out:
        _require(abs(math.fsum(w * w for w in out["weights"]) - 1.0) <= 1e-9,
                 "ensemble weights are not unit-norm")
    return {}


CHECKS = {
    "mine-standin": check_mining,
    "cv-overlap": check_folds,
    "ensemble-opt": check_folds,
}

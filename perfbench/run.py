"""plexmine benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a plexmine checkout. The input graph of the
workload is written from the seed into ``perfbench/.work/``; then whole
operations run, each in a fresh interpreter and one at a time, until
``--seconds`` have passed. The first operation's outputs are checked in
full (see ``ops.py``) and every later one must reproduce them exactly.

With ``--trace 0`` the run reports, as medians over its operations:
``op_s`` (wall time of one operation), ``setup_s`` (from the child's
spawn to the start of its operation: interpreter, imports, loading the
input files) and ``peak_rss_mb`` (peak resident memory of the child).
With ``--trace 1`` each round is one untraced and one traced operation,
and the per-layer metrics of ``PER_LAYER`` come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit status: 0
when every output is correct, 1 when a check failed, 2 when the program
is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("mine-standin", "cv-overlap", "ensemble-opt")
CHECK_FAILED = 3  # child.py exits with this when an output check fails
SETUP_PROBES = 8  # children per run that only set up, so setup_s is a median of many

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; the traced child's figure of the same name, except
# the ones in SPAN_FIGURE and DERIVED
PER_LAYER = {
    "io.load_s": "s",
    "graph.index_s": "s",
    "graph.has_pairs_calls": "count",
    "graph.has_pairs_s": "s",
    "graph.neighbors_flat_s": "s",
    "matcher.support_calls": "count",
    "matcher.support_s": "s",
    "pattern.canonical_calls": "count",
    "pattern.canonical_s": "s",
    "miner.mine_s": "s",
    "miner.mine_self_s": "s",
    "miner.kept_ratio": "ratio",
    "rules.offer_calls": "count",
    "rules.offer_s": "s",
    "rules.posthoc_s": "s",
    "predict.apply_s": "s",
    "pipeline.score_s": "s",
    "pipeline.score_self_s": "s",
    "evaluate.split_s": "s",
    "evaluate.universe_s": "s",
    "evaluate.universe_calls": "count",
    "evaluate.universe_candidates": "count",
    "evaluate.universe_scores_s": "s",
    "evaluate.roc_s": "s",
    "evaluate.rank_auc_calls": "count",
    "evaluate.rank_auc_s": "s",
    "evaluate.ensemble_s": "s",
    "evaluate.ensemble_self_s": "s",
    "op.traced_s": "s",
    "op.untraced_s": "s",
    "op.trace_overhead": "ratio",
}
SPAN_FIGURE = {"evaluate.universe_candidates": "evaluate.universe_items"}
DERIVED = ("miner.kept_ratio", "op.traced_s", "op.untraced_s", "op.trace_overhead")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_child(workload: str, input_dir: str, seed: int, mode: str, spans_path: str) -> dict:
    """Run one operation in a fresh interpreter and return its record."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, input_dir,
           str(seed), mode, spans_path]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        if proc.poll() is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return {"mode": mode, "status": proc.returncode, "stderr": stderr[-4000:]}
    rec = json.loads(stdout.strip().splitlines()[-1])
    rec.update(mode=mode, status=0, setup_s=rec["t_op0"] - t_spawn)
    return rec


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from inputs import write_inputs

    input_dir = os.path.join(WORK, "inputs", f"{workload}-seed{seed}")
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    write_inputs(workload, seed, input_dir)

    deadline = time.monotonic() + seconds
    probes = [] if trace else [run_child(workload, input_dir, seed, "setup", "")
                               for _ in range(SETUP_PROBES)]
    records: list[dict] = []
    reference = None  # digest of the first operation whose outputs passed the check
    correct = True
    while True:
        for kind in (("plain", "trace") if trace else ("plain",)):
            mode = "check" if kind == "plain" and reference is None and not trace else kind
            spans_path = os.path.join(results_dir, f"{workload}-seed{seed}-op{len(records)}.spans.json")
            rec = run_child(workload, input_dir, seed, mode, spans_path)
            records.append(rec)
            if rec["status"] == CHECK_FAILED:
                correct = False
            elif rec["status"] == 0 and mode != "plain" and reference is None:
                reference = rec["digest"]
        if time.monotonic() >= deadline:
            break
    for rec in records:
        if rec["status"] == 0 and reference is not None and rec["digest"] != reference:
            rec["status"] = "digest differs from the checked operation"
            correct = False
    records = probes + records
    for rec in records:
        if rec["status"] != 0:
            print(f"{workload}: operation failed ({rec['mode']}): {rec['status']}\n"
                  f"{rec.get('stderr', '')}", file=sys.stderr)

    ok = [r for r in records if r["status"] == 0]
    samples: dict[str, list[float]] = {}
    if trace:
        untraced = [r["op_s"] for r in ok if r["mode"] == "plain"]
        traced = [r for r in ok if r["mode"] == "trace"]
        for name in PER_LAYER:
            if name not in DERIVED:
                samples[name] = [r["layers"].get(SPAN_FIGURE.get(name, name), 0) for r in traced]
        samples["miner.kept_ratio"] = [
            r["layers"].get("miner.mine_items", 0) / r["layers"]["matcher.support_calls"]
            if r["layers"].get("matcher.support_calls") else 0.0 for r in traced]
        samples["op.traced_s"] = [r["op_s"] for r in traced]
        samples["op.untraced_s"] = untraced
        if traced and untraced:
            samples["op.trace_overhead"] = [
                statistics.median(samples["op.traced_s"]) / statistics.median(untraced)]
        units = PER_LAYER
    else:
        timed = [r for r in ok if r["mode"] != "setup"]
        samples["op_s"] = [r["op_s"] for r in timed]
        samples["setup_s"] = [r["setup_s"] for r in ok]
        samples["peak_rss_mb"] = [r["rss_kb"] / 1024.0 for r in timed]
        units = END_TO_END

    metrics = {}
    print(f"# {workload} seed={seed} trace={int(trace)}: {len(records)} operations, "
          f"{len(records) - len(ok)} failed; outputs {ok[-1].get('summary') if ok else None}")
    for name, unit in units.items():
        values = samples.get(name) or []
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{workload}\t{name}\t{unit}\tmedian={med:.6g}\tq1={q1:.6g}\tq3={q3:.6g}\tn={len(values)}")
    result = {"correct": correct, "attempted": len(records),
              "failed": len(records) - len(ok), "metrics": metrics}
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "samples": samples, "operations": records}, fh, indent=1)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for need in ("src/plexmine/__init__.py", "tests/oracles.py"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from a plexmine checkout",
                  file=sys.stderr)
            return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload cv-overlap --seeds 1-10 --seconds 35
    python3 perfbench/repeat.py --workload ensemble-opt --seeds 1-10 --root ../parent --root .

Each seed is one ``run.py`` run (``--trace 0``) per root. With several
roots (checkouts of different commits, each holding the same
``perfbench/``) the roots take turns going first, seed by seed. For
every end-to-end metric the median of the runs' values, their first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` are printed; with two roots also the second
median as a share of the first, and in how many seeds the second root
read lower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed in {root}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--root", action="append", help="checkout to run in (default: this one)")
    args = ap.parse_args()
    roots = [os.path.abspath(r) for r in (args.root or [os.path.dirname(HERE)])]
    seeds = seed_range(args.seeds)
    for workload in args.workload:
        values: dict[str, dict[str, list[float]]] = {r: {} for r in roots}
        fails: dict[str, list[float]] = {r: [] for r in roots}
        for i, seed in enumerate(seeds):
            order = roots[i % len(roots):] + roots[:i % len(roots)]
            for root in order:
                res = one_run(root, workload, seed, args.seconds)
                fails[root].append(res["failed"] / res["attempted"])
                for name, m in res["metrics"].items():
                    values[root].setdefault(name, []).append(m["value"])
                print(f"{workload}\tseed={seed}\t{root}\t" + "\t".join(
                    f"{k}={m['value']:.4f}" for k, m in res["metrics"].items()), flush=True)
        medians: dict[str, dict[str, float]] = {}
        for root in roots:
            medians[root] = {}
            print(f"# {workload} in {root}: {len(seeds)} runs, failed share "
                  f"{sorted(set(fails[root]))}")
            for name, vals in values[root].items():
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                medians[root][name] = med
                print(f"{workload}\t{name}\tmedian={med:.5g}\tq1={q1:.5g}\tq3={q3:.5g}"
                      f"\tspread={(q3 - q1) / med:.4f}\tmin={min(vals):.5g}\tmax={max(vals):.5g}")
        if len(roots) == 2:
            a, b = roots
            for name in medians[a]:
                wins = sum(vb < va for va, vb in zip(values[a][name], values[b][name]))
                print(f"{workload}\t{name}\tsecond/first={medians[b][name] / medians[a][name]:.4f}"
                      f"\tsecond lower in {wins} of {len(seeds)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py <workload> <input-dir> <seed> <mode> [<spans.json>]

``mode`` is ``setup`` (stop where the operation would start), ``plain``
(time the operation), ``check`` (time it, then check its outputs in full)
or ``trace`` (time it with spans on every layer boundary, check it, and
write the spans to ``spans.json``). The last line
of standard output is one JSON object; its ``t_op0`` is a
``time.monotonic`` reading, which shares one clock with the parent on
Linux, so the parent can measure set-up from its own spawn time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[1:1] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
CHECK_FAILED = 3  # exit status run.py reads as "outputs are wrong"


def main(argv: list[str]) -> int:
    workload, input_dir, seed, mode = argv[:4]
    from plexmine import io

    import ops
    from spans import Tracer, layer_metrics

    paths = os.path.join(input_dir, "graph.edges"), os.path.join(input_dir, "graph.attrs")
    tracer = Tracer() if mode == "trace" else None
    if tracer is None:
        g = io.load_multiplex(*paths)
        wrap = ops.no_wrap
    else:
        g = tracer.wrap("io.load", io.load_multiplex)(*paths)
        tracer.install()
        wrap = tracer.wrap

    t_op0 = time.monotonic()
    if mode == "setup":
        print(json.dumps({"t_op0": t_op0}))
        return 0
    p0 = time.perf_counter()
    out = ops.OPS[workload](g, wrap)
    p1 = time.perf_counter()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"t_op0": t_op0, "op_s": p1 - p0, "rss_kb": rss_kb,
              "digest": ops.digest(out), "summary": ops.summary(out)}
    if tracer is not None:
        tracer.uninstall()
    if mode in ("check", "trace"):
        try:
            result["check"] = ops.CHECKS[workload](g, out, int(seed))
        except ops.CheckError as exc:
            print(f"{workload}: output check failed: {exc}", file=sys.stderr)
            return CHECK_FAILED
    if tracer is not None:
        span_list = tracer.to_json()
        with open(argv[4], "w", encoding="utf-8") as fh:
            json.dump(span_list, fh)
        result["layers"] = layer_metrics(span_list)
        result["layers"].update(result["check"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

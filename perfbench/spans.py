"""In-memory spans around the program's layer boundaries.

Wrappers are installed on the names the callers actually use (a module
attribute that another module imported by name is patched where it is
looked up, a method on its class), so every call through the benchmark's
operations is seen. Nothing under ``src/`` is changed: ``Tracer.install``
patches at run time and ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    items: int = 0  # layer-specific work count, e.g. candidates built


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn, items=None):
        """Return ``fn`` recording one span per call; ``items(result)`` may
        give a count to attach to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if items is not None:
                span.items = items(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, items=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, items))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        from plexmine import evaluate, graph, miner, pipeline, rules

        self.patch(graph.GraphIndex, "__init__", "graph.index")
        self.patch(graph.GraphIndex, "has_pairs", "graph.has_pairs")
        self.patch(graph.GraphIndex, "neighbors_flat", "graph.neighbors_flat")
        self.patch(miner, "mis_support_array", "matcher.support")
        self.patch(miner, "canonical_code", "pattern.canonical")
        self.patch(pipeline, "mine", "miner.mine", items=len)
        self.patch(rules.RuleBuilder, "offer", "rules.offer")
        self.patch(pipeline, "apply_rules", "predict.apply")
        self.patch(pipeline, "kfold_split", "evaluate.split")
        self.patch(evaluate, "kfold_split", "evaluate.split")
        self.patch(evaluate, "candidate_universe", "evaluate.universe",
                   items=lambda uni: uni.n_candidates)
        self.patch(evaluate, "universe_scores", "evaluate.universe_scores")
        self.patch(evaluate, "auc_and_roc", "evaluate.roc")
        self.patch(evaluate, "rank_auc", "evaluate.rank_auc")
        self.patch(evaluate, "ensemble", "evaluate.ensemble")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


SELF_TIMED = ("miner.mine", "evaluate.ensemble", "pipeline.score")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Inclusive seconds, call counts, items and self seconds per span name.

    A span's self time is its duration minus the time its direct children
    cover; children of one span never overlap, since calls are sequential.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        items[s["name"]] = items.get(s["name"], 0) + s["items"]
        if s["parent"] is not None:
            child_time[s["parent"]] += d
    self_time: dict[str, float] = {}
    for s, c in zip(spans, child_time):
        if s["name"] in SELF_TIMED:
            self_time[s["name"]] = self_time.get(s["name"], 0.0) + (s["end"] - s["start"] - c)
    out: dict[str, float] = {}
    for name in total:
        out[f"{name}_s"] = total[name]
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_items"] = items[name]
    for name, t in self_time.items():
        out[f"{name}_self_s"] = t
    return out

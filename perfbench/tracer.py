"""Per-layer tracing by wrapping siglink's public functions.

Each layer function is replaced, in the module that looks it up, by a
wrapper that records a span (name, start, end, parent) and counts taken
from the call's arguments and return value. Functions called once per
record or per pair (``extract``, ``eliminate``) would flood the span
list, so they are aggregated instead: total time and calls, with their
time charged to the enclosing span. Spans stay in memory until
``to_json``. Nothing in siglink itself changes.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set size (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.agg: dict[str, dict] = defaultdict(lambda: {"s": 0.0, "calls": 0})
        self.counts: dict[str, float] = defaultdict(float)

    def _charge(self, name: str, seconds: float) -> None:
        rec = self.agg[name]
        rec["s"] += seconds
        rec["calls"] += 1
        if self.stack:
            self.stack[-1]["agg_s"] += seconds

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call is a span; ``count(tracer, args,
        kwargs, result)`` runs after the span closes, charged to
        ``trace.count``."""
        def wrapper(*args, **kwargs):
            rec = {"id": len(self.spans), "name": name,
                   "parent": self.stack[-1]["id"] if self.stack else None,
                   "start": time.monotonic(), "end": None, "agg_s": 0.0}
            self.spans.append(rec)
            self.stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.monotonic()
                self.stack.pop()
            if count is not None:
                t0 = time.monotonic()
                count(self, args, kwargs, out)
                self._charge("trace.count", time.monotonic() - t0)
            return out
        return wrapper

    def aggregate(self, name, fn, count=None):
        """Wrap a hot ``fn``: total time and calls, no span per call."""
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            out = fn(*args, **kwargs)
            self._charge(name, time.monotonic() - t0)
            if count is not None:
                count(self, args, kwargs, out)
            return out
        return wrapper

    def to_json(self) -> dict:
        """Spans with start/end relative to the first span, and each
        span's self time: its duration minus its child spans and the
        aggregated calls made inside it."""
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [{
            "id": s["id"], "name": s["name"], "parent": s["parent"],
            "start": s["start"] - t0, "end": s["end"] - t0,
            "self_s": s["end"] - s["start"] - child_s[s["id"]] - s["agg_s"],
        } for s in self.spans]
        return {"spans": spans, "aggregates": dict(self.agg), "counts": dict(self.counts)}


# --- counts taken at the layer boundaries -------------------------------------

def _after_prune(tr: Tracer, args, kwargs, index) -> None:
    tr.counts["indexer.index_from_postings_calls"] += 1
    tr.counts["linker.pairs_enumerated"] += sum(
        len(e.postings) * (len(e.postings) - 1) // 2 for e in index.entries.values())
    tr.counts["mem.rss_after_index_mb"] = max(tr.counts["mem.rss_after_index_mb"], rss_mb())


def _after_group(tr: Tracer, args, kwargs, groups) -> None:
    tr.counts["linker.evidence_rows"] += sum(len(v) for v in groups.values())


def _after_combine(tr: Tracer, args, kwargs, pairs) -> None:
    tr.counts["mem.rss_after_link_mb"] = max(tr.counts["mem.rss_after_link_mb"], rss_mb())


def _after_verify(tr: Tracer, args, kwargs, pairs) -> None:
    verifier = args[1] if len(args) > 1 else kwargs.get("verifier")
    if verifier is not None:
        tr.counts["linker.verify_checked"] += len(pairs)
        tr.counts["linker.verify_accepted"] += sum(1 for p in pairs if p.verified)


def _after_eliminate(tr: Tracer, args, kwargs, kept) -> None:
    tr.counts["linker.eliminated_rows"] += len(args[0]) - len(kept)


def install(tracer: Tracer) -> None:
    """Replace each layer function where siglink looks it up."""
    from siglink import cc, evaluation, indexer, linker, pipeline

    def rounds(fn, key):
        def counted(edges, stats=None):
            st = {} if stats is None else stats
            out = fn(edges, st)
            tracer.counts[f"cc.{key}"] += st.get(key, 0)
            return out
        return counted

    pipeline.load_csv_with_keys = tracer.span("records.load", pipeline.load_csv_with_keys)
    pipeline.deduplicate = tracer.span("records.dedup", pipeline.deduplicate)
    indexer.extract = tracer.aggregate("templates.extract", indexer.extract)
    pipeline.build_raw_postings = tracer.span("indexer.build_raw_postings",
                                              pipeline.build_raw_postings)
    for mod in (pipeline, evaluation):
        mod.index_from_postings = tracer.span("indexer.index_from_postings",
                                              mod.index_from_postings, _after_prune)
    linker.group_pairs = tracer.span("linker.group_pairs", linker.group_pairs, _after_group)
    linker.combine_pairs = tracer.span("linker.combine_pairs", linker.combine_pairs, _after_combine)
    linker.eliminate = tracer.aggregate("linker.eliminate", linker.eliminate, _after_eliminate)
    linker.verify_pairs = tracer.span("linker.verify_pairs", linker.verify_pairs, _after_verify)
    linker.threshold_pairs = tracer.span("linker.threshold_pairs", linker.threshold_pairs)
    evaluation.evaluate = tracer.span("evaluation.evaluate", evaluation.evaluate)
    pipeline.grid_search = tracer.span("evaluation.grid_search", pipeline.grid_search)
    cc.connected_components = tracer.span("cc.connected_components", cc.connected_components)
    cc.to_forest = tracer.span("cc.to_forest", rounds(cc.to_forest, "forest_rounds"))
    cc.flatten = tracer.span("cc.flatten", rounds(cc.flatten, "flatten_rounds"))

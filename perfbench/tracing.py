"""Outside-in tracing of the maxerr layers.

Wrappers are installed on the public functions of each layer only for a
traced run and removed afterwards, so untraced runs execute the program
unmodified.  Every wrapped call records a span (name, start, end,
parent) in memory; self time is a span's duration minus the time its
child spans cover.  Names are patched where they are looked up: a
function imported into another module with ``from ... import`` is a
separate binding there.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import Counter, defaultdict

# Modules come from importlib: ``maxerr.propagate`` as an attribute is the
# re-exported function of that name, not the module.
analysis = importlib.import_module("maxerr.analysis")
mapsearch = importlib.import_module("maxerr.mapsearch")
propagate = importlib.import_module("maxerr.propagate")


class Tracer:
    """Span recorder plus the counters that ride on the same calls."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.seed_gap = 0.0
        self.width = 0
        self.clusters = 0
        self._stack: list[list] = []   # [span index, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                self.self_s[name] += (t1 - t0) - frame[1]
                self.total_s[name] += t1 - t0
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                after(result)
            return result
        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        P = propagate.Propagator
        spans = [
            (analysis, "prepare", "analysis.prepare", None),
            (analysis, "max_error", "analysis.max_error", None),
            (analysis, "avg_error", "analysis.avg_error", None),
            (analysis, "sweep", "analysis.sweep", None),
            (analysis, "spectrum", "analysis.spectrum", None),
            (analysis, "build_error_model", "model.build", None),
            (analysis, "choose_order", "jointree.order", None),
            (analysis, "build_tree", "jointree.build", self._on_tree),
            (analysis, "solve", "mapsearch.solve", self._on_solve),
            (mapsearch, "seed", "mapsearch.seed", None),
            (P, "__init__", "propagate.init", None),
            (P, "set_evidence", "propagate.set_evidence", None),
            (P, "query", "propagate.query", None),
            (P, "var_belief", "propagate.query", None),
            (propagate, "combine", "valuation.combine", self._on_combine),
            # Each reduce_mixed call inside propagate is one message.
            (propagate, "reduce_mixed", "valuation.reduce", self._on_message),
            (propagate, "reduce_all", "valuation.reduce", None),
        ]
        try:
            for owner, attr, name, after in spans:
                self._patch(owner, attr, self._span(name, owner.__dict__[attr], after))
            bound = mapsearch._Search.__dict__["bound"]
            self._patch(mapsearch._Search, "bound", self._count("mapsearch.bounds", bound))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- counters fed from results ----------------------------------------

    def _on_tree(self, tree) -> None:
        self.width = max(self.width, tree.width)
        self.clusters = max(self.clusters, tree.n_clusters)

    def _on_solve(self, res) -> None:
        self.counts["mapsearch.nodes_expanded"] += res.nodes_expanded
        self.counts["mapsearch.nodes_pruned"] += res.nodes_pruned
        if res.seed_value is not None and res.p_map > 0.0:
            self.seed_gap = max(self.seed_gap, 1.0 - res.seed_value / res.p_map)

    def _on_combine(self, val) -> None:
        self.counts["valuation.combine_cells"] += val.table.size

    def _on_message(self, val) -> None:
        self.counts["propagate.messages"] += 1

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times, by the benchmark's names,
        each with its unit."""
        c, s, n = self.calls, self.self_s, self.counts
        queries = c["propagate.query"]
        expanded = n["mapsearch.nodes_expanded"]
        return {
            "propagate.evidence_calls": (c["propagate.set_evidence"], "count"),
            "propagate.evidence_s": (s["propagate.set_evidence"], "s"),
            "propagate.queries": (queries, "count"),
            "propagate.query_s": (s["propagate.query"], "s"),
            "propagate.messages": (n["propagate.messages"], "count"),
            "propagate.messages_per_query":
                (n["propagate.messages"] / queries if queries else 0.0, "msg/query"),
            "propagate.propagators": (c["propagate.init"], "count"),
            "propagate.init_s": (s["propagate.init"], "s"),
            "valuation.combines": (c["valuation.combine"], "count"),
            "valuation.combine_cells": (n["valuation.combine_cells"], "count"),
            "valuation.combine_s": (s["valuation.combine"], "s"),
            "valuation.reduces": (c["valuation.reduce"], "count"),
            "valuation.reduce_s": (s["valuation.reduce"], "s"),
            "mapsearch.solves": (c["mapsearch.solve"], "count"),
            "mapsearch.solve_s": (s["mapsearch.solve"], "s"),
            "mapsearch.bounds": (n["mapsearch.bounds"], "count"),
            "mapsearch.nodes_expanded": (expanded, "count"),
            "mapsearch.nodes_pruned": (n["mapsearch.nodes_pruned"], "count"),
            "mapsearch.prune_ratio":
                (n["mapsearch.nodes_pruned"] / expanded if expanded else 0.0, "ratio"),
            "mapsearch.seed_s": (s["mapsearch.seed"], "s"),
            # Inclusive: seed plus the propagation it drives.
            "mapsearch.seed_total_s": (self.total_s["mapsearch.seed"], "s"),
            "mapsearch.seed_gap": (self.seed_gap, "ratio"),
            "model.builds": (c["model.build"], "count"),
            "model.build_s": (s["model.build"], "s"),
            "jointree.order_s": (s["jointree.order"], "s"),
            "jointree.build_s": (s["jointree.build"], "s"),
            "jointree.width": (self.width, "vars"),
            "jointree.clusters": (self.clusters, "count"),
            "analysis.max_error_calls": (c["analysis.max_error"], "count"),
            "analysis.self_s":
                (sum(v for k, v in s.items() if k.startswith("analysis.")), "s"),
            "trace.spans": (len(self.spans), "count"),
        }

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON rows [name, start, end, parent]."""
        with gzip.open(path, "wt") as f:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f, separators=(",", ":"))


# Counts that must repeat exactly across traced runs at one seed.
EXACT_COUNTS = (
    "mapsearch.nodes_expanded", "mapsearch.nodes_pruned", "mapsearch.bounds",
    "mapsearch.solves", "propagate.messages", "propagate.queries",
    "propagate.evidence_calls", "propagate.propagators", "valuation.combines",
    "valuation.combine_cells", "valuation.reduces", "model.builds",
    "analysis.max_error_calls", "jointree.width", "jointree.clusters",
)

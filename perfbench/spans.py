"""In-memory spans around calls into rigclique's modules.

The benchmark never edits the package. A traced run replaces each hooked
function in the namespace of the module that calls it (for example
``rigclique.experiments.induced_graph``), records one span per call, and
puts every original back afterwards. A span is ``[name, start, end,
parent, run]``: ``parent`` is the index of the enclosing span, ``run`` the
operation (CLI call or harness trial) it belongs to.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from rigclique.oracle import CYCLE_FOUND, CYCLE_UNKNOWN, SearchBudgetExceeded
from rigclique.quotient import QuotientCapExceeded

REFUSALS = (SearchBudgetExceeded, QuotientCapExceeded)


def _classes(counts: Counter, args: tuple, partition) -> None:
    counts["quotient.classes"] += len(partition.classes)
    counts["quotient.vertices"] += args[0].n


def _quotient_edges(counts: Counter, args: tuple, q) -> None:
    counts["quotient.edges"] += len(q.edges)


def _graph_edges(counts: Counter, args: tuple, g) -> None:
    counts["graph.edges"] += len(g.edges)


def _cycle_status(counts: Counter, args: tuple, result) -> None:
    status, _ = result
    counts["oracle.cycle_found"] += status == CYCLE_FOUND
    counts["oracle.cycle_unknown"] += status == CYCLE_UNKNOWN


def _reconstruction(counts: Counter, args: tuple, result) -> None:
    counts["reconstruct.candidates"] += result.candidate_count
    counts["reconstruct.valid"] += bool(result.valid)


# (module whose global the caller looks up, attribute, span, result hook,
#  counter bumped when the call refuses)
HOOKS = (
    ("rigclique.cli", "decode_graph", "io.decode_graph", None, None),
    ("rigclique.io", "build_graph", "graph.build_graph", None, None),
    ("rigclique.graph", "build_graph", "graph.build_graph", None, None),
    ("rigclique.quotient", "build_graph", "graph.build_graph", None, None),
    ("rigclique.cli", "find_max_clique", "quotient.lift", None, None),
    ("rigclique.quotient", "closed_neighborhood_partition", "quotient.partition",
     _classes, None),
    ("rigclique.quotient", "quotient_graph", "quotient.quotient_graph",
     _quotient_edges, None),
    ("rigclique.quotient", "max_weight_quotient_clique", "quotient.search",
     None, "quotient.refusals"),
    ("rigclique.cli", "exact_max_clique", "oracle.max_clique", None, "oracle.refusals"),
    ("rigclique.experiments", "exact_max_clique", "oracle.max_clique",
     None, "oracle.refusals"),
    ("rigclique.experiments", "sample_label_representation", "rig.sample", None, None),
    ("rigclique.experiments", "induced_graph", "graph.induced_graph", _graph_edges, None),
    ("rigclique.reconstruct", "induced_graph", "graph.induced_graph", _graph_edges, None),
    ("rigclique.experiments", "is_chordal", "graph.is_chordal", None, None),
    ("rigclique.experiments", "find_distinct_label_cycle", "oracle.cycle_search",
     _cycle_status, None),
    ("rigclique.reconstruct", "enumerate_maximal_cliques", "oracle.maximal_cliques",
     None, None),
    ("rigclique.experiments", "reconstruct_labels", "reconstruct.cover",
     _reconstruction, None),
)

# Generators whose yields are counted, without a span of their own: their
# work already happens inside the caller's span.
YIELD_COUNTERS = (
    ("rigclique.quotient", "iter_maximal_cliques", "quotient.search_cliques"),
)

# "cli" and "experiments" are opened by the benchmark around its own calls.
SPAN_NAMES = ("cli", "experiments") + tuple(dict.fromkeys(h[2] for h in HOOKS))
COUNT_NAMES = ("quotient.search_cliques", "quotient.classes", "quotient.class_ratio",
               "quotient.edges", "quotient.refusals", "oracle.refusals", "graph.edges",
               "oracle.cycle_found", "oracle.cycle_unknown", "reconstruct.candidates",
               "reconstruct.valid_ratio")


def self_metric(span: str) -> str:
    """Metric name of a span's self time: ``quotient.search_s``, or
    ``cli.self_s`` for the benchmark's own top-level spans."""
    return f"{span}_s" if "." in span else f"{span}.self_s"


class Tracer:
    """Spans and work counters of one traced run, kept in memory until
    ``write_jsonl``. Spans nest by call order; the run is single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.run = 0
        self.missing: list[str] = []
        self._stack: list[int] = []

    def next_run(self) -> None:
        self.run += 1

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn: Callable, on_result: Callable | None,
              refusal: str | None) -> Callable:
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except REFUSALS:
                if refusal is not None:
                    self.counts[refusal] += 1
                raise
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result
        return traced

    def _count_yields(self, key: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[key] += 1
                yield item
        return counted

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap every hooked function for its traced wrapper; restore all
        of them on exit. A hook whose target no longer exists is listed in
        ``missing`` and reads as zero calls."""
        undo: list[tuple[object, str, object]] = []

        def swap(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                return
            undo.append((mod, attr, fn))
            setattr(mod, attr, make(fn))

        try:
            for module, attr, name, on_result, refusal in HOOKS:
                swap(module, attr, lambda fn: self._wrap(name, fn, on_result, refusal))
            for module, attr, key in YIELD_COUNTERS:
                swap(module, attr, lambda fn: self._count_yields(key, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Self time (span minus its child spans) and call count per span
        name, plus the work counters."""
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for name, start, end, parent, _ in self.spans:
            self_s[name] += end - start
            calls[name] += 1
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[self_metric(name)] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        c = self.counts
        for key in COUNT_NAMES:
            out[key] = c[key]
        out["quotient.class_ratio"] = (c["quotient.classes"] / c["quotient.vertices"]
                                       if c["quotient.vertices"] else 0.0)
        out["reconstruct.valid_ratio"] = (c["reconstruct.valid"] / calls["reconstruct.cover"]
                                          if calls["reconstruct.cover"] else 0.0)
        return out

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def nesting_problems(spans: list[dict], slack: float = 1e-6) -> list[str]:
    """Check spans read back from JSON lines: each span's children fit in
    it, and the self times add up to the root spans' wall time."""
    child = [0.0] * len(spans)
    roots = 0.0
    for s in spans:
        if s["parent"] is None:
            roots += s["end"] - s["start"]
        else:
            child[s["parent"]] += s["end"] - s["start"]
    problems = [f"span {s['id']} {s['name']}: children {child[i]:.9f}s exceed "
                f"{s['end'] - s['start']:.9f}s"
                for i, s in enumerate(spans) if child[i] > s["end"] - s["start"] + slack]
    total_self = sum(s["end"] - s["start"] - child[i] for i, s in enumerate(spans))
    if abs(total_self - roots) > slack * max(1, len(spans)):
        problems.append(f"self times sum to {total_self:.9f}s, root spans to {roots:.9f}s")
    return problems

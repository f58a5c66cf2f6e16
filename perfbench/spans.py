"""Span tracing from outside ccnet: wrap public functions at every module
attribute the pipeline calls them through, keep spans in memory, and reduce
them to per-layer self times, counts and per-unit costs.

A span is (name, start, end, parent).  A span's self time is its duration
minus the durations of its direct children; every traced call maps to one
metric bucket, so the bucket self times plus the benchmark's own time (the
self time of its ``bench.round`` spans) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("ccnet", "ccnet.cli", "ccnet.io", "ccnet.graph", "ccnet.measures",
           "ccnet.standardize", "ccnet.composite", "ccnet.gof", "ccnet.simulate",
           "ccnet.figures")

# public function (home module.name) -> metric bucket
BUCKETS = {
    "cli.main": "cli.self",
    "io.parse_edge_list": "io.parse",
    "io.report_to_json": "io.serialise",
    "io.report_from_json": "io.serialise",
    "io.analyze": "io.self",
    "io.load_factors": "io.self",
    "io.factor_for_year": "io.self",
    "io.adjust_threshold": "io.self",
    "graph.build_graph": "graph.build",
    "graph.threshold_graph": "graph.build",
    "graph.largest_scc": "graph.lscc",
    "graph.hop_distance_matrix": "graph.hop",
    "graph.diameter": "graph.stats",
    "graph.clustering": "graph.stats",
    "graph.coverage": "graph.stats",
    "graph.graph_asymmetry": "graph.stats",
    "graph.edge_density": "graph.stats",
    "graph.algebraic_connectivity": "graph.stats",
    "graph.assortativity": "graph.stats",
    "measures.standard_measure_set": "measures.radial_self",
    "measures.aspl": "measures.radial_self",
    "measures.degree": "measures.radial_self",
    "measures.strength": "measures.radial_self",
    "measures.maxflow_measure": "measures.maxflow",
    "measures.summarize": "measures.summarize_self",
    "measures.eigenvector_centrality": "measures.eigvec",
    "standardize.standardize": "standardize",
    "composite.run_scheme": "composite",
    "composite.combine_set": "composite",
    "gof.ks_p_value": "gof.ks_p",
    "gof.ks_statistic": "gof.ks_stat",
    "gof.anderson_darling": "gof.ad",
    "simulate.gof_vs_n_study": "simulate.self",
    "simulate.composite_scores": "simulate.self",
    "simulate.study_to_json": "simulate.self",
    "simulate.sample_arb": "simulate.sample",
    "figures.render_ngfp": "figures.render",
    "figures.render_cdf_overlay": "figures.render",
}
BENCH_SPAN = "bench.round"

# calls that stay unwrapped inside their own module: ks_p_value's observed
# statistic belongs to ks_p_value, not to gof.ks_stat
_SKIP = {("ccnet.gof", "ks_statistic")}


# units of requested work per call (from the bound arguments), for the
# per-unit cost metrics
WORK = {
    "measures.maxflow_measure": lambda a: a["g"].n * (a["g"].n - 1),
    "standardize.standardize": lambda a: len(a["measure"].values),
    "gof.ks_p_value": lambda a: a["replicates"] * len(a["sample"]),
}


def _work_counter(qual: str, fn):
    if qual not in WORK:
        return None
    sig = inspect.signature(fn)

    def count(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return WORK[qual](bound.arguments)
    return count


TIME_METRICS = sorted(set(BUCKETS.values()) | {"bench.self"})
PER_UNIT = {  # metric -> (function, scale to the metric's unit)
    "measures.maxflow_pair_us": ("measures.maxflow_measure", 1e6),
    "gof.ks_draw_ns": ("gof.ks_p_value", 1e9),
    "standardize.value_ns": ("standardize.standardize", 1e9),
}
COUNTS = {
    "measures.maxflow_calls": "measures.maxflow_measure",
    "graph.hop_calls": "graph.hop_distance_matrix",
    "gof.ks_p_calls": "gof.ks_p_value",
}


def time_metric_name(bucket: str) -> str:
    """``graph.hop`` -> ``graph.hop_s``; a bare layer ``composite`` -> ``composite.s``."""
    return bucket + ("_s" if "." in bucket else ".s")


def metric_units() -> dict[str, str]:
    units = {time_metric_name(b): "s" for b in TIME_METRICS}
    units.update({"measures.maxflow_pair_us": "us", "gof.ks_draw_ns": "ns",
                  "standardize.value_ns": "ns", "trace.round_s": "s"})
    units.update({name: "count" for name in COUNTS})
    return units


class Tracer:
    """Records spans of wrapped calls; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, work]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   work(*args, **kwargs) if work is not None else 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def install(self) -> None:
        targets = {}
        for qual in BUCKETS:
            home, name = qual.split(".")
            fn = getattr(importlib.import_module(f"ccnet.{home}"), name)
            targets[id(fn)] = self.span(qual, fn, _work_counter(qual, fn))
        for mod in map(importlib.import_module, MODULES):
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and (mod.__name__, attr) not in _SKIP:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, targets[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def round(self, fn):
        """Run one benchmark round inside a ``bench.round`` span."""
        return self.span(BENCH_SPAN, fn)()

    def metrics(self) -> dict[str, float]:
        """Per-round means of every per-layer metric."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = {}
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        work: dict[str, float] = {}
        for k, (name, start, end, _, units) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[k]
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + units
        rounds = max(1, calls.get(BENCH_SPAN, 0))
        out = {time_metric_name(b): 0.0 for b in TIME_METRICS}
        for name, t in self_time.items():
            bucket = "bench.self" if name == BENCH_SPAN else BUCKETS[name]
            out[time_metric_name(bucket)] += t / rounds
        for metric, (name, scale) in PER_UNIT.items():
            out[metric] = total.get(name, 0.0) / work[name] * scale if work.get(name) else 0.0
        for metric, name in COUNTS.items():
            out[metric] = calls.get(name, 0) / rounds
        out["trace.round_s"] = total.get(BENCH_SPAN, 0.0) / rounds
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh)


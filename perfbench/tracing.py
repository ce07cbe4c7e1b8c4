"""Spans and counters around the package's public functions, from outside it.

The package carries no instrumentation of its own.  ``instrumented`` swaps
each traced function for a wrapper at every module binding it is called
through, for the length of one command, and puts the originals back after.
A span records its name, parent, start and end; spans stay in memory and are
reduced to per-layer metrics when the command ends.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# (module, attribute, span name).  A function imported by name into several
# modules is wrapped at each binding, because every call goes through the
# caller's own binding.  A binding, or a whole module, that a later version
# drops is skipped, and its metrics read 0.
BINDINGS = (
    ("analysis", "quad_log_integral", "quadrature"),
    ("euclidean", "quad_log_integral", "quadrature"),
    ("special", "quad_log_integral", "quadrature"),
    ("analysis", "moments", "analysis.moments"),
    ("analysis", "integrals", "analysis.integrals"),
    ("analysis", "effective_width", "analysis.effective_width"),
    ("analysis", "rate_envelope", "analysis.rate_envelope"),
    ("analysis", "log_chord_area", "analysis.log_chord_area"),
    ("sampling", "simulate_batch", "sampling.batch"),
    ("sampling", "simulate_total_area", "sampling.replication"),
    ("sampling", "replication_stream", "sampling.stream"),
    ("sampling", "sample_poisson_count", "sampling.count"),
    ("sampling", "sample_signed_distance", "sampling.distance"),
    ("sampling", "log_chord_area", "sampling.area"),
    ("euclidean", "simulate_batch", "euclidean.batch"),
    ("euclidean", "simulate_total_area", "euclidean.replication"),
    ("euclidean", "replication_stream", "euclidean.stream"),
    ("euclidean", "sample_poisson_count", "euclidean.count"),
    ("euclidean", "log_section_area", "euclidean.section"),
    ("empirical", "summarize", "empirical.summarize"),
    ("empirical", "empirical_kolmogorov", "empirical.kolmogorov"),
    ("empirical", "empirical_wasserstein1", "empirical.wasserstein1"),
    ("empirical", "erfc", "special.erfc"),
)

ROOT_SPAN = "cli"

# per-layer metric -> unit, in report order
LAYER_UNITS = {
    "quadrature.calls": "count",
    "quadrature.integrand_calls": "count",
    "quadrature.nodes": "count",
    "quadrature.self_s": "s",
    "quadrature.integrand_s": "s",
    "analysis.integrals_calls": "count",
    "analysis.width_calls": "count",
    "analysis.moments_s": "s",
    "analysis.rate_envelope_s": "s",
    "sampling.batch_s": "s",
    "sampling.us_per_rep": "us",
    "sampling.hits_per_s": "1/s",
    "sampling.hits": "count",
    "sampling.zero_hit_frac": "ratio",
    "sampling.stream_s": "s",
    "sampling.count_s": "s",
    "sampling.distance_s": "s",
    "sampling.area_s": "s",
    "sampling.replication_self_s": "s",
    "euclidean.batch_s": "s",
    "euclidean.us_per_rep": "us",
    "euclidean.hits": "count",
    "euclidean.section_s": "s",
    "euclidean.stream_s": "s",
    "euclidean.count_s": "s",
    "euclidean.replication_self_s": "s",
    "empirical.summarize_s": "s",
    "empirical.kolmogorov_s": "s",
    "empirical.wasserstein1_s": "s",
    "special.erfc_calls": "count",
    "special.erfc_elements": "count",
    "special.erfc_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
}


class Tracer:
    """Spans of one command, in call order, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counters: Counter = Counter()
        self._stack = [-1]

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[index] - self.starts[index]
        return out

    def spans(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "start_ns": s, "end_ns": e}
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]


def _span(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def _wrap(tracer: Tracer, name: str, fn):
    """``fn`` inside a span, plus the counters its layer metrics need."""
    traced = _span(tracer, name, fn)
    layer = name.split(".")[0]
    if name == "quadrature":
        def quadrature(log_f, *args, **kwargs):
            def counted(x):
                tracer.counters["quadrature.nodes"] += np.size(x)
                return log_f(x)

            return traced(_span(tracer, "quadrature.integrand", counted), *args, **kwargs)

        return quadrature
    if name == "special.erfc":
        def erfc(x):
            tracer.counters["special.erfc_elements"] += np.size(x)
            return traced(x)

        return erfc
    if name.endswith(".batch"):
        def batch(cfg, *args, **kwargs):
            tracer.counters[f"{layer}.reps"] += getattr(cfg, "replications", 0)
            return traced(cfg, *args, **kwargs)

        return batch
    if name.endswith(".count"):
        def count(*args, **kwargs):
            hits = traced(*args, **kwargs)
            tracer.counters[f"{layer}.hits"] += hits
            tracer.counters[f"{layer}.zero_hit_reps"] += hits == 0
            return hits

        return count
    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every binding in BINDINGS for the block; restore them after."""
    saved = []
    try:
        for module_name, attr, span_name in BINDINGS:
            try:
                module = importlib.import_module(f"horospheres.{module_name}")
            except ModuleNotFoundError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, output: str, output_counts: list[int] | None, model: str) -> dict:
    """Per-layer metrics of one traced command.

    ``output_counts`` are the per-replication hit counts the command printed,
    if it prints them; they belong to the layer of ``model``.  Otherwise hits
    come from the values the count stage returned.
    """
    calls: Counter = Counter(tracer.names)
    inclusive: Counter = Counter()
    own: Counter = Counter()
    for name, start, end, self_time in zip(tracer.names, tracer.starts, tracer.ends, tracer.self_ns()):
        inclusive[name] += end - start
        own[name] += self_time

    def s(counter, name):
        return counter[name] / 1e9

    m = {
        "quadrature.calls": calls["quadrature"],
        "quadrature.integrand_calls": calls["quadrature.integrand"],
        "quadrature.nodes": tracer.counters["quadrature.nodes"],
        "quadrature.self_s": s(own, "quadrature"),
        "quadrature.integrand_s": s(inclusive, "quadrature.integrand"),
        "analysis.integrals_calls": calls["analysis.integrals"],
        "analysis.width_calls": calls["analysis.effective_width"],
        "analysis.moments_s": s(inclusive, "analysis.moments"),
        "analysis.rate_envelope_s": s(inclusive, "analysis.rate_envelope"),
        "empirical.summarize_s": s(inclusive, "empirical.summarize"),
        "empirical.kolmogorov_s": s(inclusive, "empirical.kolmogorov"),
        "empirical.wasserstein1_s": s(inclusive, "empirical.wasserstein1"),
        "special.erfc_calls": calls["special.erfc"],
        "special.erfc_elements": tracer.counters["special.erfc_elements"],
        "special.erfc_s": s(inclusive, "special.erfc"),
        "cli.self_s": s(own, ROOT_SPAN),
        "cli.output_bytes": len(output.encode("utf-8")),
    }
    output_layer = "euclidean" if model == "euclidean" else "sampling"
    for layer in ("sampling", "euclidean"):
        batch_s = s(inclusive, f"{layer}.batch")
        reps = tracer.counters[f"{layer}.reps"]
        if layer == output_layer and output_counts is not None:
            hits, zero = sum(output_counts), sum(c == 0 for c in output_counts)
            counted = len(output_counts)
        else:
            hits, zero = tracer.counters[f"{layer}.hits"], tracer.counters[f"{layer}.zero_hit_reps"]
            counted = calls[f"{layer}.count"]
        m[f"{layer}.batch_s"] = batch_s
        m[f"{layer}.us_per_rep"] = 1e6 * batch_s / reps if reps else 0.0
        m[f"{layer}.hits"] = hits
        m[f"{layer}.stream_s"] = s(inclusive, f"{layer}.stream")
        m[f"{layer}.count_s"] = s(inclusive, f"{layer}.count")
        m[f"{layer}.replication_self_s"] = s(own, f"{layer}.replication")
        if layer == "sampling":
            m["sampling.hits_per_s"] = hits / batch_s if batch_s else 0.0
            m["sampling.zero_hit_frac"] = zero / counted if counted else 0.0
            m["sampling.distance_s"] = s(inclusive, "sampling.distance")
            m["sampling.area_s"] = s(inclusive, "sampling.area")
        else:
            m["euclidean.section_s"] = s(inclusive, "euclidean.section")
    return {name: m[name] for name in LAYER_UNITS}

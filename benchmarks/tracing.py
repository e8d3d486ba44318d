"""Spans around calls into trackassoc's public functions, recorded from outside src/.

A wrapper is installed on each traced name in every trackassoc module
namespace that binds it (``single_fa.normal_upper_tail``,
``mc_oracle.build_projector``, ...), so a call is seen where it is made. Spans
hold name, start, end, parent and run id; they stay in memory and are written
once at the end. ``pass_metrics`` turns the spans of one run (one pass of a
workload) into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# Traced public functions, by layer (module of trackassoc).
LAYERS = {
    "geometry": ("build_projector", "cross_theta"),
    "single_fa": ("exact_probability", "closed_form_probability",
                  "first_order_probability", "random_lambda_probability", "fit_gammas"),
    "multi_fa": ("moment_params", "prob_chi2", "prob_normal", "prob_exponential"),
    "quadrature": ("normal_upper_tail", "adaptive_integrate"),
    "mc_oracle": ("simulate_single_fa", "simulate_multi_fa"),
    "dtmc": ("reach_probability", "stationary", "expected_transient_visits"),
}

CLOSED_FORMS = ("single_fa.closed_form_probability", "single_fa.first_order_probability",
                "single_fa.random_lambda_probability")
SIMULATORS = ("mc_oracle.simulate_single_fa", "mc_oracle.simulate_multi_fa")
DTMC = tuple(f"dtmc.{name}" for name in LAYERS["dtmc"])

# (name, unit, better, kind). "count" metrics are workload properties that
# must repeat exactly from run to run; "time" metrics are medians of passes.
PER_LAYER = (
    ("geometry.build_projector.calls", "count", "lower", "count"),
    ("geometry.build_projector.busy_s", "s", "lower", "time"),
    ("geometry.projector_cache_hit_ratio", "ratio", "higher", "count"),
    ("geometry.cross_theta.calls", "count", "lower", "count"),
    ("geometry.cross_theta.busy_s", "s", "lower", "time"),
    ("single_fa.exact_probability.calls", "count", "lower", "count"),
    ("single_fa.exact_probability.busy_s", "s", "lower", "time"),
    ("single_fa.exact_probability.self_s", "s", "lower", "time"),
    ("single_fa.polar_passes_per_exact", "ratio", "lower", "count"),
    ("single_fa.closed_forms.busy_s", "s", "lower", "time"),
    ("single_fa.fit_gammas.busy_s", "s", "lower", "time"),
    ("multi_fa.moment_params.calls", "count", "lower", "count"),
    ("multi_fa.moment_params.busy_s", "s", "lower", "time"),
    ("multi_fa.prob_chi2.calls", "count", "lower", "count"),
    ("multi_fa.prob_chi2.busy_s", "s", "lower", "time"),
    ("multi_fa.prob_normal.calls", "count", "lower", "count"),
    ("multi_fa.prob_normal.busy_s", "s", "lower", "time"),
    ("multi_fa.prob_exponential.calls", "count", "lower", "count"),
    ("multi_fa.prob_exponential.busy_s", "s", "lower", "time"),
    ("quadrature.normal_upper_tail.calls", "count", "lower", "count"),
    ("quadrature.normal_upper_tail.elements", "count", "lower", "count"),
    ("quadrature.normal_upper_tail.busy_s", "s", "lower", "time"),
    ("quadrature.adaptive_integrate.calls", "count", "lower", "count"),
    ("quadrature.adaptive_integrate.busy_s", "s", "lower", "time"),
    ("quadrature.adaptive_integrate.failures", "count", "lower", "count"),
    ("mc_oracle.simulate_single_fa.calls", "count", "lower", "count"),
    ("mc_oracle.simulate_single_fa.busy_s", "s", "lower", "time"),
    ("mc_oracle.simulate_multi_fa.calls", "count", "lower", "count"),
    ("mc_oracle.simulate_multi_fa.busy_s", "s", "lower", "time"),
    ("mc_oracle.trials", "count", "lower", "count"),
    ("mc_oracle.normals", "count", "lower", "count"),
    ("mc_oracle.ns_per_normal", "ns", "lower", "time"),
    ("mc_oracle.shared_noise_share", "ratio", "higher", "count"),
    ("dtmc.calls", "count", "lower", "count"),
    ("dtmc.busy_s", "s", "lower", "time"),
    ("dtmc.failures", "count", "lower", "count"),
    ("cli.run.busy_s", "s", "lower", "time"),
    ("cli.self_s", "s", "lower", "time"),
    ("cli.cpu_s", "s", "lower", "time"),
    ("cli.cpu_per_wall", "ratio", "higher", "time"),
    ("trace.overhead_s", "s", "lower", "time"),
)

COUNT_METRICS = tuple(name for name, _, _, kind in PER_LAYER if kind == "count")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs", "failed")

    def __init__(self, name, start, end, parent, run, attrs=None, failed=False):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent      # index of the enclosing span, or None
        self.run = run
        self.attrs = attrs or {}
        self.failed = failed

    def to_json(self):
        return [self.name, self.start, self.end, self.parent, self.run, self.attrs, self.failed]


def _elements(args, kwargs):
    x = args[0] if args else kwargs["x"]
    return {"elements": int(np.size(x))}


def _plan_attrs(args, kwargs):
    plan = args[0] if args else kwargs["plan"]
    n_scans = plan.config.n_scans
    random_lambda = plan.random_lambda is not None
    normals = plan.trials * 2 * (n_scans + 1) + (2 * plan.trials if random_lambda else 0)
    return {"trials": plan.trials, "normals": normals,
            "stream": [plan.seed, plan.trials, n_scans, random_lambda]}


_ATTRS = {
    "quadrature.normal_upper_tail": _elements,
    "mc_oracle.simulate_single_fa": _plan_attrs,
    "mc_oracle.simulate_multi_fa": _plan_attrs,
}


class Tracer:
    """In-memory span recorder for one run; parents index into ``spans``."""

    def __init__(self, run=0):
        self.spans = []
        self.run = run
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), None, parent, self.run, attrs)
        self.spans.append(span)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(attrs_of(args, kwargs) if attrs_of else {})):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        """Wrap every traced name wherever trackassoc binds it; returns the undo list."""
        import trackassoc  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sys.modules.items()
                   if key == "trackassoc" or key.startswith("trackassoc.")]
        patches = []
        for layer, names in LAYERS.items():
            home = sys.modules[f"trackassoc.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patches.append((module, attr, original))
        return patches

    @staticmethod
    def uninstall(patches):
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def write_spans(path, spans):
    """One JSON list per line: name, start, end, parent, run, attrs, failed."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_json()) + "\n")


def covered(interval, children):
    """Length of the part of ``interval`` that the child spans cover."""
    lo, hi = interval
    pieces = sorted((max(c.start, lo), min(c.end, hi)) for c in children)
    total, reach = 0.0, lo
    for start, end in pieces:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus what its children cover."""
    children = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return [(s.end - s.start) - covered((s.start, s.end), children.get(i, ()))
            for i, s in enumerate(spans)]


def _has_ancestor(spans, span, names):
    parent = span.parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def pass_metrics(spans, cache_hits=0, cache_misses=0):
    """Per-layer metrics of one run; ``spans`` are all the spans of that run.

    Parent indices refer to positions in ``spans``. Busy time is inclusive and
    counts only the outermost span of a group of names, so a traced function
    calling another of its group is not counted twice. Ratios with a zero
    base read 0.
    """
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)
    own = self_times(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(*names):
        group = set(names)
        return sum(spans[i].end - spans[i].start for name in names
                   for i in by_name.get(name, ()) if not _has_ancestor(spans, spans[i], group))

    def self_s(name):
        return sum(own[i] for i in by_name.get(name, ()))

    def failures(*names):
        return sum(spans[i].failed for name in names for i in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    tails = [spans[i] for i in by_name.get("quadrature.normal_upper_tail", ())]
    polar = sum(_has_ancestor(spans, s, {"single_fa.exact_probability"}) for s in tails)
    sims = sorted(i for name in SIMULATORS for i in by_name.get(name, ()))
    seen, repeats = set(), 0
    for i in sims:
        key = tuple(spans[i].attrs["stream"])
        repeats += key in seen
        seen.add(key)
    trials = sum(spans[i].attrs["trials"] for i in sims)
    normals = sum(spans[i].attrs["normals"] for i in sims)
    run_busy = busy("cli.run")
    cpu = sum(spans[i].attrs.get("cpu_s", 0.0) for i in by_name.get("cli.run", ()))

    m = {
        "geometry.build_projector.calls": calls("geometry.build_projector"),
        "geometry.build_projector.busy_s": busy("geometry.build_projector"),
        "geometry.projector_cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "geometry.cross_theta.calls": calls("geometry.cross_theta"),
        "geometry.cross_theta.busy_s": busy("geometry.cross_theta"),
        "single_fa.exact_probability.calls": calls("single_fa.exact_probability"),
        "single_fa.exact_probability.busy_s": busy("single_fa.exact_probability"),
        "single_fa.exact_probability.self_s": self_s("single_fa.exact_probability"),
        "single_fa.polar_passes_per_exact": ratio(polar, calls("single_fa.exact_probability")),
        "single_fa.closed_forms.busy_s": busy(*CLOSED_FORMS),
        "single_fa.fit_gammas.busy_s": busy("single_fa.fit_gammas"),
        "mc_oracle.trials": trials,
        "mc_oracle.normals": normals,
        "mc_oracle.ns_per_normal": ratio(busy(*SIMULATORS) * 1e9, normals),
        "mc_oracle.shared_noise_share": ratio(repeats, len(sims)),
        "quadrature.normal_upper_tail.elements": sum(s.attrs["elements"] for s in tails),
        "quadrature.adaptive_integrate.failures": failures("quadrature.adaptive_integrate"),
        "dtmc.calls": sum(calls(name) for name in DTMC),
        "dtmc.busy_s": busy(*DTMC),
        "dtmc.failures": failures(*DTMC),
        "cli.run.busy_s": run_busy,
        "cli.self_s": self_s("cli.run"),
        "cli.cpu_s": cpu,
        "cli.cpu_per_wall": ratio(cpu, run_busy),
    }
    for name in ("multi_fa.moment_params", "multi_fa.prob_chi2", "multi_fa.prob_normal",
                 "multi_fa.prob_exponential", "quadrature.normal_upper_tail",
                 "quadrature.adaptive_integrate", *SIMULATORS):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    return m

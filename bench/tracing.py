"""Per-layer tracing of gmclab from outside the package.

``Tracer`` replaces the public functions and public methods of the gmclab
layer modules with timing wrappers, everywhere they are bound: in their own
module, in modules that imported them by name (``gmclab.bounds.field_matrix``,
``gmclab.cli.build_covariance``, ...) and in the package namespace. Leaving
the ``with`` block restores every original.

Most functions record a span (name, start, end, parent). Functions called
once per replica or per atom only bump a call counter and an aggregate time,
so the trace stays small and cheap. A span opened on a worker thread with an
empty stack is parented to the innermost open span of the thread that
installed the tracer, which is the caller that started the pool.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter, process_time

PACKAGE = "gmclab"
LAYERS = ("measure", "kernel", "field", "gmc", "bounds", "inequalities",
          "reports", "cli")

# called per replica or per atom: counter plus aggregate time, no spans
AGGREGATE = frozenset({
    "field.replica_generator", "kernel.inside", "kernel.smooth_part",
    "kernel.regularized_entry", "kernel.green_disk", "kernel.green_subdisk",
})

# functions the per-layer metrics read; absent ones are reported as missing
REQUIRED = (
    "field.replica_generator", "field.normal_block", "field.field_matrix",
    "gmc.draw_roots", "gmc.mass_columns", "gmc.total_masses",
    "gmc.rooted_identity_errors", "gmc.verify_change_of_measure",
    "kernel.build_covariance", "kernel.entry_matrix", "kernel.clip_to_psd",
    "kernel.default_epsilon", "bounds.laplace_transform", "bounds.estimate_s0",
    "bounds.local_energy_samples", "bounds.verify_bound",
    "bounds.small_ball_tail", "measure.d_energy", "measure.load_measure",
    "inequalities.kahane_check", "inequalities.fkg_check",
    "reports.render_report", "cli.main",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cpu: float = 0.0


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span, so concurrent children are not subtracted twice."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = union_length((max(c.start, span.start), min(c.end, span.end))
                               for c in children[index])
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Collects spans, counters and computed work counts while installed.

    With ``only``, just the named functions are wrapped, and as counters
    without spans.
    """

    def __init__(self, only=None):
        self.only = frozenset(only) if only is not None else None
        self.spans: list[Span | None] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.maxima: defaultdict = defaultdict(float)
        # (pass, command label) -> [(base_seed, replica indices), ...]
        self.replica_keys: defaultdict = defaultdict(list)
        self.wrapped: set[str] = set()
        self.observe_errors: set[str] = set()
        self.pass_index = 0
        self.command = ""
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = None
        self._patches: list[tuple[object, str, object]] = []

    @property
    def missing(self) -> list[str]:
        expected = REQUIRED if self.only is None else sorted(self.only)
        return [name for name in expected if name not in self.wrapped]

    # ---------------------------------------------------------- install

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        self._main = threading.get_ident()
        originals = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and self._selected(f"{layer}.{attr}"):
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if (not method.startswith("_") and inspect.isfunction(fn)
                                and self._selected(f"{layer}.{method}")):
                            self._patch(obj, method, self._wrap(f"{layer}.{method}", fn))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patch(module, attr, originals[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _selected(self, name: str) -> bool:
        return self.only is None or name in self.only

    def _wrap(self, name: str, fn):
        self.wrapped.add(name)
        if name in AGGREGATE or self.only is not None:
            return self._aggregate_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # ---------------------------------------------------------- wrappers

    def _aggregate_wrapper(self, name, fn):
        lock, calls, seconds = self._lock, self.calls, self.seconds

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                with lock:
                    calls[name] += 1
                    seconds[name] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, name, fn):
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None

        def wrapper(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            parent = stack[-1] if stack else self._adopted_parent(ident)
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            stack.append(sid)
            c0, t0 = process_time(), perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, c1 = perf_counter(), process_time()
                stack.pop()
                self.spans[sid] = Span(name, t0, t1, parent, c1 - c0)
            if observer is not None:
                self._observe(name, observer, signature, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _adopted_parent(self, ident: int):
        if ident == self._main:
            return None
        main_stack = self._stacks.get(self._main)
        return main_stack[-1] if main_stack else None

    def _observe(self, name, observer, signature, args, kwargs, result) -> None:
        try:
            arguments = signature.bind(*args, **kwargs).arguments
            observer(self, arguments, result)
        except (TypeError, AttributeError, KeyError, ValueError):
            self.observe_errors.add(name)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)


# ------------------------------------------------------- computed counts


def _observe_field_matrix(tracer, a, out):
    n, columns = out.shape
    tracer.add("field.field_matrix.columns", columns)
    tracer.add("field.field_matrix.flops", 2.0 * n * n * columns)
    tracer.maximum("field.field_matrix.max_out_mb", out.nbytes / 1e6)
    key = (tracer.pass_index, tracer.command)
    tracer.replica_keys[key].append((a["base_seed"], a["indices"]))


def _observe_draw_roots(tracer, a, roots):
    tracer.add("gmc.draw_roots.roots", len(roots))


def _observe_mass_columns(tracer, a, masses):
    tracer.add("gmc.mass_columns.cells", masses.size)


def _observe_laplace(tracer, a, report):
    tracer.add("bounds.laplace_transform.cells",
               report.estimates.size * report.n_replicas)


def _observe_build(tracer, a, model):
    tracer.add("kernel.build_covariance.n3", float(model.n) ** 3)
    tracer.add("kernel.build_covariance.clipped", float(model.clip_magnitude > 0))


def _observe_render(tracer, a, text):
    tracer.add("reports.render_report.bytes", len(text))


OBSERVERS = {
    "field.field_matrix": _observe_field_matrix,
    "gmc.draw_roots": _observe_draw_roots,
    "gmc.mass_columns": _observe_mass_columns,
    "bounds.laplace_transform": _observe_laplace,
    "kernel.build_covariance": _observe_build,
    "reports.render_report": _observe_render,
}


# ------------------------------------------------------------ metrics

# (name, unit); every traced run reports all of them, 0 where a layer was idle
LAYER_METRICS = (
    ("field.replica_generator.calls", "count"),
    ("field.replica_generator.us_per_call", "us"),
    ("gmc.draw_roots.roots", "count"),
    ("gmc.draw_roots.us_per_root", "us"),
    ("field.normal_block.s", "s"),
    ("field.normal_block.concurrency", "ratio"),
    ("kernel.build_covariance.s", "s"),
    ("kernel.build_covariance.self_s", "s"),
    ("kernel.build_covariance.calls", "count"),
    ("kernel.build_covariance.n3_g", "n3/1e9"),
    ("kernel.entry_matrix.s", "s"),
    ("kernel.clip_to_psd.s", "s"),
    ("kernel.default_epsilon.s", "s"),
    ("kernel.clip_useful_ratio", "ratio"),
    ("field.field_matrix.s", "s"),
    ("field.field_matrix.self_s", "s"),
    ("field.field_matrix.columns", "count"),
    ("field.field_matrix.gflops", "GFLOP/s"),
    ("field.field_matrix.max_out_mb", "MB"),
    ("field.columns_per_replica", "ratio"),
    ("field.columns_per_replica.max", "ratio"),
    ("gmc.mass_columns.s", "s"),
    ("gmc.mass_columns.cells", "count"),
    ("gmc.total_masses.self_s", "s"),
    ("gmc.rooted_identity_errors.self_s", "s"),
    ("gmc.verify_change_of_measure.self_s", "s"),
    ("bounds.laplace_transform.self_s", "s"),
    ("bounds.laplace_transform.cells", "count"),
    ("bounds.estimate_s0.s", "s"),
    ("bounds.local_energy_samples.self_s", "s"),
    ("bounds.verify_bound.self_s", "s"),
    ("bounds.small_ball_tail.self_s", "s"),
    ("measure.d_energy.s", "s"),
    ("measure.d_energy.calls", "count"),
    ("measure.load_measure.s", "s"),
    ("inequalities.kahane_check.self_s", "s"),
    ("inequalities.fkg_check.self_s", "s"),
    ("reports.render_report.s", "s"),
    ("reports.render_report.bytes", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.cpu_per_wall", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.missing", "count"),
)

# metrics derived from operation and byte counts rather than timed
COMPUTED = ("kernel.build_covariance.n3_g", "field.field_matrix.gflops",
            "field.field_matrix.max_out_mb")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _distinct_replicas(calls) -> int:
    import numpy as np

    distinct = 0
    for seed in {seed for seed, _ in calls}:
        distinct += np.unique(np.concatenate(
            [np.asarray(idx, dtype=np.int64).ravel()
             for s, idx in calls if s == seed])).size
    return distinct


def columns_per_replica(tracer: Tracer) -> tuple[float, dict]:
    """Field columns generated over distinct (seed, replica) keys within one
    command run: over the whole trace and per command label."""
    per_label = defaultdict(lambda: [0, 0])
    for (_, label), calls in tracer.replica_keys.items():
        per_label[label][0] += sum(len(idx) for _, idx in calls)
        per_label[label][1] += _distinct_replicas(calls)
    columns = sum(c for c, _ in per_label.values())
    distinct = sum(d for _, d in per_label.values())
    return (_ratio(columns, distinct),
            {label: _ratio(c, d) for label, (c, d) in per_label.items()})


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-pass layer metrics from the spans and counters of ``passes`` passes."""
    spans = [s for s in tracer.spans if s is not None]
    total, own, cpu = defaultdict(float), defaultdict(float), defaultdict(float)
    calls = Counter(tracer.calls)
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        cpu[span.name] += span.cpu
        calls[span.name] += 1
    for name, seconds in tracer.seconds.items():
        total[name] += seconds
    counts = tracer.counts
    per = 1.0 / passes
    overall, by_command = columns_per_replica(tracer)

    values = {
        "field.replica_generator.calls": calls["field.replica_generator"] * per,
        "field.replica_generator.us_per_call": 1e6 * _ratio(
            total["field.replica_generator"], calls["field.replica_generator"]),
        "gmc.draw_roots.roots": counts["gmc.draw_roots.roots"] * per,
        "gmc.draw_roots.us_per_root": 1e6 * _ratio(
            total["gmc.draw_roots"], counts["gmc.draw_roots.roots"]),
        "field.normal_block.s": total["field.normal_block"] * per,
        "field.normal_block.concurrency": _ratio(
            total["field.normal_block"], total["field.field_matrix"]),
        "kernel.build_covariance.calls": calls["kernel.build_covariance"] * per,
        "kernel.build_covariance.n3_g": counts["kernel.build_covariance.n3"] * per / 1e9,
        "kernel.clip_useful_ratio": _ratio(counts["kernel.build_covariance.clipped"],
                                           calls["kernel.build_covariance"]),
        "field.field_matrix.columns": counts["field.field_matrix.columns"] * per,
        "field.field_matrix.gflops": _ratio(counts["field.field_matrix.flops"],
                                            own["field.field_matrix"]) / 1e9,
        "field.field_matrix.max_out_mb": tracer.maxima["field.field_matrix.max_out_mb"],
        "field.columns_per_replica": overall,
        "field.columns_per_replica.max": max(by_command.values(), default=0.0),
        "gmc.mass_columns.cells": counts["gmc.mass_columns.cells"] * per,
        "bounds.laplace_transform.cells": counts["bounds.laplace_transform.cells"] * per,
        "measure.d_energy.calls": calls["measure.d_energy"] * per,
        "reports.render_report.bytes": counts["reports.render_report.bytes"] * per,
        "cli.main.cpu_per_wall": _ratio(cpu["cli.main"], total["cli.main"]),
        "trace.overhead_s": overhead_s,
        "trace.missing": float(len(tracer.missing)),
    }
    for metric, _ in LAYER_METRICS:
        if metric in values:
            continue
        name, _, kind = metric.rpartition(".")
        values[metric] = (own if kind == "self_s" else total)[name] * per
    return values


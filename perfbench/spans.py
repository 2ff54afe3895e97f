"""Span recording around the public functions of dimwit's layers.

A ``Recorder`` replaces module attributes of the ``dimwit`` package with thin
wrappers that record one span per call: name, start, end, parent span and the
top-level call it belongs to.  Spans stay in memory until the benchmark writes
them out.  Nothing inside the package is edited; the wrappers live here.

Patching has three traps, handled in ``Recorder.__enter__``:

* ``import dimwit.seesaw`` yields the *function* re-exported by
  ``dimwit/__init__.py``, so modules are looked up with ``importlib``.
* A name bound by ``from .x import y`` is a separate reference in every module
  that imported it (``bell_operator`` and ``model_value`` live in both
  ``scenario`` and ``seesaw``; ``catalog`` and ``cli`` hold ``seesaw`` and
  ``local_bound``), so every package module holding the original is patched.
* Calls inside one module (``positive_projector`` -> ``eig_hermitian``) go
  through the module global, so that single patch covers them.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

#: The layer boundaries that are spanned in a traced run, as ``module.function``.
#: ``seesaw._setting_operators`` is private and deliberately not spanned: its
#: cost shows up as self time of the two measurement updates.  In ``cli`` only
#: ``main`` is spanned, so its self time is argument parsing, file reading and
#: JSON emission.
TRACED = (
    "cli.main",
    "catalog.witness_report",
    "bellfmt.parse_functional",
    "bellfmt.parse_correlation_matrix",
    "scenario.bell_operator",
    "scenario.model_value",
    "linalg.eig_hermitian",
    "linalg.positive_projector",
    "linalg.psd_pseudo_sqrt",
    "seesaw.seesaw",
    "seesaw.refine",
    "seesaw.update_state",
    "seesaw.update_measurement_binary",
    "seesaw.update_measurement_multi",
    "localbound.local_bound",
    "grothendieck.local_norm",
    "grothendieck.vector_seesaw",
    "grothendieck.correlator_bell",
)

#: Spans whose return values are kept (see-saw results carry the iteration,
#: convergence and abort counts).
KEEP_RESULTS = ("seesaw.seesaw",)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _span_attrs(name, args, kwargs):
    """Small per-span facts needed for rates: dimension, work size."""
    if name == "seesaw.seesaw":
        return _arg(args, kwargs, 1, "d_a")
    if name == "localbound.local_bound":
        return math.prod(_arg(args, kwargs, 0, "f").scenario.outcomes_a)
    if name == "grothendieck.local_norm":
        return 1 << int(np.shape(_arg(args, kwargs, 0, "matrix"))[0])
    return None


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "dimwit" or n.startswith("dimwit.")]


class Recorder:
    """Context manager that spans the given ``module.function`` names.

    ``spans`` holds tuples ``(id, parent_id, call_id, name, start_ns, end_ns,
    attr)``; ``results`` maps each name in ``KEEP_RESULTS`` to its returned
    values.  ``call_id`` numbers the top-level calls made while recording, so
    the spans of one call share it.
    """

    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans: list[tuple] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._next_id = 0
        self._next_call = 0
        self._call = -1
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        keep = name in KEEP_RESULTS

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            if parent < 0:
                self._call = self._next_call
                self._next_call += 1
            attr = _span_attrs(name, args, kwargs)
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, self._call, name, start, end, attr))
            if keep:
                self.results[name].append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = _package_modules()
        for name in self.names:
            layer, func = name.split(".")
            original = getattr(importlib.import_module(f"dimwit.{layer}"), func)
            wrapper = self._wrap(name, original)
            for module in modules:
                holders = [k for k, v in vars(module).items() if v is original]
                for attr in holders:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    def to_records(self):
        """Spans as JSON-ready dicts (times in ns from the first span)."""
        if not self.spans:
            return []
        origin = min(s[4] for s in self.spans)
        return [
            {"id": s[0], "parent": s[1], "call": s[2], "name": s[3],
             "start_ns": s[4] - origin, "end_ns": s[5] - origin, "attr": s[6]}
            for s in sorted(self.spans)
        ]


def quantile(values, q) -> float:
    """The q-quantile of ``values``, 0.0 when there are none."""
    return float(np.quantile(np.asarray(values, dtype=float), q)) if values else 0.0


def _self_ns(spans) -> dict[str, int]:
    """Total self time per span name: duration minus the time covered by the
    span's direct children (children of one span never overlap)."""
    child = defaultdict(int)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[5] - s[4]
    totals = defaultdict(int)
    for s in spans:
        totals[s[3]] += (s[5] - s[4]) - child[s[0]]
    return totals


def layer_metrics(recorder: Recorder, passes: int, overhead_frac: float) -> dict:
    """Per-layer metrics from spans recorded over ``passes`` identical passes,
    as amounts per pass; values only, units live in BENCHMARK.json.  Layers
    that were never called read 0."""
    dur = defaultdict(list)
    for s in recorder.spans:
        dur[s[3]].append(s[5] - s[4])
    self_ns = _self_ns(recorder.spans)

    def calls(name):
        return len(dur[name]) // passes

    def total_ms(name):
        return sum(dur[name]) / 1e6 / passes

    def self_ms(name):
        return self_ns[name] / 1e6 / passes

    def per_call(name, scale, q):
        return quantile([d / scale for d in dur[name]], q)

    def rate(name):
        work = sum(s[6] for s in recorder.spans if s[3] == name)
        seconds = sum(dur[name]) / 1e9
        return work / seconds if seconds > 0 else 0.0

    def seesaw_ms_at(d):
        spans = recorder.spans
        return sum(s[5] - s[4] for s in spans if s[3] == "seesaw.seesaw" and s[6] == d) / 1e6 / passes

    # Every pass repeats the same restarts, so the mean, maximum and fraction
    # below are per pass already; the abort count is divided.
    iterations, converged, aborted = [], 0, 0
    for result in recorder.results["seesaw.seesaw"]:
        iterations.extend(result.iterations_used)
        converged += sum(result.converged_flags)
        aborted += sum(1 for v in result.per_restart_values if not np.isfinite(v))
    restarts = len(iterations)

    return {
        "linalg.eig_hermitian.calls": calls("linalg.eig_hermitian"),
        "linalg.eig_hermitian.total_ms": total_ms("linalg.eig_hermitian"),
        "linalg.eig_hermitian.us_p50": per_call("linalg.eig_hermitian", 1e3, 0.5),
        "linalg.eig_hermitian.us_p90": per_call("linalg.eig_hermitian", 1e3, 0.9),
        "linalg.positive_projector.total_ms": total_ms("linalg.positive_projector"),
        "linalg.psd_pseudo_sqrt.total_ms": total_ms("linalg.psd_pseudo_sqrt"),
        "scenario.bell_operator.calls": calls("scenario.bell_operator"),
        "scenario.bell_operator.total_ms": total_ms("scenario.bell_operator"),
        "scenario.bell_operator.us_p50": per_call("scenario.bell_operator", 1e3, 0.5),
        "scenario.model_value.self_ms": self_ms("scenario.model_value"),
        "seesaw.update_state.self_ms": self_ms("seesaw.update_state"),
        "seesaw.update_measurement_binary.self_ms": self_ms("seesaw.update_measurement_binary"),
        "seesaw.update_measurement_multi.self_ms": self_ms("seesaw.update_measurement_multi"),
        "seesaw.refine.calls": calls("seesaw.refine"),
        "seesaw.refine.ms_p50": per_call("seesaw.refine", 1e6, 0.5),
        "seesaw.refine.ms_p90": per_call("seesaw.refine", 1e6, 0.9),
        "seesaw.iterations_mean": float(np.mean(iterations)) if iterations else 0.0,
        "seesaw.iterations_max": max(iterations, default=0),
        "seesaw.converged_frac": converged / restarts if restarts else 0.0,
        "seesaw.aborted": aborted // passes,
        "seesaw.seesaw.d2.total_ms": seesaw_ms_at(2),
        "seesaw.seesaw.d3.total_ms": seesaw_ms_at(3),
        "localbound.local_bound.calls": calls("localbound.local_bound"),
        "localbound.local_bound.total_ms": total_ms("localbound.local_bound"),
        "localbound.local_bound.us_p50": per_call("localbound.local_bound", 1e3, 0.5),
        "localbound.strategies_per_s": rate("localbound.local_bound"),
        "grothendieck.local_norm.total_ms": total_ms("grothendieck.local_norm"),
        "grothendieck.sign_vectors_per_s": rate("grothendieck.local_norm"),
        "grothendieck.vector_seesaw.total_ms": total_ms("grothendieck.vector_seesaw"),
        "grothendieck.correlator_bell.total_ms": total_ms("grothendieck.correlator_bell"),
        "bellfmt.parse_functional.total_ms": total_ms("bellfmt.parse_functional"),
        "bellfmt.parse_correlation_matrix.total_ms": total_ms("bellfmt.parse_correlation_matrix"),
        "catalog.witness_report.total_ms": total_ms("catalog.witness_report"),
        "cli.main.self_ms": self_ms("cli.main"),
        "trace.overhead_frac": overhead_frac,
    }


def largest_self(recorder: Recorder) -> list[tuple[str, float]]:
    """Span names ordered by total self time (ms), largest first."""
    totals = _self_ns(recorder.spans)
    return sorted(((n, v / 1e6) for n, v in totals.items()), key=lambda kv: -kv[1])

"""Span tracing of entrocert from outside the library.

The tracer wraps public functions and methods of each entrocert module and
records one span per call: trace id, parent span, name, start and end.
Spans stay in memory (compact arrays) until the benchmark writes them out.

Modules bind their imports with ``from ... import``, so ``certify.random_pd``
and ``frechet.eigh`` are bindings separate from ``hermitian.random_pd`` and
``hermitian.eigh``.  A function is therefore patched under every name, in
every entrocert module, that refers to it; methods are patched on their
class.  ``uninstall`` puts every original back.

Self time of a span is its duration minus the durations of its direct
children.  Calls are synchronous and single threaded, so children never
overlap and that difference is the time the span itself was busy.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from entrocert import certify, expr, frechet, functions, hermitian, jets, quantum, report

# Module-level functions traced as "<layer>.<function>" spans.
_FUNCTIONS = (
    (hermitian, ("eigh", "random_pd", "random_hermitian", "trace_of_function")),
    (frechet, ("loewner_matrix", "frechet_diff", "frechet_superoperator", "frechet_inverse")),
    (quantum, ("partial_trace_1", "apply_channel", "random_channel")),
)

# Methods traced under one span name per group.
_METHODS = (
    ("functions.eval", functions.ScalarFunction, ("__call__", "d1", "d2", "d3", "jet")),
    ("jets.ops", jets.Jet, ("log", "exp", "sqrt", "__mul__", "__truediv__")),
    ("expr.taylor", expr.FunctionExpression, ("taylor",)),
    ("frechet.psd_margin", frechet.Superoperator, ("psd_margin",)),
    ("quantum.kraus_apply", quantum.KrausChannel, ("apply",)),
    ("report.to_json", report.CertificationReport, ("to_json",)),
    ("report.from_json", report.CertificationReport, ("from_json",)),
)

# Suite entry points; each span is named after the outcome it returns.
_SUITES = (
    "test_principle1_concavity",
    "test_entropic",
    "test_subentropic_order_k",
    "test_condition13",
    "test_equivalence_13_vs_hessian",
    "test_matrix_entropy",
    "test_entropy_gain_convexity",
    "test_gap_superadditive",
    "test_gap_concavity",
    "uniqueness_pipeline",
)

#: Outcome names of the suites; each has a ``certify.suite.<name>`` span.
SUITE_OUTCOMES = (
    "principle1",
    "gap-superadditive",
    "condition13",
    "equivalence",
    "subentropic:k=2",
    "subentropic:k=3",
    "subentropic:k=4",
    "matrix-entropy",
    "entropic",
    "gain",
    "gap-concavity",
    "uniqueness",
)

#: Span names whose calls and self time become per-layer metrics.
LAYER_SPANS = (
    "functions.eval",
    "jets.ops",
    "expr.taylor",
    *(f"{m.__name__.rsplit('.', 1)[1]}.{fn}" for m, fns in _FUNCTIONS for fn in fns),
    "frechet.psd_margin",
    "quantum.kraus_apply",
    "certify.reverify",
)


def metric_name(outcome_name: str) -> str:
    """An outcome name as a metric-name component (``subentropic:k=2`` -> ``subentropic_k_2``)."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", outcome_name)


def suite_span(outcome_name: str) -> str:
    return f"certify.suite.{metric_name(outcome_name)}"


def _outcome_label(result) -> str:
    # uniqueness_pipeline returns a PipelineResult around its outcome
    return suite_span(getattr(result, "outcome", result).name)


def _superop_bytes(counters, result) -> None:
    counters["frechet.superop_bytes"] += result.matrix.nbytes


class Tracer:
    """Records spans of wrapped calls; one trace id per workload run."""

    def __init__(self):
        self.trace_id = 0
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._trace = array("i")
        self._parent = array("i")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, name: str, label=None, on_result=None):
        """``fn`` recording a span per call; ``label(result)`` renames it."""
        nid = self._nid(name)
        perf = time.perf_counter
        stack, trace, parent, names = self._stack, self._trace, self._parent, self._name
        start, end, counters = self._start, self._end, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            trace.append(self.trace_id)
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if label is not None:
                names[idx] = self._nid(label(result))
            if on_result is not None:
                on_result(counters, result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (the root of a workload run)."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, name: str, **kw) -> None:
        """Replace ``fn`` under every name bound to it in the entrocert modules."""
        traced = self.wrap(fn, name, **kw)
        for modname, mod in list(sys.modules.items()):
            if modname != "entrocert" and not modname.startswith("entrocert."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str) -> None:
        """Wrap a method, together with its aliases (``__rmul__ = __mul__``)."""
        raw = cls.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        traced = self.wrap(fn, name)
        for alias, value in list(cls.__dict__.items()):
            if value is raw:
                self._set(cls, alias, staticmethod(traced) if is_static else traced)

    def install(self) -> "Tracer":
        """Patch every layer named in LAYER_SPANS plus the suites and reports."""
        for mod, fns in _FUNCTIONS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for fn in fns:
                hook = _superop_bytes if fn in ("frechet_superoperator", "frechet_inverse") else None
                self.patch_function(getattr(mod, fn), f"{layer}.{fn}", on_result=hook)
        for name, cls, attrs in _METHODS:
            for attr in attrs:
                self.patch_method(cls, attr, name)
        for fn in _SUITES:
            self.patch_function(getattr(certify, fn), "certify.suite", label=_outcome_label)
        self.patch_function(certify.reverify_counterexample, "certify.reverify")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    def summary(self, trace_id: int) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds) over one trace id."""
        trace = np.frombuffer(self._trace, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        name = np.frombuffer(self._name, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        sel = trace == trace_id
        k = len(self._names)
        calls = np.bincount(name[sel], minlength=k)
        busy = np.bincount(name[sel], weights=dur[sel], minlength=k)
        own = np.bincount(name[sel], weights=(dur - child)[sel], minlength=k)
        return {
            n: (int(calls[i]), float(busy[i]), float(own[i]))
            for i, n in enumerate(self._names)
            if calls[i]
        }

    def save(self, path: Path) -> None:
        """Write every span as arrays (trace, parent, name, start, end) plus names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self._names),
            trace=np.frombuffer(self._trace, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            name=np.frombuffer(self._name, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=float),
            end=np.frombuffer(self._end, dtype=float),
        )


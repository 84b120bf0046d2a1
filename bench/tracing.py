"""Spans around the library's layer boundaries, recorded from outside ``src/``.

The package modules import names directly (``from .entropic import
hypothesis_testing_divergence``), so a layer boundary is instrumented by
replacing the name in the *calling* module's namespace.  ``numpy.linalg.eigh``,
``numpy.linalg.eigvalsh`` and ``numpy.einsum`` are wrapped as counters that
are charged to whichever span is active in the calling thread.  Everything
patched is put back by :meth:`Tracer.restore`.
"""
from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable

import numpy as np

# (calling module, name, span name).  One row per place a layer calls
# another; the span name is the callee's layer and function.
BOUNDARIES = (
    ("cli", "load_channel", "channel.load"),
    ("cli", "load_distribution", "channel.load"),
    ("cli", "control_state_t1", "channel.control_state"),
    ("cli", "control_state_hk", "channel.control_state"),
    ("regions", "control_state_t1", "channel.control_state"),
    ("regions", "control_state_hk", "channel.control_state"),
    ("cli", "joint_and_product", "states.joint_and_product"),
    ("entropic", "joint_and_product", "states.joint_and_product"),
    ("states", "partial_trace_matrix", "operators.partial_trace"),
    ("cli", "trace_distance", "operators.distance"),
    ("cli", "fidelity", "operators.distance"),
    ("cli", "purified_distance", "operators.distance"),
    ("cli", "hypothesis_testing_divergence", "entropic.d_h"),
    ("entropic", "hypothesis_testing_divergence", "entropic.d_h"),
    ("cli", "max_relative_entropy", "entropic.d_max"),
    ("entropic", "max_relative_entropy", "entropic.d_max"),
    ("cli", "smooth_max_relative_entropy", "entropic.smoothing"),
    ("entropic", "smooth_max_relative_entropy", "entropic.smoothing"),
    ("cli", "cond_smooth_ht_mi", "entropic.cond"),
    ("cli", "cond_smooth_max_mi", "entropic.cond"),
    ("regions", "cond_smooth_ht_mi", "entropic.cond"),
    ("regions", "cond_smooth_max_mi", "entropic.cond"),
    ("regions", "ht_mutual_info", "entropic.mutual_info"),
    ("regions", "smooth_max_mutual_info", "entropic.mutual_info"),
    ("secrecy", "smooth_max_mutual_info", "entropic.mutual_info"),
    ("regions", "randomizer_plan", "secrecy"),
    ("regions", "secrecy_check", "secrecy"),
    # region_builder() looks its builders up in the regions namespace
    ("regions", "theorem1_region", "regions.build"),
    ("regions", "conjecture_region", "regions.build"),
    ("regions", "theorem2_region", "regions.build"),
    ("regions", "hk_nosecrecy_region", "regions.build"),
    ("cli", "qmac_inner_bound", "regions.build"),
    ("cli", "sweep_union", "regions.sweep"),
    ("cli", "fourier_motzkin", "regions.fm"),
    ("cli", "vertices_2d", "regions.vertices_2d"),
    ("regions", "vertices_2d", "regions.vertices_2d"),
    ("regions", "minimal_2d", "regions.minimal_2d"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


def _result_counts(name: str, result) -> dict[str, float]:
    """Work counts read off a boundary's return value."""
    if name == "states.joint_and_product":
        return {"bytes": float(result[0].nbytes + result[1].nbytes)}
    if name == "regions.build":
        return {"terms": float(sum(len(r.terms) for r in result.rows))}
    if name == "regions.fm":
        return {"rows_out": float(len(result.rows))}
    return {}


class Tracer:
    """In-memory span recorder; spans are written out only by :meth:`write`.

    Calls to the boundaries named in ``record`` also keep their arguments and
    result, for checks made after the traced pass.

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with an empty stack (the sweep's thread pool) takes as
    parent the span open on the thread that created the tracer.  Stacks and
    parents hold the :class:`Span` objects themselves, so threads opening
    spans at once never share a slot; spans are numbered only on output.
    """

    def __init__(self, record: tuple[str, ...] = ()):
        self.spans: list[Span] = []
        self.record = set(record)
        self.recorded: list[tuple[str, tuple, object]] = []
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._local.stack = self._home_stack
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        if threading.get_ident() != self._home and self._home_stack:
            return self._home_stack[-1]
        return None

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self.current())
        self.spans.append(span)
        self._stack().append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        opened = self._open(name)
        try:
            yield opened
        finally:
            self._close(opened)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _boundary(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            for key, value in _result_counts(name, result).items():
                span.add(key, value)
            if name in self.record:
                self.recorded.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _numpy_counter(self, key: str, fn: Callable, dim_of=None) -> Callable:
        def counted(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            span = self.current()
            if span is not None:
                span.add(key + "_calls", 1)
                span.add(key + "_s", elapsed)
                if dim_of is not None:
                    d = float(dim_of(args))
                    span.add(key + "_dim", d)
                    span.add(key + "_flops", d**3)
            return result

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every boundary in ``BOUNDARIES`` and the numpy kernels."""
        for module, attr, name in BOUNDARIES:
            owner = importlib.import_module(f"oneshot_secrecy.{module}")
            self._patch(owner, attr, self._boundary(name, getattr(owner, attr)))
        dim = lambda args: np.shape(args[0])[-1]
        # eigvalsh counts as an eigendecomposition too: key "eigh" covers both
        self._patch(np.linalg, "eigh", self._numpy_counter("eigh", np.linalg.eigh, dim))
        self._patch(np.linalg, "eigvalsh", self._numpy_counter("eigh", np.linalg.eigvalsh, dim))
        self._patch(np, "einsum", self._numpy_counter("einsum", np.einsum))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def parents(self) -> list[int | None]:
        """Index in ``spans`` of each span's parent (a parent always comes first)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [None if s.parent is None else index[id(s.parent)] for s in self.spans]

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals.

        Children on pool threads may overlap one another, so the covered
        part is the measure of the union, not the sum of durations.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for s, parent in zip(self.spans, self.parents()):
            if parent is not None:
                children.setdefault(parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, edge = 0.0, s.start
            for start, end in sorted(children.get(i, ())):
                start, end = max(start, edge), min(end, s.end)
                if end > start:
                    covered += end - start
                    edge = end
            out.append(s.end - s.start - covered)
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start, end (seconds), parent index, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, parent) in enumerate(zip(self.spans, self.parents())):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": parent, "counts": s.counts}) + "\n")

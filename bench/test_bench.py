"""Self-test of the benchmark's tracing; run with ``python3 -m pytest bench/test_bench.py``."""
from __future__ import annotations

import importlib
import json
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import REFERENCE, _no_span  # noqa: E402


def _wrapped_objects() -> dict:
    objects = {
        (module, attr): getattr(importlib.import_module(f"oneshot_secrecy.{module}"), attr)
        for module, attr, _ in tracing.BOUNDARIES
    }
    objects.update(eigh=np.linalg.eigh, eigvalsh=np.linalg.eigvalsh, einsum=np.einsum)
    return objects


def test_traced_and_untraced_runs_agree(tmp_path):
    before = _wrapped_objects()
    cases = json.loads(REFERENCE.read_text(encoding="utf-8"))["cases"]
    op = next(o for o in workloads.operations("regions-commuting", 0, tmp_path, {})
              if o.metric == "t1_region_s")
    tracer = tracing.Tracer(record=("entropic.d_h",))
    tracer.install()
    try:
        traced = op.run(tracer.span)
    finally:
        tracer.restore()
    untraced = op.run(_no_span)

    assert traced == untraced
    assert workloads.mismatch(cases[op.case], untraced) is None
    after = _wrapped_objects()
    assert all(after[key] is before[key] for key in before)
    names = {s.name for s in tracer.spans}
    assert {"cli", "channel.load", "regions.build", "entropic.d_h", "states.joint_and_product"} <= names
    assert any(s.counts.get("eigh_calls") for s in tracer.spans if s.name == "entropic.d_h")
    assert tracer.recorded


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    parent = tracing.Span("parent", 0.0, None)
    parent.end = 10.0
    first, second, late = (tracing.Span("child", start, parent) for start in (1.0, 2.0, 9.0))
    first.end, second.end, late.end = 4.0, 5.0, 12.0  # overlapping, and one past the parent's end
    tracer.spans = [parent, first, second, late]
    assert tracer.parents() == [None, 0, 0, 0]
    assert tracer.self_times() == [10.0 - 4.0 - 1.0, 3.0, 3.0, 3.0]


def test_spans_from_two_threads_nest_within_their_own_thread():
    tracer = tracing.Tracer()
    start = threading.Barrier(2)

    def worker(tag: str) -> None:
        start.wait()
        for _ in range(2000):
            with tracer.span("outer:" + tag) as outer:
                with tracer.span("inner:" + tag) as inner:
                    assert inner.parent is outer

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with tracer.span("home") as home:
            threads = [threading.Thread(target=worker, args=(tag,)) for tag in "ab"]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        sys.setswitchinterval(interval)

    assert len(tracer.spans) == 1 + 2 * 2 * 2000
    for s in tracer.spans:
        assert s.end >= s.start
        kind, _, tag = s.name.partition(":")
        if kind == "outer":
            assert s.parent is home
        elif kind == "inner":
            assert s.parent.name == "outer:" + tag
    parents = tracer.parents()
    assert all(p is None or p < i for i, p in enumerate(parents))
    assert all(t >= 0.0 for t in tracer.self_times())

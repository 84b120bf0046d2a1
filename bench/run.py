"""Benchmark of the oneshot-secrecy toolkit, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-reference

Workloads (see ``workloads.py`` for the operations):

* ``regions-commuting``: every ``region`` theorem and ``quantities`` on the
  bundled computational-basis channels; ``D_H`` on commuting block-diagonal
  pairs does nearly all the work.
* ``regions-noncommuting``: the same calls on seeded random rank-deficient
  channels, so the general bisection and support-condition paths do it.
* ``sweep``: three ``sweep`` calls of many small evaluations, one of them on
  two threads.
* ``polytope``: ``fm`` on seeded polytope files, then ``vertices_2d`` and
  ``minimal_2d`` of each projection; no divergence runs.

One process drives a closed loop: each operation starts when the previous
one has finished, and a round runs every operation of the workload once.
Set-up (imports, writing the seeded inputs, one untimed warm-up call of every
operation) is repeated ``SETUPS`` times and its median reported.  Every
operation's output is checked against ``reference.json``; an exception, a
nonzero exit or an output off its reference counts as a failed operation.

The host's speed swings by up to 1.7x for seconds at a time, so the gated
timings are relative: each operation's wall time is divided by the mean time
of a fixed reference kernel run just before and just after it (unit ``ref``).
``setup_s`` (imports plus one set-up) is scaled the same way to seconds on a
host where the kernel takes ``workloads.REFERENCE_KERNEL_S``, and the tracing
overhead compares relative round times.  The wall times are in the report.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and the last line
carries the per-layer metrics (totals per round) plus the tracing overhead.
The lines before it are a readable report: every per-operation timing as a
median and tail percentile with its sample count, the failures, and the
machine facts.
"""
from __future__ import annotations

import os

# pin BLAS before numpy loads it, so the two-thread sweep never runs more
# threads than it asks for
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUPS = 3
TAIL_SAMPLES = 10  # a tail percentile is reported only with this many samples beyond it
CANDIDATES_PER_SIZE = 12


def _no_span(name: str):
    return contextlib.nullcontext()



def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest standard percentile with at least ``TAIL_SAMPLES`` samples beyond it."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1.0 - p / 100.0) >= TAIL_SAMPLES:
            return f"p{p:g}", ordered[min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1)]
    return None


@dataclass
class Pass:
    """Times of one sequence of rounds, per metric and per round: wall seconds
    (``samples``, ``rounds``) and the same in reference-kernel units
    (``relative``, ``relative_rounds``).  A round's time is the sum of its
    operations' times."""

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    relative: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    rounds: list[float] = field(default_factory=list)
    relative_rounds: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)


class Runner:
    """Runs operations, times them and counts failures against attempts."""

    def __init__(self, cases: dict, mismatch, kernel):
        self.cases = cases
        self.mismatch = mismatch
        self.kernel = kernel
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def execute(self, op, span) -> float | None:
        """Wall seconds ``op`` took, or None if it failed."""
        self.attempted += 1
        try:
            with span("op:" + op.metric):
                start = time.perf_counter()
                record = op.run(span)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failures.append((op.case, f"{type(exc).__name__}: {exc}"))
            return None
        reason = self.mismatch(self.cases.get(op.case), record)
        if reason is not None:
            self.failures.append((op.case, reason))
            return None
        return elapsed

    def rounds(self, ops, budget: float, span=_no_span) -> Pass:
        """Repeat rounds while another one fits in ``budget`` seconds (at least one).

        The reference kernel runs before the first operation and after each
        one, and each operation's time is also divided by the mean of the
        two kernel times around it.
        """
        result = Pass()
        lengths: list[float] = []
        begin = time.perf_counter()
        while not lengths or time.perf_counter() - begin + statistics.median(lengths) <= budget:
            # operations sharing a metric (the polytope files) add up within a round
            spent: dict[str, float] = defaultdict(float)
            relative: dict[str, float] = defaultdict(float)
            start = time.perf_counter()
            before = self.kernel()
            result.kernel_s.append(before)
            for op in ops:
                elapsed = self.execute(op, span)
                after = self.kernel()
                result.kernel_s.append(after)
                if elapsed is not None:
                    spent[op.metric] += elapsed
                    relative[op.metric] += elapsed / ((before + after) / 2.0)
                before = after
            lengths.append(time.perf_counter() - start)
            result.rounds.append(sum(spent.values()))
            result.relative_rounds.append(sum(relative.values()))
            for metric, seconds in spent.items():
                result.samples[metric].append(seconds)
                result.relative[metric].append(relative[metric])
        return result


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (git stops at its root)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "oneshot_secrecy").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_host": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "ONESHOT_THREADS": os.environ.get("ONESHOT_THREADS", "unset (sweeps set it per call)"),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def op_report(timings: Pass) -> dict:
    """Median, tail percentile (where there are enough samples) and count per metric."""
    report = {}
    for metric, values in timings.samples.items():
        entry = {"n": len(values), "median_s": statistics.median(values),
                 "median_ref": statistics.median(timings.relative[metric])}
        t = tail(values)
        if t is not None:
            entry[t[0] + "_s"] = t[1]
        report[metric] = entry
    return report


def end_to_end(setup_s: float, timings: Pass) -> dict:
    round_ref = statistics.median(timings.relative_rounds)
    medians = [statistics.median(v) for v in timings.relative.values()]
    geomean = math.exp(statistics.fmean(math.log(m) for m in medians)) if medians else round_ref
    return {
        "round_ref": (round_ref, "ref"),
        "op_geomean_ref": (geomean, "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, rounds: int, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics (totals per traced round) and a per-operation breakdown."""
    spans = tracer.spans
    own = tracer.self_times()
    root: list[int] = []
    for i, parent in enumerate(tracer.parents()):
        root.append(i if parent is None else root[parent])

    def ancestor_named(i: int, name: str) -> bool:
        parent = spans[i].parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += own[i]
        for key, value in s.counts.items():
            counts[f"{s.name}:{key}"] += value
    terms = sum(s.counts.get("terms", 0.0) for i, s in enumerate(spans)
                if s.name == "regions.build" and not ancestor_named(i, "regions.build"))
    evals = sum(1 for i, s in enumerate(spans)
                if s.name in ("entropic.d_h", "entropic.smoothing")
                and ancestor_named(i, "regions.build"))
    points = [1000.0 * (s.end - s.start) for s in spans
              if s.name == "regions.build" and s.parent is not None
              and s.parent.name == "regions.sweep"]
    point_tail = tail(points)
    eigh_calls = counts["entropic.d_h:eigh_calls"]

    def per_round(x: float) -> float:
        return x / rounds

    m = {
        "entropic.d_h.calls": (per_round(calls["entropic.d_h"]), "count"),
        "entropic.d_h.self_s": (per_round(self_s["entropic.d_h"]), "s"),
        "entropic.d_h.eigh_calls": (per_round(eigh_calls), "count"),
        "entropic.d_h.eigh_s": (per_round(counts["entropic.d_h:eigh_s"]), "s"),
        "entropic.d_h.einsum_s": (per_round(counts["entropic.d_h:einsum_s"]), "s"),
        "entropic.d_h.eigh_mean_dim": (counts["entropic.d_h:eigh_dim"] / eigh_calls if eigh_calls else 0.0,
                                       "dim"),
        "entropic.d_h.eigh_flops_computed": (per_round(counts["entropic.d_h:eigh_flops"]), "flop"),
        "entropic.d_max.calls": (per_round(calls["entropic.d_max"]), "count"),
        "entropic.d_max.self_s": (per_round(self_s["entropic.d_max"]), "s"),
        "entropic.smoothing.self_s": (per_round(self_s["entropic.smoothing"]), "s"),
        "entropic.cond.calls": (per_round(calls["entropic.cond"]), "count"),
        "states.joint_and_product.calls": (per_round(calls["states.joint_and_product"]), "count"),
        "states.joint_and_product.self_s": (per_round(self_s["states.joint_and_product"]), "s"),
        "states.joint_and_product.bytes_computed": (per_round(counts["states.joint_and_product:bytes"]),
                                                    "B"),
        "operators.partial_trace.calls": (per_round(calls["operators.partial_trace"]), "count"),
        "operators.partial_trace.self_s": (per_round(self_s["operators.partial_trace"]), "s"),
        "operators.distance.self_s": (per_round(self_s["operators.distance"]), "s"),
        "channel.load.self_s": (per_round(self_s["channel.load"]), "s"),
        "channel.control_state.calls": (per_round(calls["channel.control_state"]), "count"),
        "channel.control_state.self_s": (per_round(self_s["channel.control_state"]), "s"),
        "cli.self_s": (per_round(self_s["cli"]), "s"),
        "cli.bytes_written": (per_round(counts["cli:bytes_written"]), "B"),
        "secrecy.self_s": (per_round(self_s["secrecy"]), "s"),
        "regions.build.self_s": (per_round(self_s["regions.build"]), "s"),
        "regions.terms_per_eval": (terms / evals if evals else 0.0, "ratio"),
        "regions.terms": (per_round(terms), "count"),
        "regions.divergence_evals": (per_round(evals), "count"),
        "regions.sweep.points": (per_round(len(points)), "count"),
        "regions.sweep.point_p50_ms": (statistics.median(points) if points else 0.0, "ms"),
        "regions.sweep.point_tail_ms": (point_tail[1] if point_tail else 0.0, "ms"),
        "regions.sweep.self_s": (per_round(self_s["regions.sweep"]), "s"),
        "regions.fm.calls": (per_round(calls["regions.fm"]), "count"),
        "regions.fm.self_s": (per_round(self_s["regions.fm"]), "s"),
        "regions.fm.rows_out": (per_round(counts["regions.fm:rows_out"]), "count"),
        "regions.vertices_2d.calls": (per_round(calls["regions.vertices_2d"]), "count"),
        "regions.vertices_2d.self_s": (per_round(self_s["regions.vertices_2d"]), "s"),
        "regions.minimal_2d.self_s": (per_round(self_s["regions.minimal_2d"]), "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    # per operation: wall time and the layers that took most of it (self time)
    breakdown: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        op = spans[root[i]]
        breakdown[op.name[3:]][s.name if i != root[i] else "wall"] += (
            s.end - s.start if i == root[i] else own[i])
    notes = {
        "regions.sweep.point_tail": point_tail[0] if point_tail else f"n/a ({len(points)} points)",
        "regions.terms_per_eval base": f"{terms:g} terms / {evals} divergence evaluations",
        "traced rounds": rounds,
    }
    return m, {"notes": notes, "by_operation": breakdown}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _emit(correct: bool, runner: Runner, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:.6g} {unit}")


def run(args) -> int:
    import workloads

    cases = json.loads(REFERENCE.read_text(encoding="utf-8"))
    runner = Runner(cases["cases"], workloads.mismatch, workloads.reference_kernel)
    runner.kernel()  # warm-up; not program set-up
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # each set-up is scaled by the reference kernel timed around it
        setup_times, setup_scaled = [], []
        for k in range(SETUPS):
            before = runner.kernel()
            start = time.perf_counter()
            ops = workloads.operations(args.workload, args.seed, scratch / f"setup{k}", cases)
            for op in ops:
                runner.execute(op, _no_span)
            setup_times.append(time.perf_counter() - start)
            speed = workloads.REFERENCE_KERNEL_S / ((before + runner.kernel()) / 2.0)
            setup_scaled.append((args.import_s + setup_times[-1]) * speed)
        setup_s = statistics.median(setup_scaled)
        if not args.trace:
            timings = runner.rounds(ops, args.seconds)
            metrics = end_to_end(setup_s, timings)
            extra = {}
        else:
            from tracing import Tracer

            timings = runner.rounds(ops, args.seconds / 2.0)
            checked = ("entropic.d_h",) if args.workload == "regions-commuting" else ()
            tracer = Tracer(record=checked)
            tracer.install()
            try:
                traced = runner.rounds(ops, args.seconds / 2.0, tracer.span)
            finally:
                tracer.restore()
            overhead = (statistics.median(traced.relative_rounds)
                        / statistics.median(timings.relative_rounds) - 1.0)
            metrics, extra = per_layer(tracer, len(traced.rounds), overhead)
            for _, (rho, sigma, eps), value in tracer.recorded:
                runner.attempted += 1
                reason = workloads.classical_dh_mismatch(rho, sigma, eps, value)
                if reason is not None:
                    runner.failures.append(("d_h-oracle", reason))
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "setup_s": {"import_s": args.import_s, "runs_s": setup_times, "scaled_s": setup_scaled},
        "operations": op_report(timings),
        "round_s": timings.rounds,
        "round_ref": timings.relative_rounds,
        "reference_kernel_s": {"median": statistics.median(timings.kernel_s),
                               "min": min(timings.kernel_s), "max": max(timings.kernel_s),
                               "n": len(timings.kernel_s)},
        "failed_frac": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:20],
        **extra,
    }
    print(json.dumps(report, indent=1, default=dict))
    print("per-operation medians:")
    for name, entry in report["operations"].items():
        print(f"  {name:<42} {entry['median_s']:.6g} s  {entry['median_ref']:.6g} ref")
    for op, layers in extra.get("by_operation", {}).items():
        wall = layers.pop("wall")
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
        print(f"  {op:<28} {wall:.4g} s: " + ", ".join(f"{k} self {v:.4g} s ({v / wall:.1%})" for k, v in top))
    _print_metrics("metrics:", metrics)
    _emit(not runner.failures, runner, metrics)
    return 0


def write_reference() -> int:
    """Run every case once on this commit and store its outputs as the reference."""
    import workloads
    import inputs

    cases: dict[str, dict] = {}
    candidates: dict[str, list[int]] = {str(n): [] for n in workloads.POLYTOPE_ROWS}
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))

    def record(op) -> dict:
        out = op.run(_no_span)
        cases[op.case] = out
        return out

    try:
        index = 0
        while any(len(v) < CANDIDATES_PER_SIZE for v in candidates.values()):
            if index > 50000:
                raise RuntimeError("too few polytope candidates of the wanted row counts")
            fm, minimal = workloads.fm_ops(f"poly{index}", inputs.polytope_file(index, scratch), scratch)
            out = fm.run(_no_span)
            size = str(len(out["rows"]) // 3)
            if size in candidates and len(candidates[size]) < CANDIDATES_PER_SIZE:
                candidates[size].append(index)
                cases[fm.case] = out
                record(minimal)
            index += 1
        reference = {"cases": cases, "polytope_candidates": candidates}
        for workload in ("regions-commuting", "regions-noncommuting", "sweep"):
            for seed in range(workloads.INSTANCES):
                for op in workloads.operations(workload, seed, scratch / f"{workload}{seed}", reference):
                    if op.case not in cases:
                        record(op)
                print(f"reference: {workload} instance {seed} done", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} reference cases to {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("regions-commuting", "regions-noncommuting", "sweep",
                                               "polytope"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this commit's outputs as the reference, then exit")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "oneshot_secrecy" / "__init__.py").is_file():
        print(f"error: no oneshot_secrecy sources under {SRC}", file=sys.stderr)
        return 2
    if not args.write_reference and not REFERENCE.is_file():
        print(f"error: reference outputs {REFERENCE} missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import oneshot_secrecy.cli  # noqa: F401
    import workloads  # noqa: F401

    args.import_s = time.perf_counter() - start
    if args.write_reference:
        return write_reference()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

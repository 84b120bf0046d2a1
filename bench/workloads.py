"""Benchmark operations: what each workload runs and how its outputs are checked.

An operation is one closed-loop call into the library, mostly through
``oneshot_secrecy.cli.main`` exactly as a user would run the command.  Each
returns an output record (lists of floats) that is compared with the stored
reference for its case: row bounds and vertices for ``region``, the printed
values for ``quantities``, frontier points for ``sweep``, projected rows for
``fm`` and the irredundant rows plus vertices for ``minimal_2d``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.linalg import eigh as _eigh

import inputs
from oneshot_secrecy import cli, regions
from oneshot_secrecy.entropic import classical_np_oracle
from oneshot_secrecy.regions import PolyRow, RatePolytope

# seeded inputs are drawn from this many instances, each with a stored reference
INSTANCES = 16
# a polytope round projects FILES_PER_SIZE files whose projections have each
# of these row counts, so every round carries about the same Fourier-Motzkin
# and vertex work.  minimal_2d grows with the cube of the rows: one 56-row
# projection already costs 0.5-0.8 s, and the round has to stay near 1 s for
# about ten rounds to fit in a run
POLYTOPE_ROWS = (24, 40)
FILES_PER_SIZE = 3
EPS = ["--eps", "0.25"]
TOLERANCE = 1e-8


class OperationFailed(RuntimeError):
    """A command exited with a nonzero status."""


@dataclass
class Operation:
    metric: str  # end-to-end timing it contributes to, e.g. "t2_region_s"
    case: str  # reference key: the operation plus the inputs it ran on
    run: Callable[[Callable], dict]  # takes a span factory, returns the output record


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _cli(argv: list[str], span, written: list[Path]) -> str:
    """Run one command; ``written`` lists the files it may write (3-variable regions write no CSV)."""
    out = io.StringIO()
    with span("cli") as record, contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"exit status {code} from {' '.join(argv[:1])}")
    text = out.getvalue()
    if record is not None:
        record.add("bytes_written", len(text.encode()) + sum(p.stat().st_size for p in written if p.exists()))
    return text


def region_op(metric: str, case: str, work: Path, channel: Path, dist: Path, theorem: str,
              *extra: str) -> Operation:
    out, csv_path = work / f"{metric}.json", work / f"{metric}.csv"
    argv = ["region", "--channel", str(channel), "--dist", str(dist), "--theorem", theorem,
            "--out", str(out), "--csv", str(csv_path), *EPS, *extra]

    def run(span) -> dict:
        _cli(argv, span, [out, csv_path])
        report = json.loads(out.read_text(encoding="utf-8"))
        return {
            "bounds": _floats(r["bound"] for r in report["rows"]),
            "vertices": _floats(c for v in report.get("vertices", []) for c in v),
        }

    return Operation(metric, case, run)


def quantities_op(metric: str, case: str, channel: Path, dist: Path) -> Operation:
    argv = ["quantities", "--channel", str(channel), "--dist", str(dist), *EPS]

    def run(span) -> dict:
        text = _cli(argv, span, [])
        return {"values": _floats(line.split()[-1] for line in text.splitlines() if line.strip())}

    return Operation(metric, case, run)


def sweep_op(metric: str, case: str, work: Path, channel: Path, theorem: str, threads: int,
             *extra: str) -> Operation:
    out = work / f"{metric}.csv"
    argv = ["sweep", "--channel", str(channel), "--theorem", theorem, "--grid", "3",
            "--csv", str(out), *EPS, *extra]

    def run(span) -> dict:
        saved = os.environ.get("ONESHOT_THREADS")
        os.environ["ONESHOT_THREADS"] = str(threads)
        try:
            _cli(argv, span, [out])
        finally:
            if saved is None:
                del os.environ["ONESHOT_THREADS"]
            else:
                os.environ["ONESHOT_THREADS"] = saved
        with out.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return {"frontier": _floats(v for r in rows for v in (r["R1"], r["R2"]))}

    return Operation(metric, case, run)


def _poly_rows(doc: dict) -> list[float]:
    return _floats(x for r in doc["rows"]
                   for x in [r["coeffs"].get(v, 0.0) for v in doc["variables"]] + [r["bound"]])


def fm_ops(case: str, source: Path, work: Path) -> list[Operation]:
    """``fm`` on one polytope file, then vertices and the minimal row set of its projection."""
    out = work / f"{case}-fm.json"
    argv = ["fm", "--input", str(source), "--eliminate", "W1,W2", "--out", str(out)]

    def project(span) -> dict:
        _cli(argv, span, [out])
        return {"rows": _poly_rows(json.loads(out.read_text(encoding="utf-8")))}

    def minimise(span) -> dict:
        doc = json.loads(out.read_text(encoding="utf-8"))
        variables = tuple(doc["variables"])
        poly = RatePolytope(variables, [
            PolyRow(tuple(float(r["coeffs"].get(v, 0.0)) for v in variables), float(r["bound"]), r["tag"])
            for r in doc["rows"]
        ])
        vertices = regions.vertices_2d(poly).vertices
        minimal = regions.minimal_2d(poly)
        return {
            "rows": _floats(x for r in minimal.rows for x in (*r.coeffs, r.bound)),
            "vertices": _floats(c for v in vertices for c in v),
        }

    return [Operation("fm_s", f"fm@{case}", project),
            Operation("minimal_2d_s", f"minimal_2d@{case}", minimise)]


def region_ops(tag: str, work: Path, split: Path, hk_dist: Path, unsplit: Path, t1_dist: Path,
               diagonal_scan: bool) -> list[Operation]:
    ops = [
        region_op("t1_region_s", f"t1_region@{tag}", work, unsplit, t1_dist, "t1"),
        region_op("t2_region_s", f"t2_region@{tag}", work, split, hk_dist, "t2"),
        region_op("conjecture_region_s", f"conjecture_region@{tag}", work, split, hk_dist, "conjecture"),
    ]
    if diagonal_scan:
        ops.append(region_op("conjecture_dscan_region_s", f"conjecture_dscan_region@{tag}", work,
                             split, hk_dist, "conjecture", "--smoothing", "diagonal-scan"))
    ops += [
        region_op("hk_region_s", f"hk_region@{tag}", work, split, hk_dist, "hk-nosecrecy"),
        region_op("qmac_region_s", f"qmac_region@{tag}", work, split, hk_dist, "qmac"),
        quantities_op("quantities_s", f"quantities@{tag}", split, hk_dist),
    ]
    return ops


def operations(workload: str, seed: int, work: Path, reference: dict) -> list[Operation]:
    """Write the seeded inputs for ``workload`` under ``work`` and list its operations.

    The seed picks one of ``INSTANCES`` generated instances (or, for
    ``polytope``, ``FILES_PER_SIZE`` stored candidate files per row count),
    so that every input the benchmark can draw has a reference output.
    """
    instance = seed % INSTANCES
    if workload == "regions-commuting":
        f = inputs.write_inputs(workload, 0, work)
        return region_ops("bundled", work, f["xor_split"], f["uniform_hk"],
                          f["diag_deterministic"], f["uniform_t1"], diagonal_scan=True)
    if workload == "regions-noncommuting":
        f = inputs.write_inputs(workload, instance, work)
        return region_ops(f"nc{instance}", work, f["split"], f["hk_dist"], f["unsplit"], f["t1_dist"],
                          diagonal_scan=False)
    if workload == "sweep":
        f = inputs.write_inputs(workload, instance, work)
        t1 = ("--q-size", "2")
        return [
            sweep_op("sweep_t1_s", "sweep_t1@bundled", work, f["diag_deterministic"], "t1", 1, *t1),
            sweep_op("sweep_conjecture_s", f"sweep_conjecture@nc{instance}", work, f["small_split"],
                     "conjecture", 1),
            sweep_op("sweep_t1_2threads_s", "sweep_t1@bundled", work, f["diag_deterministic"], "t1",
                     min(2, len(os.sched_getaffinity(0))), *t1),
        ]
    if workload == "polytope":
        rng = np.random.default_rng(seed)
        ids = [int(i) for n in POLYTOPE_ROWS
               for i in rng.choice(reference["polytope_candidates"][str(n)], FILES_PER_SIZE, replace=False)]
        files = inputs.write_inputs(workload, 0, work, polytope_ids=ids)
        return [op for i in ids for op in fm_ops(f"poly{i}", files[f"poly{i}"], work)]
    raise ValueError(f"unknown workload {workload!r}")


def mismatch(expected: dict | None, got: dict) -> str | None:
    """Why ``got`` is off its reference (absolute tolerance ``TOLERANCE``), or None."""
    if expected is None:
        return "no stored reference"
    for key, want in expected.items():
        have = got.get(key)
        if have is None or len(have) != len(want):
            return f"{key}: {len(have or [])} values, reference has {len(want)}"
        for i, (w, h) in enumerate(zip(want, have)):
            if not (w == h or abs(w - h) <= TOLERANCE):
                return f"{key}[{i}] = {h!r}, reference {w!r}"
    return None


def classical_dh_mismatch(rho: np.ndarray, sigma: np.ndarray, eps: float, value: float) -> str | None:
    """Check one ``D_H`` value of commuting inputs against the classical oracle.

    The common eigenbasis comes from a generic combination of the two
    operators; the oracle then solves the classical Neyman-Pearson problem
    exactly, independent of the bisection.
    """
    _, basis = np.linalg.eigh(rho + math.pi * sigma)
    p = np.clip(np.real(np.einsum("ij,ik,kj->j", basis.conj(), rho, basis)), 0.0, None)
    q = np.clip(np.real(np.einsum("ij,ik,kj->j", basis.conj(), sigma, basis)), 0.0, None)
    _, expected = classical_np_oracle(p / p.sum(), q / q.sum(), eps)
    if expected == value or abs(expected - value) <= TOLERANCE:
        return None
    return f"D_H = {value!r}, classical oracle {expected!r}"


_KERNEL_MATRIX = np.add.outer(np.arange(16.0), np.arange(16.0)) % 7.0
# median time of reference_kernel() on the 2-vCPU 2.1 GHz Xeon VM the bounds
# were set on; scaled set-up times are seconds on a host this fast
REFERENCE_KERNEL_S = 0.006


def reference_kernel() -> float:
    """Wall seconds of a fixed mix of small ``eigh`` and interpreted arithmetic.

    It does the kind of work the library's hot paths do, so it slows
    down with the host as they do.  ``_eigh`` is bound at import, so tracing never
    wraps it.
    """
    start = time.perf_counter()
    total = 0.0
    for _ in range(100):
        total += float(_eigh(_KERNEL_MATRIX)[0][0])
        for i in range(300):
            total += i * 0.5
    return time.perf_counter() - start

"""Seeded input files for the benchmark workloads.

Everything here writes plain JSON documents in the formats the
``oneshot-secrecy`` command line reads (channel, distribution, polytope), so
the library under test only ever sees generated files.  The same seed always
writes byte-identical files.
"""
from __future__ import annotations

import json
import shutil
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ROOT / "src" / "oneshot_secrecy" / "data"


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _random_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Random rank-``rank`` density matrix; independent draws almost never commute."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _interior_pmf(rng: np.random.Generator, n: int) -> list[float]:
    """A random distribution bounded away from the simplex faces."""
    p = 0.5 / n + 0.5 * rng.dirichlet(np.ones(n))
    p[-1] = 1.0 - p[:-1].sum()
    return p.tolist()


def noncommuting_channel(rng: np.random.Generator, name: str, dims: tuple[int, int, int],
                         split: bool) -> dict:
    """Channel document with random rank-d/8 (at least 1) output states.

    A split channel has four input symbols per sender, built from binary
    common and personal parts by the default row-major table; an unsplit one
    has binary inputs.
    """
    d = int(np.prod(dims))
    symbols = ["00", "01", "10", "11"] if split else ["0", "1"]
    states = {}
    for x1 in symbols:
        for x2 in symbols:
            rho = _random_state(rng, d, max(1, d // 8))
            states[f"{x1},{x2}"] = {"re": rho.real.tolist(), "im": rho.imag.tolist()}
    doc = {
        "name": name,
        "inputs": {"X1": symbols, "X2": symbols},
        "outputs": {"Y1": dims[0], "Y2": dims[1], "Z": dims[2]},
        "states": states,
    }
    if split:
        doc["splits"] = {
            "X1": {"parts": {"X10": ["0", "1"], "X11": ["0", "1"]}},
            "X2": {"parts": {"X20": ["0", "1"], "X22": ["0", "1"]}},
        }
    return doc


def hk_distribution(rng: np.random.Generator) -> dict:
    return {reg: _interior_pmf(rng, 2) for reg in ("x10", "x11", "x20", "x22")}


def t1_distribution(rng: np.random.Generator, q_size: int) -> dict:
    return {
        "q": _interior_pmf(rng, q_size),
        "x1_given_q": [_interior_pmf(rng, 2) for _ in range(q_size)],
        "x2_given_q": [_interior_pmf(rng, 2) for _ in range(q_size)],
    }


def polytope(rng: np.random.Generator) -> dict:
    """Four variables, ten random integer rows plus the box [0, 5]^4.

    Projecting out W1 and W2 gives roughly 20 to 150 rows; one more
    variable makes ``vertices_2d`` minutes long, so the shape stays fixed.
    """
    variables = ["R1", "R2", "W1", "W2"]
    a = rng.integers(-3, 4, size=(10, 4)).astype(float)
    b = rng.integers(0, 6, size=10).astype(float)
    a = np.vstack([a, np.eye(4)])
    b = np.concatenate([b, np.full(4, 5.0)])
    rows = [
        {"coeffs": {v: c for v, c in zip(variables, row) if c != 0.0}, "bound": bound}
        for row, bound in zip(a.tolist(), b.tolist())
    ]
    return {"variables": variables, "rows": rows}


def polytope_file(index: int, out: Path) -> Path:
    """Write polytope number ``index`` of the fixed candidate stream."""
    rng = np.random.default_rng([index, zlib.crc32(b"polytope")])
    return _write(out / f"poly{index}.json", polytope(rng))


def write_inputs(workload: str, seed: int, out: Path, polytope_ids=()) -> dict[str, Path]:
    """Write the files ``workload`` needs into ``out``; return them by role."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    if workload in ("regions-commuting", "sweep"):
        for name in ("diag_deterministic.json", "xor_split.json", "uniform_t1.json", "uniform_hk.json"):
            files[name.removesuffix(".json")] = Path(shutil.copy(BUNDLED / name, out / name))
    if workload == "regions-noncommuting":
        files["split"] = _write(out / "split.json",
                                noncommuting_channel(rng, "random-split", (4, 4, 2), split=True))
        files["unsplit"] = _write(out / "unsplit.json",
                                  noncommuting_channel(rng, "random-unsplit", (2, 2, 2), split=False))
        files["hk_dist"] = _write(out / "hk_dist.json", hk_distribution(rng))
        files["t1_dist"] = _write(out / "t1_dist.json", t1_distribution(rng, 2))
    elif workload == "sweep":
        files["small_split"] = _write(out / "small_split.json",
                                      noncommuting_channel(rng, "random-small-split", (2, 2, 2), split=True))
    elif workload == "polytope":
        for i in polytope_ids:
            files[f"poly{i}"] = polytope_file(i, out)
    return files

"""Byte-identity of the CLI outputs on the bundled channels.

The files under ``tests/golden/`` were written once from a reference tree by
running this module as a script (``PYTHONPATH=src python tests/test_golden.py``)
and are never rewritten to make a change pass: a changed byte is a changed
result.  The script writes only missing files and lists every existing file
whose bytes now differ.

``tests/data/nc_small_split.json`` is a rank-deficient non-commuting split
channel: pure three-qubit output states drawn by ``bench/inputs.py``'s
``noncommuting_channel`` from ``np.random.default_rng(17)``.  Its cases are
the ones that reach the ``D_H`` threshold-test search; every bundled channel
is classical.  ``nc_small_split_dist.json`` puts zero mass on one value.

``tests/data/nc_small_unsplit.json`` is a non-commuting unsplit channel onto
qubit triples, written by ``save_channel`` from ``util.nc_small_unsplit``
(four ``conftest.rand_density(rng, 8, full_rank=False)`` draws from
``np.random.default_rng(5)``).  Its ``t1`` sweeps are the cases whose
conditional terms, such as ``I(X1 : X2 Y1 | Q)``, reach the threshold-test
search; ``sweep_t1_diag`` is classical.  Their goldens were written by this
script before a conditional term's rows became its distinct conditional
states, and both sweeps give 91 nonzero rays of 91.

``sweep_t2_xor_g5`` (``t2`` on ``xor_split`` at ``--grid 5``, 91 nonzero
rays) was written by this script while a sweep was still cut into chunks of
points (10 of them); solved as one grid, 26 of its terms are over the batch
budget of ``entropic.grid_terms`` and cut into row ranges.

``tests/data/classical_split.json`` is a classical split channel on which
the diagonal-scan smoothing moves the values (on the bundled channels it
only turns a rounding error into zero).  It was drawn from
``np.random.default_rng(0)``: each of its 16 states, in document order, is
``np.diag(rng.dirichlet(np.ones(8)))``, and then ``x10``, ``x11``, ``x20``
and ``x22`` of ``classical_split_dist.json`` are ``rng.dirichlet(np.ones(2))``
in turn; both documents are in the canonical form of ``save_channel`` and
``save_distribution``.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from oneshot_secrecy import cli
from oneshot_secrecy.channel import bundled_path, dumps_channel
from oneshot_secrecy.regions import minimal_2d, vertices_2d
from util import nc_small_unsplit

GOLDEN = Path(__file__).parent / "golden"
DIAG = str(bundled_path("diag_deterministic.json"))
XOR = str(bundled_path("xor_split.json"))
T1DIST = str(bundled_path("uniform_t1.json"))
HKDIST = str(bundled_path("uniform_hk.json"))
# the lifted split-message system of hk_region_via_projection on xor_split
# (penalties off), with the rate identities as equalities
HK_LIFT = str(Path(__file__).parent / "data" / "hk_lift_xor.json")
NC = str(Path(__file__).parent / "data" / "nc_small_split.json")
NCDIST = str(Path(__file__).parent / "data" / "nc_small_split_dist.json")
NC_UNSPLIT = Path(__file__).parent / "data" / "nc_small_unsplit.json"
CL = str(Path(__file__).parent / "data" / "classical_split.json")
CLDIST = str(Path(__file__).parent / "data" / "classical_split_dist.json")
SCAN = ["--smoothing", "diagonal-scan"]
OFF = ["--penalties", "off"]


def _region(channel, dist, theorem, *extra):
    return ["region", "--channel", channel, "--dist", dist, "--theorem", theorem,
            "--eps", "0.25", *extra]


def _sweep(channel, theorem, *extra):
    return ["sweep", "--channel", channel, "--theorem", theorem, "--eps", "0.25", *extra]


def _quantities(channel, dist, groupings, *extra):
    argv = ["quantities", "--channel", channel, "--dist", dist, "--eps", "0.25", *extra]
    for g in groupings:
        argv += ["--grouping", g]
    return argv


# name -> (argv, kind); kind "region" writes <name>.json and <name>.csv,
# "sweep" writes <name>.csv, "fm" writes <name>.json, "minimal" writes
# <name>.json with the irredundant rows and vertices of the fm output, and
# "stdout" keeps the printed table as <name>.txt.
# The paper's penalties zero most bundled regions, so every region also runs
# with them off, and the sweeps run with them off only.
CASES = {}
for _name, _argv in {
    "t1_diag": _region(DIAG, T1DIST, "t1"),
    "t1_diag_scan": _region(DIAG, T1DIST, "t1", *SCAN),
    "t2_xor": _region(XOR, HKDIST, "t2"),
    "conjecture_xor": _region(XOR, HKDIST, "conjecture"),
    "conjecture_xor_scan": _region(XOR, HKDIST, "conjecture", *SCAN),
    "hk_nosecrecy_xor": _region(XOR, HKDIST, "hk-nosecrecy"),
    "qmac_xor": _region(XOR, HKDIST, "qmac"),
}.items():
    CASES[_name] = (_argv, "region")
    CASES[f"{_name}_off"] = (_argv + OFF, "region")
CASES.update({
    # mixed, all-classical, all-quantum, interleaved and conditional groupings
    "quantities_xor": (_quantities(XOR, HKDIST, ["X10,X11:Y1", "X10:X11", "Y1:Z",
                                                 "X20,Y1:X10,Z", "X10:Y1|X11"]), "stdout"),
    "quantities_diag_scan": (_quantities(DIAG, T1DIST, ["X1:X2,Y1|Q", "X1:Z", "Y1,X2:X1"],
                                         *SCAN), "stdout"),
    "sweep_t1_diag": (_sweep(DIAG, "t1", "--q-size", "2", "--grid", "3", *OFF), "sweep"),
    "sweep_conjecture_xor": (_sweep(XOR, "conjecture", "--grid", "2", *OFF), "sweep"),
    "sweep_conjecture_xor_scan": (_sweep(XOR, "conjecture", "--grid", "2", *OFF, *SCAN),
                                  "sweep"),
    "sweep_conjecture_nc": (_sweep(NC, "conjecture", "--grid", "3", *OFF), "sweep"),
    "sweep_t2_xor": (_sweep(XOR, "t2", "--grid", "3", *OFF), "sweep"),
    "sweep_t2_xor_g5": (_sweep(XOR, "t2", "--grid", "5", *OFF), "sweep"),
    "sweep_hk_nosecrecy_nc": (_sweep(NC, "hk-nosecrecy", "--grid", "3", *OFF), "sweep"),
    "sweep_t1_nc": (_sweep(str(NC_UNSPLIT), "t1", "--q-size", "2", "--grid", "3", *OFF), "sweep"),
    "sweep_t1_nc_q3": (_sweep(str(NC_UNSPLIT), "t1", "--q-size", "3", "--grid", "3", *OFF), "sweep"),
    "t2_nc_off": (_region(NC, NCDIST, "t2", *OFF), "region"),
    "quantities_classical_scan": (_quantities(CL, CLDIST, ["X10:Y1", "X10,X11:Y1", "X20:Z,X10", "X22:Y2|X20"],
                                              *SCAN), "stdout"),
    "t2_classical_scan_off": (_region(CL, CLDIST, "t2", *OFF, *SCAN), "region"),
    "sweep_conjecture_classical_scan": (_sweep(CL, "conjecture", "--grid", "3", *OFF, *SCAN), "sweep"),
    "fm_hk_lift_xor": (["fm", "--input", HK_LIFT, "--eliminate", "R10,R11,R20,R22"], "fm"),
    "minimal_2d_hk_lift_xor": (["fm", "--input", HK_LIFT, "--eliminate", "R10,R11,R20,R22"],
                               "minimal"),
})


def _minimal_report(fm_json: Path) -> bytes:
    """``minimal_2d`` rows, in order, and ``vertices_2d`` of a projected polytope file."""
    poly = cli._poly_from_document(json.loads(fm_json.read_text(encoding="utf-8")))
    enum = vertices_2d(poly)
    payload = {
        "minimal_rows": [{"coeffs": list(r.coeffs), "bound": r.bound, "tag": r.tag}
                         for r in minimal_2d(poly).rows],
        "vertices": [[x, y] for x, y in enum.vertices],
        "flags": {"degenerate": enum.degenerate, "unbounded": enum.unbounded},
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def run_case(name, outdir: Path) -> dict[str, bytes]:
    """Run one case into ``outdir`` and return its outputs by golden file name."""
    argv, kind = CASES[name]
    if kind == "region":
        argv = argv + ["--out", str(outdir / f"{name}.json"), "--csv", str(outdir / f"{name}.csv")]
    elif kind == "sweep":
        argv = argv + ["--csv", str(outdir / f"{name}.csv")]
    elif kind in ("fm", "minimal"):
        argv = argv + ["--out", str(outdir / f"{name}.json")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0, name
    if kind == "stdout":
        return {f"{name}.txt": buf.getvalue().encode("utf-8")}
    if kind == "minimal":
        return {f"{name}.json": _minimal_report(outdir / f"{name}.json")}
    return {p.name: p.read_bytes() for p in sorted(outdir.glob(f"{name}.*"))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_byte_identical(name, tmp_path):
    outputs = run_case(name, tmp_path)
    assert outputs
    for fname, data in outputs.items():
        assert data == (GOLDEN / fname).read_bytes(), fname


def test_nc_small_unsplit_is_the_drawn_channel():
    """The committed channel is exactly what its seeded helper saves."""
    assert NC_UNSPLIT.read_text(encoding="utf-8") == dumps_channel(nc_small_unsplit())


def test_classical_scan_golden_is_smoothed():
    """The diagonal-scan goldens of the classical split channel pin values the scan moves."""
    values = {}
    for line in (GOLDEN / "quantities_classical_scan.txt").read_text(encoding="utf-8").splitlines():
        grouping, name, value = line.split()
        values[grouping, name] = float(value)
    assert any(values[g, "smooth_max_mutual_info"] < value for (g, name), value in values.items()
               if name == "max_mutual_info")


def _write_all() -> None:
    """Write every missing golden file; list, never rewrite, an existing one whose bytes differ."""
    GOLDEN.mkdir(exist_ok=True)
    changed = []
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(name, Path(tmp)).items():
                path = GOLDEN / fname
                if not path.exists():
                    path.write_bytes(data)
                    print(f"wrote {fname} ({len(data)} bytes)")
                elif path.read_bytes() != data:
                    changed.append(fname)
    for fname in changed:
        print(f"differs, not rewritten: {fname}")


if __name__ == "__main__":
    _write_all()

"""Time the package at a base revision against the working tree, interleaved in one process.

    python3 tools/ab_inprocess.py                          # HEAD against the working tree
    python3 tools/ab_inprocess.py --base a1d07b9 --repeats 50

``src/oneshot_secrecy`` at ``--base`` (read with ``git show``) and in the
working tree are copied into a temporary directory as two packages,
``oneshot_secrecy_base`` and ``oneshot_secrecy_head``.  The package imports
itself only relatively, so each copy runs its own code.  Each repeat runs
every command once on each side, back to back, the side that goes first
alternating between repeats.  The commands are the seven operations of the
benchmark's regions-commuting workload on the bundled data, and the two
sweeps whose CSVs CI compares with ``tests/golden``.

Two checkouts benchmarked in separate processes can read a few percent apart
on code that times the same; within one process that offset is shared by
both sides.  The output is one JSON object: per command, each side's minimum
time, the median over repeats of the head/base time ratio, how many repeats
the head was slower in, and whether both sides wrote the same outputs in
every repeat; per group, the sums of the minima and their ratio.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "oneshot_secrecy"
DATA = ROOT / PACKAGE / "data"
SIDES = ("base", "head")
EPS = ["--eps", "0.25"]


def _region(theorem: str, *extra: str, channel: str = "xor_split", dist: str = "uniform_hk"):
    return lambda out: ["region", "--channel", str(DATA / f"{channel}.json"), "--dist", str(DATA / f"{dist}.json"),
                        "--theorem", theorem, *EPS, *extra, "--out", str(out / "region.json"),
                        "--csv", str(out / "region.csv")]


def _sweep(channel: Path, theorem: str, *extra: str):
    return lambda out: ["sweep", "--channel", str(channel), "--theorem", theorem, *EPS, *extra,
                        "--penalties", "off", "--csv", str(out / "sweep.csv")]


# group -> command name -> argv, given the directory the command writes into
COMMANDS = {
    "regions-commuting": {
        "t1_region": _region("t1", channel="diag_deterministic", dist="uniform_t1"),
        "t2_region": _region("t2"),
        "conjecture_region": _region("conjecture"),
        "conjecture_dscan_region": _region("conjecture", "--smoothing", "diagonal-scan"),
        "hk_region": _region("hk-nosecrecy"),
        "qmac_region": _region("qmac"),
        "quantities": lambda out: ["quantities", "--channel", str(DATA / "xor_split.json"),
                                   "--dist", str(DATA / "uniform_hk.json"), *EPS],
    },
    "ci-sweeps": {
        "sweep_t1_nc_q3": _sweep(ROOT / "tests" / "data" / "nc_small_unsplit.json", "t1", "--q-size", "3",
                                 "--grid", "3"),
        "sweep_t2_xor_g5": _sweep(DATA / "xor_split.json", "t2", "--grid", "5"),
    },
}


def copy_package(rev: str | None, dest: Path) -> None:
    """``src/oneshot_secrecy`` at ``rev``, or in the working tree when ``rev`` is None, copied to ``dest``."""
    if rev is None:
        shutil.copytree(ROOT / PACKAGE, dest, ignore=shutil.ignore_patterns("__pycache__"))
        return
    listed = subprocess.run(["git", "ls-tree", "-r", "--name-only", rev, "--", str(PACKAGE)], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    for name in listed.stdout.splitlines():
        path = dest / Path(name).relative_to(PACKAGE)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(subprocess.run(["git", "show", f"{rev}:{name}"], cwd=ROOT, capture_output=True,
                                        check=True).stdout)


def run(cli, argv: list[str]) -> tuple[float, str]:
    """Seconds one command takes, and what it printed; a nonzero exit status stops the tool."""
    printed = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"exit status {code} from {' '.join(argv)}")
    return elapsed, printed.getvalue()


def outputs(out: Path, printed: str) -> tuple:
    """What a command wrote: its printed text with its output directory left out, and each file's bytes."""
    return printed.replace(str(out), ""), sorted((p.name, p.read_bytes()) for p in out.iterdir())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base side (default: HEAD)")
    parser.add_argument("--repeats", type=int, default=30, help="runs of each command on each side")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    # the BLAS pin bench/run.py sets, before numpy loads with either package
    os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        copy_package(args.base, tmp / "packages" / "oneshot_secrecy_base")
        copy_package(None, tmp / "packages" / "oneshot_secrecy_head")
        sys.path.insert(0, str(tmp / "packages"))
        clis = {side: importlib.import_module(f"oneshot_secrecy_{side}.cli") for side in SIDES}
        commands = [(group, name, build) for group, named in COMMANDS.items() for name, build in named.items()]
        times = {(side, name): [] for side in SIDES for _, name, _ in commands}
        same = {}
        for repeat in range(args.repeats):
            for _, name, build in commands:
                written = {}
                for side in SIDES if repeat % 2 == 0 else SIDES[::-1]:
                    out = tmp / side / name
                    out.mkdir(parents=True, exist_ok=True)
                    seconds, printed = run(clis[side], build(out))
                    times[side, name].append(seconds)
                    written[side] = outputs(out, printed)
                same[name] = same.get(name, True) and written["base"] == written["head"]
    report = {"base": args.base, "head": "working tree", "repeats": args.repeats, "commands": {}, "groups": {}}
    for group, name, _ in commands:
        base, head = times["base", name], times["head", name]
        report["commands"][name] = {
            "group": group,
            "base_min_ms": 1e3 * min(base),
            "head_min_ms": 1e3 * min(head),
            "median_ratio": statistics.median(h / b for b, h in zip(base, head)),
            "head_slower_in": sum(h > b for b, h in zip(base, head)),
            "same_output": same[name],
        }
    for group in COMMANDS:
        sums = {side: sum(c[f"{side}_min_ms"] for c in report["commands"].values() if c["group"] == group)
                for side in SIDES}
        report["groups"][group] = {"base_min_ms": sums["base"], "head_min_ms": sums["head"],
                                   "ratio": sums["head"] / sums["base"]}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

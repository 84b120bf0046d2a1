"""Run the benchmark over workloads, seeds and trace settings and summarize it in one JSON file.

    python3 tools/bench_record.py --out bench_summary.json
    python3 tools/bench_record.py --out /tmp/b.json --workload polytope --seed 1 --trace 0 --seconds 1

Each run is ``bench/run.py --workload W --seed S --seconds T --trace R`` in
its own process; its last stdout line is the one-line JSON summary
(``correct``, ``attempted``, ``failed`` and ``metrics``).  The workloads and
the run length default to those ``BENCHMARK.json`` declares.  For every
workload and trace setting the file gives each metric's median and
quartiles over the seeds, never a single run, beside each run's
correctness and operation counts and the machine facts.  A metric that
reads 0 in every run of its group is kept as read and named in that group's
``zero_metrics``.  The exit status is 1 when any run is not correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# the environment each run starts in; bench/run.py pins the same before numpy loads
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
ZERO_NOTE = ("a metric in zero_metrics read 0 in every run of its group: the workload does not reach "
             "that layer, or the tracer does not count it there; it is recorded as read")


def machine_facts() -> dict:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    # the measured sources differ from that commit's
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src", "bench"], cwd=ROOT).returncode != 0
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pin": BLAS_PIN,
        "git_head": head.stdout.strip() if head.returncode == 0 else None,
        "sources_differ_from_head": dirty,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; its summary line, or ``correct: false`` with the reason it has none."""
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, env={**os.environ, **BLAS_PIN})
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
        return {key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}
    except (IndexError, ValueError, KeyError, TypeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "error": f"exit {proc.returncode}: {tail}"}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(workload: str, trace: int, seeds: list[int], runs: list[dict]) -> dict:
    """One group: each run's correctness, and each metric over the runs that report it."""
    metrics = {}
    for name in dict.fromkeys(name for run in runs for name in run.get("metrics", {})):
        read = [run["metrics"][name] for run in runs if name in run.get("metrics", {})]
        values = [entry["value"] for entry in read]
        metrics[name] = {"unit": read[0]["unit"], "n": len(values), **quartiles(values)}
    return {
        "workload": workload,
        "trace": trace,
        "runs": [{"seed": seed, **{k: v for k, v in run.items() if k != "metrics"}}
                 for seed, run in zip(seeds, runs)],
        "metrics": metrics,
        "zero_metrics": [name for name, m in metrics.items() if m["q1"] == m["q3"] == 0.0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=[w["name"] for w in BENCHMARK["workloads"]],
                        help="a workload to run (repeatable; default: every declared workload)")
    parser.add_argument("--seed", action="append", type=int, dest="seeds",
                        help="a seed to run (repeatable; default: 1, 2 and 3)")
    parser.add_argument("--trace", action="append", type=int, choices=(0, 1), dest="traces",
                        help="a trace setting to run (repeatable; default: 0 and 1)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="timed seconds per run (default: the declared run length)")
    args = parser.parse_args(argv)
    workloads = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    seeds, traces = args.seeds or [1, 2, 3], args.traces or [0, 1]
    groups = []
    for workload in workloads:
        for trace in traces:
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, args.seconds, trace))
                print(f"{workload} seed {seed} trace {trace}: correct={runs[-1]['correct']}", file=sys.stderr)
            groups.append(summarize(workload, trace, seeds, runs))
    report = {"machine": machine_facts(), "seconds": args.seconds, "seeds": seeds, "note": ZERO_NOTE,
              "groups": groups}
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(run["correct"] for group in groups for run in group["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())

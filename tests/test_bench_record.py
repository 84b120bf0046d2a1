"""``tools/bench_record.py`` runs the benchmark in child processes and writes one summary file.

One workload, one seed and one trace setting at one second keep the run
short; the file's schema is checked, not its timings.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_record.py"


def test_one_short_run_writes_the_summary_schema(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(TOOL), "--out", str(out), "--workload", "polytope", "--seed", "1",
            "--trace", "0", "--seconds", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report) == {"machine", "seconds", "seeds", "note", "groups"}
    machine = report["machine"]
    assert set(machine) == {"cpu_count", "affinity", "python", "numpy", "blas_pin", "git_head",
                            "sources_differ_from_head"}
    assert machine["affinity"] >= 1 and machine["blas_pin"]["OPENBLAS_NUM_THREADS"] == "1"
    (group,) = report["groups"]
    assert (group["workload"], group["trace"]) == ("polytope", 0)
    (run,) = group["runs"]
    assert run["seed"] == 1 and run["correct"] is True and run["failed"] == 0 and run["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert {m["name"] for m in declared} <= set(group["metrics"])
    for name, metric in group["metrics"].items():
        assert set(metric) == {"unit", "n", "median", "q1", "q3"}, name
        assert metric["n"] == 1 and metric["q1"] <= metric["median"] <= metric["q3"], name
    assert set(group["zero_metrics"]) <= set(group["metrics"])

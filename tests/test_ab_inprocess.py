"""``tools/ab_inprocess.py`` times two copies of the package in one process and prints one JSON report.

``HEAD`` against the working tree at one repeat keeps the run short; the
report's schema is checked, not its timings.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inprocess.py"
COMMANDS = {"t1_region", "t2_region", "conjecture_region", "conjecture_dscan_region", "hk_region", "qmac_region",
            "quantities", "sweep_t1_nc_q3", "sweep_t2_xor_g5"}


def test_head_against_head_at_one_repeat():
    proc = subprocess.run([sys.executable, str(TOOL), "--base", "HEAD", "--repeats", "1"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["base"], report["head"], report["repeats"]) == ("HEAD", "working tree", 1)
    assert set(report["commands"]) == COMMANDS
    for name, command in report["commands"].items():
        assert set(command) == {"group", "base_min_ms", "head_min_ms", "median_ratio", "head_slower_in",
                                "same_output"}, name
        assert command["base_min_ms"] > 0 and command["head_min_ms"] > 0, name
        assert command["median_ratio"] == pytest.approx(command["head_min_ms"] / command["base_min_ms"]), name
        assert command["head_slower_in"] in (0, 1) and isinstance(command["same_output"], bool), name
    assert set(report["groups"]) == {"regions-commuting", "ci-sweeps"}
    for group, sums in report["groups"].items():
        members = [c for c in report["commands"].values() if c["group"] == group]
        assert sums["base_min_ms"] == pytest.approx(sum(c["base_min_ms"] for c in members)), group
        assert sums["ratio"] == pytest.approx(sums["head_min_ms"] / sums["base_min_ms"]), group

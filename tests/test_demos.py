import os
import subprocess
import sys
from pathlib import Path

import pytest

import oneshot_secrecy

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    package_root = str(Path(oneshot_secrecy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr

"""Every demo script runs to completion from an empty directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import papsim

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(papsim.__file__).parents[1]),
           "MPLBACKEND": "Agg"}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr

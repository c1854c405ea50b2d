"""Smoke test: every script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import alcm

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("argv", [
    ["hydrography.py"],
    ["metamodelling_queries.py"],
    ["differential_check.py", "20"],
])
def test_demo_runs(argv):
    # the child imports the same alcm package as this process
    import_path = os.path.dirname(os.path.dirname(alcm.__file__))
    done = subprocess.run([sys.executable, str(DEMOS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=import_path))
    assert done.returncode == 0, done.stderr

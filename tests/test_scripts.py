"""The demo scripts run to completion with asserts stripped (``python -O``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kinkeq

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PACKAGE_ROOT = str(Path(kinkeq.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "argv",
    [
        ["gram_factor_search_demo.py"],
        ["replay_worked_examples.py"],
        ["random_reduction_demo.py", "10", "3", "1"],
    ],
)
def test_script_runs_optimized(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", str(SCRIPTS / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout

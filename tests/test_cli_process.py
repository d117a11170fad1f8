"""``kinkeq`` run as a process: the exit status reaches the shell through
``sys.exit(main())``, as it does through the installed console script."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kinkeq

PACKAGE_ROOT = str(Path(kinkeq.__file__).resolve().parents[1])


def _kinkeq(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kinkeq.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.fixture
def certificate(tmp_path):
    matrix = tmp_path / "g.sym"
    matrix.write_text("sym 2\n5 3\n3 6\n", encoding="utf-8")
    trace = tmp_path / "trace.txt"
    result = _kinkeq("reduce", str(matrix), "--target", "neg", "--out", str(trace))
    assert result.returncode == 0, result.stderr
    return trace


def test_verify_exits_0(certificate):
    result = _kinkeq("verify", str(certificate))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("valid")


def test_tampered_certificate_exits_1(certificate):
    # one more in the first entry of the recorded end matrix
    text = certificate.read_text(encoding="utf-8")
    tampered = re.sub(r"^end (-?\d+)", lambda m: f"end {int(m[1]) + 1}", text, flags=re.M)
    assert tampered != text
    certificate.write_text(tampered, encoding="utf-8")
    result = _kinkeq("verify", str(certificate))
    assert result.returncode == 1, result.stderr
    assert result.stdout.startswith("INVALID")


def test_malformed_file_exits_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sym 2\n5 x\n", encoding="utf-8")
    result = _kinkeq("verify", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")


def test_rational_round_trip_exits_0(tmp_path):
    # rational input takes the reducer's integralization path every round
    matrix = tmp_path / "q.sym"
    matrix.write_text("sym 3\n1/2 1/3 0\n1/3 -1/5 2\n0 2 3/4\n", encoding="utf-8")
    trace = tmp_path / "q-trace.txt"
    result = _kinkeq("reduce", str(matrix), "--target", "neg", "--out", str(trace))
    assert result.returncode == 0, result.stderr
    result = _kinkeq("verify", str(trace))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("valid: 9 moves")
    # two rounds: each one integralization kink, the squares' kinks, Q and an unkink
    result = _kinkeq("stats", str(trace))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "pos_kinks 0 neg_kinks 5 pos_unkinks 2 neg_unkinks 0 congruences 2"
    ]

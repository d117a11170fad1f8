"""Loading the kinkeq package under test, and the per-op time cap.

The benchmark always imports kinkeq from ``src/`` of the checkout it sits
in, never from an installed copy, so a checkout without sources fails
instead of silently measuring some other build.
"""

from __future__ import annotations

import importlib
import signal
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("exact", "moves", "reducer", "cct", "goeritz", "formats", "cli")


class MissingProgram(RuntimeError):
    """The checkout holds no kinkeq sources to benchmark."""


def load() -> SimpleNamespace:
    """Import kinkeq and its modules afresh from the checkout's ``src/``.

    Earlier imports are dropped from ``sys.modules`` first, so timing this
    call measures a cold import from source (bytecode caches aside).
    """
    init = SRC / "kinkeq" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no kinkeq sources at {init.relative_to(ROOT)}")
    for name in [m for m in sys.modules if m == "kinkeq" or m.startswith("kinkeq.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("kinkeq")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported kinkeq from {pkg.__file__}, not from the checkout")
    return SimpleNamespace(**{m: importlib.import_module(f"kinkeq.{m}") for m in MODULES})


class OpTimeout(Exception):
    """An op ran past its time cap."""


def _fire(signum, frame):
    raise OpTimeout()


@contextmanager
def time_cap(seconds: float):
    """Interrupt the body after ``seconds`` with SIGALRM: no thread, no process.

    The alarm is delivered between bytecodes, so one long native call (a
    single huge big-integer product) finishes before the op is stopped.
    """
    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

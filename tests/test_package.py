"""Package-wide source checks."""

import ast
from pathlib import Path

import kinkeq

SOURCES = sorted(Path(kinkeq.__file__).parent.glob("*.py")) + sorted(
    (Path(__file__).resolve().parents[1] / "scripts").glob("*.py")
)


def test_no_assert_statements():
    """Result guards raise KinkEqError subclasses; ``python -O`` strips asserts."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found

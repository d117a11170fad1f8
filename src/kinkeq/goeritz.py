"""Goeritz matrices from crossing-incidence data.

A diagram is described purely combinatorially: a count of white regions
(labeled 0..N-1) and a list of crossings, each pairing two distinct regions
with a sign.  The Goeritz matrix is built from the pre-matrix with
g_ij = -(sum of signs between regions i and j) off the diagonal and
zero-sum rows, then deleting row and column 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import KinkEqError, ParseError, RegionOutOfRange, SelfPairedCrossing
from .exact import IntMatrix, SymMatrix, write_number
from .formats import content_lines, read_number, read_rows


@dataclass(frozen=True)
class Diagram:
    region_count: int
    crossings: tuple[tuple[int, int, int], ...]  # (region_i, region_j, eta)


def _regions(region_count: int, line: int | None) -> range:
    """The labels 0..N-1 of N regions; N must be an integer of at least 1."""
    try:
        regions = range(region_count)
    except TypeError:
        regions = range(0)
    if not regions:
        raise ParseError("need at least 1 region", line=line)
    return regions


def _check_crossings(
    regions: range, crossings: Iterable[tuple[int, int, int]], line: int | None
) -> None:
    """The one copy of the crossing checks, on integers already read: each
    (i, j, eta) has two distinct labels of ``regions`` and the sign +1 or -1."""
    for i, j, eta in crossings:
        if i not in regions or j not in regions:
            raise RegionOutOfRange(
                f"region label out of range 0..{write_number(regions[-1])}", line=line
            )
        if i == j:
            raise SelfPairedCrossing(
                f"crossing pairs region {write_number(i)} with itself", line=line
            )
        if eta not in (1, -1):
            raise ParseError("crossing sign must be +1 or -1", line=line)


def parse_diagram(text: str) -> Diagram:
    """Parse the diagram format: "regions N" then lines "i j s", s in {+,-}.

    '#' starts a comment; blank lines are skipped.  Region pairs may repeat
    (several crossings between the same two regions).
    """
    regions = None
    crossings = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if regions is None:
            if len(parts) != 2 or parts[0] != "regions":
                raise ParseError("expected header 'regions N'", line=lineno)
            regions = _regions(read_number(parts[1], lineno, True), lineno)
            continue
        labels = read_rows(f"{parts[0]} {parts[1]}", lineno, True) if len(parts) == 3 else []
        if len(labels) != 1 or len(labels[0]) != 2:
            raise ParseError("expected crossing line 'i j s'", line=lineno)
        if parts[2] not in ("+", "-"):
            raise ParseError(f"sign must be '+' or '-', got {parts[2]!r}", line=lineno)
        crossing = (*labels[0], 1 if parts[2] == "+" else -1)
        _check_crossings(regions, [crossing], lineno)
        crossings.append(crossing)
    if regions is None:
        raise ParseError("missing 'regions N' header")
    return Diagram(len(regions), tuple(crossings))


def goeritz_matrix(diagram: Diagram) -> SymMatrix:
    """Goeritz matrix in the basis of region boundaries 1..N-1.

    Region 0 is always the deleted one; relabel regions to delete another.
    The diagram is checked as ``parse_diagram`` checks its text; each
    crossing is read as an integer triple by ``IntMatrix.from_rows``.
    """
    if not isinstance(diagram, Diagram):
        raise KinkEqError(f"goeritz_matrix needs a Diagram, got {type(diagram).__name__}")
    regions = _regions(diagram.region_count, None)
    crossings = IntMatrix.from_rows(diagram.crossings, cols=3).entries
    _check_crossings(regions, crossings, None)
    n = len(regions)
    pre = [[0] * n for _ in range(n)]
    for i, j, eta in crossings:
        pre[i][j] -= eta
        pre[j][i] -= eta
    for i in range(n):
        pre[i][i] -= sum(pre[i])  # leaves minus the off-diagonal sum
    return SymMatrix.from_rows([row[1:] for row in pre[1:]])

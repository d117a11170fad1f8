"""Goeritz matrices from crossing-incidence data.

A diagram is described purely combinatorially: a count of white regions
(labeled 0..N-1) and a list of crossings, each pairing two distinct regions
with a sign.  The Goeritz matrix is built from the pre-matrix with
g_ij = -(sum of signs between regions i and j) off the diagonal and
zero-sum rows, then deleting row and column 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, RegionOutOfRange, SelfPairedCrossing
from .exact import SymMatrix
from .formats import content_lines, read_number, read_rows


@dataclass(frozen=True)
class Diagram:
    region_count: int
    crossings: tuple[tuple[int, int, int], ...]  # (region_i, region_j, eta)


def parse_diagram(text: str) -> Diagram:
    """Parse the diagram format: "regions N" then lines "i j s", s in {+,-}.

    '#' starts a comment; blank lines are skipped.  Region pairs may repeat
    (several crossings between the same two regions).
    """
    region_count = None
    crossings = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if region_count is None:
            if len(parts) != 2 or parts[0] != "regions":
                raise ParseError("expected header 'regions N'", line=lineno)
            region_count = read_number(parts[1], lineno, True)
            if region_count < 1:
                raise ParseError("need at least 1 region", line=lineno)
            continue
        labels = read_rows(" ".join(parts[:-1]), lineno, True)
        if len(labels) != 1 or len(labels[0]) != 2:
            raise ParseError("expected crossing line 'i j s'", line=lineno)
        i, j = labels[0]
        if parts[2] not in ("+", "-"):
            raise ParseError(f"sign must be '+' or '-', got {parts[2]!r}", line=lineno)
        if not (0 <= i < region_count and 0 <= j < region_count):
            raise RegionOutOfRange(
                f"region label out of range 0..{region_count - 1}", line=lineno
            )
        if i == j:
            raise SelfPairedCrossing(f"crossing pairs region {i} with itself", line=lineno)
        crossings.append((i, j, 1 if parts[2] == "+" else -1))
    if region_count is None:
        raise ParseError("missing 'regions N' header")
    return Diagram(region_count, tuple(crossings))


def goeritz_matrix(diagram: Diagram) -> SymMatrix:
    """Goeritz matrix in the basis of region boundaries 1..N-1.

    Region 0 is always the deleted one; relabel regions to delete another.
    """
    n = diagram.region_count
    pre = [[0] * n for _ in range(n)]
    for i, j, eta in diagram.crossings:
        pre[i][j] -= eta
        pre[j][i] -= eta
    for i in range(n):
        pre[i][i] -= sum(pre[i])  # leaves minus the off-diagonal sum
    return SymMatrix.from_rows([row[1:] for row in pre[1:]])

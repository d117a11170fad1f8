"""Independent exact arithmetic for the benchmark's correctness gates.

Nothing here imports kinkeq: the gates read the program's text output and
re-derive what they check, so a bug shared by the program's verifier and
its reducer cannot pass the gate by agreeing with itself.
"""

from __future__ import annotations

from fractions import Fraction


def signature(rows) -> tuple[int, int, int, Fraction]:
    """(n_plus, n_minus, n_zero, |det|) of a symmetric rational matrix.

    Symmetric elimination: a zero pivot is replaced by a nonzero diagonal
    entry further down, or else made nonzero by adding row/column j into
    row/column i (the new diagonal is 2*m[i][j]).  Both steps have
    determinant +-1, so the product of the pivots is +-det.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    n_plus = n_minus = 0
    abs_det = Fraction(1)
    for p in range(n):
        pivot = next((i for i in range(p, n) if m[i][i] != 0), None)
        if pivot is None:
            off = next(
                ((i, j) for i in range(p, n) for j in range(i + 1, n) if m[i][j] != 0), None
            )
            if off is None:
                return n_plus, n_minus, n - n_plus - n_minus, Fraction(0)
            i, j = off
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            pivot = i
        if pivot != p:
            m[p], m[pivot] = m[pivot], m[p]
            for row in m:
                row[p], row[pivot] = row[pivot], row[p]
        d = m[p][p]
        abs_det *= abs(d)
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for i in range(p + 1, n):
            f = m[i][p] / d
            if f:
                for j in range(p + 1, n):
                    m[i][j] -= f * m[p][j]
    return n_plus, n_minus, 0, abs_det


def parse_inline(token: str) -> list[list[Fraction]]:
    """Rows of an inline trace matrix: ';' between rows, 'empty' for 0x0."""
    if token == "empty":
        return []
    return [[Fraction(t) for t in row.split()] for row in token.split(";")]


def read_trace(text: str):
    """(start rows, [(keyword, argument)], end rows) of a trace certificate."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if len(lines) < 3 or lines[0] != "trace" or not lines[-1].startswith("end "):
        raise ValueError("not a trace certificate")
    moves = []
    for line in lines[2:-1]:
        keyword, _, rest = line.partition(" ")
        moves.append((keyword, rest.strip()))
    return parse_inline(lines[1]), moves, parse_inline(lines[-1][4:].strip())


def max_entry_bits(rows) -> int:
    """Largest numerator or denominator bit length among the entries."""
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for row in rows for x in row),
        default=0,
    )


def goeritz_rows(region_count: int, crossings) -> list[list[int]]:
    """Goeritz matrix of a crossing list, region 0 deleted."""
    pre = [[0] * region_count for _ in range(region_count)]
    for i, j, eta in crossings:
        pre[i][j] -= eta
        pre[j][i] -= eta
    for i in range(region_count):
        pre[i][i] = -sum(pre[i])
    return [row[1:] for row in pre[1:]]


def gram(c_rows) -> list[list[int]]:
    """C C^T of an integer matrix given by rows."""
    return [[sum(a * b for a, b in zip(r, s)) for s in c_rows] for r in c_rows]

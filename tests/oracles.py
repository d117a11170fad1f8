"""Independent oracles and random generators for the test suite.

Everything here is deliberately written with different algorithms than the
package under test: determinants and unimodularity by cofactor expansion,
congruences by the dense rational triple product, four squares by a
descending search with no shortcut, matrix products by dense dot products,
eigenvalue sign counts from the exact
characteristic polynomial, a diagonalizing congruence by Gaussian
elimination over the rationals.  Values frozen in the tests were computed
with these oracles (or checked against published figures) before being
asserted.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt, prod

from kinkeq import IntMatrix, SymMatrix


def cofactor_det(rows):
    """Determinant by textbook cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        total += (-1) ** j * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def is_unimodular(P: IntMatrix) -> bool:
    """True iff P is square with determinant +1 or -1, by cofactor expansion."""
    return P.rows == P.cols and cofactor_det(P.entries) in (1, -1)


def four_squares_oracle(k: int) -> tuple[int, int, int, int]:
    """The lexicographically greatest (a, b, c, d), a >= b >= c >= d >= 0,
    with a^2 + b^2 + c^2 + d^2 = k, by plain descending search on k itself."""
    for a in range(isqrt(k), -1, -1):
        for b in range(a, -1, -1):
            for c in range(b, -1, -1):
                r = k - a * a - b * b - c * c
                if r < 0:
                    continue
                d = isqrt(r)
                if d * d == r and d <= c:
                    return (a, b, c, d)
    raise AssertionError(f"no four squares found for {k}")


def congruence_oracle(G: SymMatrix, P: IntMatrix) -> SymMatrix:
    """P G P^T as the textbook double sum over every (k, l), in Fractions."""
    n = G.n
    return SymMatrix.from_rows(
        [
            [
                sum(
                    (
                        P.entries[i][k] * G.entries[k][l] * P.entries[j][l]
                        for k in range(n)
                        for l in range(n)
                    ),
                    Fraction(0),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def matmul_oracle(A: IntMatrix, B: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """A B as the textbook dot product of every row of A with every column
    of B, zeros included."""
    return tuple(
        tuple(sum(A.entries[i][k] * B.entries[k][j] for k in range(A.cols)) for j in range(B.cols))
        for i in range(A.rows)
    )


def quadratic_value(G: SymMatrix, v) -> Fraction:
    """v^T G v as the double sum over G's Fraction entries."""
    return sum(
        (Fraction(v[i]) * G.entries[i][j] * v[j] for i in range(G.n) for j in range(G.n)),
        Fraction(0),
    )


def diagonalizing_congruence_oracle(G: SymMatrix):
    """(D, L) with L G L^T = diag(D) by symmetric Gaussian elimination in
    Fractions, with the package's pivot choice: a later nonzero diagonal
    entry is swapped in; on an all-zero trailing diagonal the first nonzero
    m[i][j] (i < j) has row/column j added into i, which is then swapped in.
    Row operations are repeated on L."""
    n = G.n
    m = [list(row) for row in G.entries]
    L = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        L[i], L[j] = L[j], L[i]

    for p in range(n):
        if m[p][p] == 0:
            q = next((q for q in range(p + 1, n) if m[q][q] != 0), None)
            if q is None:
                off = next(
                    ((i, j) for i in range(p, n) for j in range(i + 1, n) if m[i][j] != 0), None
                )
                if off is None:
                    break
                i, j = off
                m[i] = [x + y for x, y in zip(m[i], m[j])]
                for row in m:
                    row[i] += row[j]
                L[i] = [x + y for x, y in zip(L[i], L[j])]
                q = i
            if q != p:
                swap(p, q)
        pivot = m[p][p]
        for i in range(p + 1, n):
            f = m[i][p] / pivot
            if f == 0:
                continue
            for j in range(p + 1, n):
                m[i][j] -= f * m[p][j]
            for j in range(n):
                L[i][j] -= f * L[p][j]
        for i in range(p + 1, n):
            m[p][i] = m[i][p] = Fraction(0)
    return [m[i][i] for i in range(n)], L


def elimination_invariants(G: SymMatrix):
    """(D, L), (n_plus, n_minus, n_zero) and det G from
    ``diagonalizing_congruence_oracle``: its L is a product of swaps and
    unit shears, so det L = +-1 and det G = prod(D)."""
    D, L = diagonalizing_congruence_oracle(G)
    signs = (sum(d > 0 for d in D), sum(d < 0 for d in D), sum(d == 0 for d in D))
    return (D, L), signs, prod(D, start=Fraction(1))


def charpoly(G: SymMatrix) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(xI - G), by Faddeev-LeVerrier."""
    n = G.n
    a = [[Fraction(x) for x in row] for row in G.entries]
    coeffs = [Fraction(1)]
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # m <- a @ m
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs


def inertia_oracle(G: SymMatrix) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) from the characteristic polynomial.

    All roots of the characteristic polynomial of a symmetric matrix are
    real, so Descartes' rule of signs counts positive roots exactly, and
    trailing zero coefficients count the root at 0 with multiplicity.
    """
    coeffs = charpoly(G)
    n = G.n
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    nonzero = [c for c in coeffs if c != 0]
    n_plus = sum(
        1 for prev, cur in zip(nonzero, nonzero[1:]) if (prev < 0) != (cur < 0)
    )
    return n_plus, n - n_plus - n_zero, n_zero


def random_sym(rng: random.Random, n: int, bound: int) -> SymMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return SymMatrix.from_rows(rows)


def random_sym_rational(rng: random.Random, n: int, bound: int, max_den: int) -> SymMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(
                rng.randint(-bound, bound), rng.randint(1, max_den)
            )
    return SymMatrix.from_rows(rows)


def random_unimodular(rng: random.Random, n: int, steps: int = 8) -> IntMatrix:
    """Product of elementary shears, swaps, and sign flips: det is +-1."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                rows[i][k] += c * rows[j][k]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows, cols=n)


def random_posdef_2x2(rng: random.Random, bound: int = 9) -> SymMatrix:
    while True:
        a = rng.randint(1, bound)
        c = rng.randint(1, bound)
        b = rng.randint(-bound, bound)
        if a * c - b * b > 0:
            return SymMatrix.from_rows([[a, b], [b, c]])


def random_int_matrix(rng: random.Random, n: int, m: int, bound: int = 3) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)], cols=m
    )


def random_banded_sym(rng: random.Random, n: int, band: int, diagonal: bool) -> list[list[int]]:
    """Rows of a sparse symmetric integer matrix: each entry within ``band``
    of the diagonal is nonzero with probability 1/2; the diagonal is all
    zero unless ``diagonal``, and then has no entry of absolute value < 2,
    so no pivot is +-1 and a row left stale differs from an updated one."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if diagonal:
            rows[i][i] = rng.choice((-1, 1)) * rng.randint(2, 5)
        for j in range(i + 1, min(n, i + band + 1)):
            if rng.random() < 0.5:
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    return rows


def direct_sum(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Rows of the block-diagonal matrix diag(a, b)."""
    return [row + [0] * len(b) for row in a] + [[0] * len(a) + row for row in b]


def decimal_value(text: str) -> int:
    """The integer written in ``text`` ("-" and decimal digits), read in
    chunks of at most 4000 digits, so numbers past CPython's int
    string-conversion limit are read without changing it."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value

"""Gram-factor toolkit: CC^T searches, the I+CC^T chain, and 2x2 forms."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

from .errors import (
    InternalError,
    KinkEqError,
    Not2x2,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
)
from .exact import (
    IntMatrix,
    SymMatrix,
    inertia,
    require_int_matrix,
    require_integral,
)
from .moves import Congruence, Kink, Move, Trace, Unkink


@dataclass(frozen=True)
class GramFactor:
    """Integer C with CC^T equal to some target Gram matrix.

    ``from_matrix`` canonicalizes C, and ``cct_search`` finds it canonical:
    zero columns dropped, each column's first nonzero entry positive, columns
    sorted descending.  The constructor does not; CC^T is the same either way.
    """

    matrix: IntMatrix

    def __post_init__(self):
        require_int_matrix(self.matrix, "a Gram factor")

    @classmethod
    def from_matrix(cls, C: IntMatrix) -> "GramFactor":
        require_int_matrix(C, "C")
        cols = []
        for col in zip(*C.entries):
            lead = next((x for x in col if x != 0), 0)
            if lead:
                cols.append(col if lead > 0 else tuple(-x for x in col))
        cols.sort(reverse=True)
        return cls(IntMatrix.from_rows(cols, cols=C.rows).transpose())

    def gram(self) -> SymMatrix:
        product = self.matrix.matmul(self.matrix.transpose())
        return SymMatrix.from_rows(product.entries)


def _identity_plus_gram(C: IntMatrix) -> SymMatrix:
    """I + CC^T."""
    gram = C.matmul(C.transpose()).entries
    return SymMatrix.from_rows(
        [[x + int(i == j) for j, x in enumerate(row)] for i, row in enumerate(gram)]
    )


def icct_trace(C: IntMatrix) -> Trace:
    """Kink-equivalence from I + CC^T down to -(I + C^T C).

    For n x m C: m negative kinks, the two block shears
    [[I, C], [0, I]] and [[I, 0], [C^T, I]], a block rotation putting the
    surviving identity block last, and n positive unkinks.  All built in
    closed form; ``verify_trace``, not this function, checks the chain.
    """
    require_int_matrix(C, "C")
    n, m = C.rows, C.cols
    size = n + m
    block = {(i, n + j): C[i, j] for i in range(n) for j in range(m)}
    transposed = {(j, i): v for (i, j), v in block.items()}
    moves: list[Move] = [Kink(-1)] * m
    if any(block.values()):  # else both shears are the identity
        moves += [Congruence(IntMatrix.shear(size, b)) for b in (block, transposed)]
    if n > 0 and m > 0:
        # rotate the leading I_n block to the back so it can be unkinked
        moves.append(Congruence(IntMatrix.rotation(size, n)))
    moves += [Unkink(1)] * n
    start, end = _identity_plus_gram(C), _identity_plus_gram(C.transpose()).neg()
    return Trace(start, tuple(moves), end)


def cct_search(G: SymMatrix) -> GramFactor | None:
    """Exhaustive canonical search for integer C with CC^T = G.

    Rows of C are filled in order; every column's entries are bounded by
    sqrt of the corresponding diagonal entry, and each nonzero column adds
    at least 1 to trace(CC^T), so trace(G) columns suffice and the search
    space is finite.  Signed column permutations are quotiented out by
    requiring entries to be non-increasing inside blocks of columns with
    equal prefixes and nonnegative where the prefix is all zero.  The rules
    run on state the placed rows carry: ``signed``, the index from which
    every column is still all zero, ``tied``, the columns that still equal
    the one before, and each row's suffix squared norms for a Cauchy-Schwarz
    prune, which also checks dot products.  A row ends where its norm is
    spent and 0 is allowed; the rows cut to ``signed`` columns are the factor.
    Each row's candidates come from one generator that walks the columns
    with an index j and keeps, per column, its value, its lower bound and
    the norm left; a placed row's dot product moves only at that row's
    nonzero entries.  A candidate costs one ``yield``, and the search is one
    frame deep per row, however long the rows.
    """
    require_integral(G, "cct_search")
    if inertia(G).n_minus > 0:
        raise NotPositiveSemidefinite("matrix has a negative eigenvalue")
    n, g = G.n, G.rows
    m = sum(g[i][i] for i in range(n))
    rows: list[tuple[int, ...]] = []
    suffix: list[list[int]] = []  # suffix[r][j] = sum of rows[r][k]^2 over k >= j

    def fill(i: int, signed: int, tied: list[bool]) -> GramFactor | None:
        """Place rows i, i+1, ... after ``rows``: row i is a canonical x
        with |x| bounded, sum x^2 = G_ii and x . rows[r] = G_ir for r < i."""
        if i == n:
            return GramFactor(IntMatrix.from_rows([row[:signed] for row in rows], cols=signed))
        gaps = list(g[i][:i])  # G_ir - x . rows[r] over the columns set so far
        # the nonzero (r, rows[r][j]) of each column; every placed row is
        # zero from column ``signed`` on
        hits = [[(r, row[j]) for r, row in enumerate(rows) if row[j]] for j in range(signed)]
        hits += [()] * (m - signed)

        def rec():
            """Row i's candidates in descending order, one walk over its
            columns: column j is entered with x[j:] zero and left[j] still
            to spend, and takes its values from its bound down to low[j]."""
            x, low = [0] * m, [0] * m
            left = [g[i][i]] + [0] * m
            j = 0
            while j >= 0:
                norm_left = left[j]
                # past ``signed`` the gaps stand still and every tail[j] is 0,
                # so the prune passes there as it passed at ``signed``
                for gap, tail in zip(gaps, suffix) if j <= signed else ():
                    if gap * gap > norm_left * tail[j]:
                        break
                else:
                    if norm_left and j < m:
                        reach = isqrt(norm_left)  # v * v <= norm_left
                        low[j] = 0 if j >= signed else -reach
                        v = min(reach, x[j - 1]) if tied[j] else reach
                        if v >= low[j]:
                            x[j] = v
                            for r, c in hits[j]:
                                gaps[r] -= v * c
                            left[j + 1] = norm_left - v * v
                            j += 1
                            continue
                    elif not norm_left and (j == m or not tied[j] or x[j - 1] >= 0):
                        yield tuple(x)
                # back up to the last column that can still step down
                j -= 1
                while j >= 0 and x[j] == low[j]:
                    for r, c in hits[j]:
                        gaps[r] += x[j] * c
                    x[j] = 0
                    j -= 1
                if j >= 0:
                    x[j] -= 1
                    for r, c in hits[j]:
                        gaps[r] += c
                    left[j + 1] = left[j] - x[j] * x[j]
                    j += 1

        for row in rec():
            rows.append(row)
            suffix.append(list(accumulate((v * v for v in reversed(row)), initial=0))[::-1])
            # the entries from ``signed`` on are non-increasing and nonnegative
            found = fill(
                i + 1,
                signed + sum(map(bool, row[signed:])),
                [t and row[j] == row[j - 1] for j, t in enumerate(tied)],
            )
            if found is not None:
                return found
            rows.pop()
            suffix.pop()
        return None

    return fill(0, 0, [j > 0 for j in range(m)])


def reduce_binary_form(A: SymMatrix) -> tuple[SymMatrix, IntMatrix]:
    """Gauss-reduce a positive-definite 2x2 integer matrix under GL_2(Z).

    Returns (A', E) with A = E A' E^T, E unimodular, and A' = [[a, b], [b, c]]
    the one form of A's class with 0 <= 2b <= a <= c.  Each step is a
    rotation, a unit shear or diag(1, -1), applied unchecked by ``gram``.
    """
    require_integral(A, "reduce_binary_form")
    if A.n != 2:
        raise Not2x2(f"expected a 2x2 matrix, got {A.n}x{A.n}")
    (a, b), (_, c) = A.rows
    if a <= 0 or a * c - b * b <= 0:
        raise NotPositiveDefinite("matrix is not positive-definite")

    # each step S, with its inverse: A' <- S A' S^T keeps A = E A' E^T as E <- E S^-1
    reduced, E = A, IntMatrix.identity(2)
    while True:
        (a, b), (_, c) = reduced.rows
        if a > c:
            S = S_inv = IntMatrix.rotation(2, 1)
        elif 2 * abs(b) > a:
            # shift b by the nearest multiple of a (ties toward b > 0)
            t = (2 * b + a) // (2 * a)
            if 2 * (b - t * a) == -a:
                t -= 1
            S, S_inv = IntMatrix.shear(2, {(1, 0): -t}), IntMatrix.shear(2, {(1, 0): t})
        elif b < 0:
            S = S_inv = IntMatrix.shear(2, {(1, 1): -1})
        else:
            break
        reduced = reduced.gram(S)
        E = E.matmul(S_inv)

    if not 0 <= 2 * b <= a <= c:
        raise InternalError(f"binary form [[{a}, {b}], [{b}, {c}]] is not reduced")
    return reduced, E


def reduced_gram_factor(reduced: SymMatrix, E: IntMatrix) -> GramFactor:
    """Gram factor of E A' E^T from the reduced form A' = [[a, b], [b, c]]
    and the congruence E that ``reduce_binary_form`` returns with it.

    On A' take a - |b| columns e_1, c - |b| columns e_2, and |b| columns
    (1, sgn b); pull back along E.  A' must be integral with |b| <= a, c.
    """
    require_integral(reduced, "reduced_gram_factor")
    require_int_matrix(E, "E")
    if reduced.n != 2:
        raise Not2x2(f"expected a 2x2 matrix, got {reduced.n}x{reduced.n}")
    (a, b), (_, c) = reduced.rows
    if not abs(b) <= min(a, c):
        raise KinkEqError("reduced_gram_factor needs a form with |b| <= a and |b| <= c")
    cols = (
        [(1, 0)] * (a - abs(b))
        + [(0, 1)] * (c - abs(b))
        + [(1, 1 if b > 0 else -1)] * abs(b)
    )
    Cprime = IntMatrix.from_rows(cols, cols=2).transpose()
    return GramFactor.from_matrix(E.matmul(Cprime))

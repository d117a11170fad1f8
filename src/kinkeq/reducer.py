"""Constructive reduction to definite and semidefinite representatives.

One elimination round removes a single positive eigenvalue by its kinks,
one congruence Q that makes every change of basis below, and one unkink:

1. move a primitive vector b with b^T G b > 0 into the first coordinate,
   so the corner entry k = b^T G b is positive;
2. (rational input only) integralize, at the cost of one extra negative
   kink, making the first row integral;
3. write k - 1 as a sum of at most four squares, add one negative kink per
   nonzero square, and fold them into the corner, leaving a 1;
4. clear the first row/column with the 1, rotate it to the back, and strip
   it with a positive unkink.

The reducer builds every basis change itself, so it replays none of its
moves through the checked path of ``moves``; the verifier alone checks
them.  Steps 1 and 2 are one basis C, which the public step
``integralize_first_row`` reads from G and b alone, and one unchecked
product ``G.gram(C)``.  Steps 3 and 4 come from one kernel,
``SymMatrix.unit_complement``, which splits off the round's vector u with
<u, u> = 1 and returns both the congruence Q of step 4 and the next matrix,
the form on u^perp, which equals what the moves leave.

Iterating drives the positive index to zero; positive targets run the same
machinery on -G and flip the signs of every kink and unkink in the result.
Per eliminated eigenvalue the round spends at most four negative kinks
(five for rational input) and exactly one positive unkink.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import index, mul

from .errors import (
    InternalError,
    NonpositiveCorner,
    NoPositiveEigenvalue,
    SingularForDefiniteTarget,
    SizeMismatch,
    KinkEqError,
)
from .exact import (
    IntMatrix,
    SymMatrix,
    diagonalizing_congruence,
    extend_primitive,
    inertia,
    primitive_scale,
    require_int_matrix,
    require_lift,
    require_sym_matrix,
    write_number,
)
from .moves import Congruence, Kink, Move, Trace, Unkink, count_moves

NEG_DEFINITE = "neg_definite"
POS_DEFINITE = "pos_definite"
NEG_SEMIDEFINITE = "neg_semidefinite"
POS_SEMIDEFINITE = "pos_semidefinite"
TARGETS = (NEG_DEFINITE, POS_DEFINITE, NEG_SEMIDEFINITE, POS_SEMIDEFINITE)


def four_squares(k: int) -> tuple[int, int, int, int]:
    """Write k >= 0 as a^2 + b^2 + c^2 + d^2 with a >= b >= c >= d >= 0.

    Returns the lexicographically greatest such tuple, found by descending
    search on (a, b, c); existence is classical, so the search always hits.
    While 8 | k the search runs on k / 4 and the result is doubled: squares
    are 0, 1 or 4 mod 8, so every representation of a multiple of 8 has
    four even terms, and the representations of k are exactly twice those
    of k / 4, in the same order.  The search skips every a for which
    k - a^2 has the form 4^e (8m + 7): by Legendre's three-square theorem
    no such number is a sum of three squares, so no (b, c, d) completes a.
    """
    try:
        k = index(k)
    except TypeError:
        raise KinkEqError(f"four_squares needs an integer, got {type(k).__name__}") from None
    if k < 0:
        raise KinkEqError(f"four_squares needs a nonnegative integer, got {write_number(k)}")
    scale = 1
    while k and not k % 8:
        k //= 4
        scale *= 2
    for a in range(isqrt(k), -1, -1):
        r1 = k - a * a
        low = r1 & -r1  # the largest power of 2 dividing r1 (0 for r1 = 0)
        if low.bit_length() & 1 and (r1 // low) % 8 == 7:  # low a power of 4
            continue  # r1 = 4^e (8m + 7)
        for b in range(min(a, isqrt(r1)), -1, -1):
            r2 = r1 - b * b
            for c in range(min(b, isqrt(r2)), -1, -1):
                r3 = r2 - c * c
                d = isqrt(r3)
                if d * d == r3 and d <= c:
                    return (scale * a, scale * b, scale * c, scale * d)
    raise InternalError("unreachable: every nonnegative integer is a sum of four squares")


def find_positive_vector(G: SymMatrix) -> tuple[int, ...]:
    """A primitive integer b with b^T G b > 0.

    Deterministic search order: diagonal entries, then e_i +/- e_j sweeps,
    then an exact witness read off from a congruence diagonalization
    L G L^T = D.  Any row i of L with D_ii > 0 satisfies u G u^T = D_ii > 0,
    so this stage always succeeds when the matrix has a positive
    eigenvalue, with polynomially bounded entry sizes.  The first such row,
    made primitive, is then shrunk by ``_shrink_positive_vector``, which
    never lengthens a coordinate.
    """
    require_sym_matrix(G, "find_positive_vector")
    n = G.n
    g = G.rows  # d*G with d > 0: the same signs, in integers
    for i in range(n):
        if g[i][i] > 0:
            return tuple(1 if t == i else 0 for t in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                if g[i][i] + 2 * s * g[i][j] + g[j][j] > 0:
                    return tuple(
                        1 if t == i else (s if t == j else 0) for t in range(n)
                    )
    diag, L = diagonalizing_congruence(G)
    for i, d in enumerate(diag):
        if d > 0:
            return _shrink_positive_vector(G, primitive_scale(L[i]))
    raise NoPositiveEigenvalue("matrix has no positive eigenvalue")


def _shrink_positive_vector(G: SymMatrix, b: tuple[int, ...]) -> tuple[int, ...]:
    """Shrink b along its own direction while keeping b^T G b > 0.

    The vectors with u^T G u > 0 form a cone, so b/m stays inside it for
    every m > 0, and b/m rounded to integers stays inside it while the
    rounding error is small against b/m.  A binary search on the scale m,
    from 1 (b itself) to max |b_i|, keeps the rounded b/m of the largest m
    it finds inside.  Rounding never lengthens a coordinate, so neither the
    corner entry nor anything downstream of it grows past what the
    diagonalization witness gives.
    """
    g = G.rows  # the form of d*G, d > 0, has the same signs, in integers

    def positive(u: list[int]) -> bool:
        return sum(x * sum(map(mul, row, u)) for x, row in zip(u, g) if x) > 0

    best = list(b)
    lo, hi = 1, max(map(abs, b))
    while lo < hi:
        m = (lo + hi + 1) // 2
        u = [(2 * x + m) // (2 * m) for x in b]  # b/m, rounded to nearest
        if positive(u):
            best, lo = u, m
        else:
            hi = m - 1
    return primitive_scale(best)


def integralize_first_row(G: SymMatrix, C: IntMatrix) -> tuple[IntMatrix, list[Move]]:
    """The round's basis with an integral first row, and the kinks it costs.

    C is square and unimodular, as ``extend_primitive`` builds it, with
    row 0 b and b^T G b > 0 (``NonpositiveCorner`` otherwise); its type
    and size are checked, its determinant is not.  The first row of
    C G C^T is (b G) C^T, and C^T is unimodular, so it has the gcd of b G:
    d = den / gcd(den, b dG) is the lcm of its denominators, read from G
    and b alone.  For d = 1 the basis is C and no kink is spent.
    Otherwise one kink [-1] and the basis S (C (+) [1]), S the shear with
    rows (d, 0.., 1) / identity / (d-1, 0.., 1), so the basis rows are
    (d b, 1), the other rows of C padded with 0, and ((d-1) b, 1), and the
    new corner is d^2 k - 1 for the corner k = b^T G b.  The kinks and
    then ``Congruence(basis)`` take G to ``G.gram(basis)``.
    """
    require_sym_matrix(G, "integralize_first_row")
    require_int_matrix(C, "the basis")
    n = G.n
    if C.rows != n or C.cols != n:
        raise SizeMismatch(f"the basis is {C.rows}x{C.cols}, the matrix is {n}x{n}")
    b = C.entries[0] if n else ()
    bg = [sum(map(mul, row, b)) for row in G.rows]  # b dG
    corner = sum(map(mul, bg, b))  # b dG b, the sign of b^T G b
    if corner <= 0:
        got = write_number(Fraction(corner, G.den)) if n else "0x0 matrix"
        raise NonpositiveCorner(f"top-left entry must be positive, got {got}")
    d = G.den // gcd(G.den, *bg)
    if d == 1:
        return C, []
    rows = [
        (*(d * x for x in b), 1),
        *(row + (0,) for row in C.entries[1:]),
        (*((d - 1) * x for x in b), 1),
    ]
    return IntMatrix.from_rows(rows, cols=n + 1), [Kink(-1)]


def _elimination_round(G: SymMatrix) -> tuple[SymMatrix, list[Move]]:
    """One round: n_plus drops by exactly one; at most 4 negative kinks
    (5 for rational input), one congruence Q and exactly one positive unkink.

    C has first row b, with the integralization shear S fused in as
    S (C (+) [1]) by ``integralize_first_row``, and H = ``G.gram(C)`` is
    the round's one Gram product.  With <x, y> the form after the kinks,
    u = (first row of C, the nonzero squares s of k - 1) has
    <u, u> = k - sum s^2 = 1.  ``H.unit_complement(C, squares)`` splits u
    off from one set of pairings <c, u>: it returns Q, which maps each
    other row c of C (+) I to c - <c, u> u and puts u last, and the next
    matrix, the form on u^perp.

    Nothing is replayed: the vector move and the integralization come from
    the unchecked ``gram``, the rest from ``unit_complement``, which guards
    <u, u> = 1; the verifier alone checks the moves.
    """
    b = find_positive_vector(G)
    C, moves = integralize_first_row(G, extend_primitive(b))
    H = G.gram(C)
    k = H.rows[0][0] // H.den  # the corner, whose row integralize_first_row made integral
    squares = [s for s in four_squares(k - 1) if s != 0]
    Q, after = H.unit_complement(C, squares)
    moves += [Kink(-1)] * len(squares)
    if Q.rows > 1:  # Q is the identity only for the 1x1 corner [1]
        moves.append(Congruence(Q))
    moves.append(Unkink(1))
    return after, moves


def _flip(move: Move) -> Move:
    if isinstance(move, Kink):
        return Kink(-move.sign)
    if isinstance(move, Unkink):
        return Unkink(-move.sign)
    return move


def reduce(G: SymMatrix, target: str) -> Trace:
    """Reduce G to a representative of the requested definiteness class.

    G is checked as a lift where it enters, before any round runs, and
    definite targets require it nonsingular.  The returned trace verifies,
    preserves nullity and |det|, and for negative targets uses at most
    4*n_plus(G) negative kinks (5*n_plus for non-integral G) and exactly
    n_plus(G) positive unkinks; a positive target runs the same rounds on
    -G, so its bounds are the same with every sign flipped.
    """
    require_lift(G, "reduce")
    if target not in TARGETS:
        raise KinkEqError(f"unknown target {target!r}")
    positive = target in (POS_DEFINITE, POS_SEMIDEFINITE)
    current = G.neg() if positive else G
    start_inertia = inertia(current)
    if target in (NEG_DEFINITE, POS_DEFINITE) and start_inertia.n_zero:
        raise SingularForDefiniteTarget("definite targets need a nonsingular matrix")

    moves: list[Move] = []
    for _ in range(start_inertia.n_plus):
        current, round_moves = _elimination_round(current)
        moves.extend(round_moves)

    kink_budget = (4 if G.is_integral() else 5) * start_inertia.n_plus
    stats = count_moves(moves)
    if stats.neg_kinks > kink_budget or stats.pos_unkinks != start_inertia.n_plus:
        raise InternalError(
            f"move bound violated: {stats.neg_kinks} kinks (budget {kink_budget}), "
            f"{stats.pos_unkinks} unkinks (expected {start_inertia.n_plus})"
        )
    if positive:
        moves = [_flip(m) for m in moves]
        current = current.neg()
    return Trace(G, tuple(moves), current)

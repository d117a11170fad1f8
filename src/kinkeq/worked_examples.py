"""Hand-encoded kink-equivalence chains used as verifier fixtures.

These traces are written out move by move (rather than produced by
``reduce``), ends included, so the verifier can replay them as independent
certificates: each end is the one the paper gives, not one computed here.
Permutation congruences are separate moves throughout: unkinking only ever
strips the trailing coordinate.
"""

from __future__ import annotations

from .exact import IntMatrix, SymMatrix
from .moves import Congruence, Kink, Move, Trace, Unkink

# 6x6 positive-definite matrix that is not a Gram product of any integer
# matrix, yet reduces to [[-2,-1],[-1,-2]]; |det| = 3.
OBSTRUCTED_GRAM_MATRIX = SymMatrix.from_rows(
    [
        [2, 1, 1, 1, 0, 0],
        [1, 2, 1, 1, 1, 0],
        [1, 1, 2, 1, 1, 1],
        [1, 1, 1, 2, 1, 1],
        [0, 1, 1, 1, 2, 1],
        [0, 0, 1, 1, 1, 2],
    ]
)


def _congr(rows) -> Congruence:
    return Congruence(IntMatrix.from_rows(rows))


def five_to_minus_five_trace() -> Trace:
    """[5] to [-5]: one negative kink, two congruences, one positive unkink."""
    start = SymMatrix.from_rows([[5]])
    moves: list[Move] = [
        Kink(-1),
        Congruence(IntMatrix.shear(2, {(0, 1): 2})),  # diag(5,-1) -> [[1,-2],[-2,-1]]
        _congr([[-2, -1], [-1, 0]]),                  # -> diag(-5, 1)
        Unkink(1),
    ]
    return Trace(start, tuple(moves), SymMatrix.from_rows([[-5]]))


def obstructed_matrix_reduction_trace() -> Trace:
    """The thirteen-stage chain taking OBSTRUCTED_GRAM_MATRIX down to
    [[-2,-1],[-1,-2]], with every permutation factor as its own move."""
    moves: list[Move] = []

    # stage 1: negative kink, then fold it into the corner
    moves.append(Kink(-1))
    moves.append(Congruence(IntMatrix.shear(7, {(0, 6): 1})))
    # stage 2: clear the first row/column with the corner 1, rotate, unkink
    v2 = [1, 1, 1, 0, 0, -1]
    moves.append(Congruence(IntMatrix.shear(7, {(i, 0): -x for i, x in enumerate(v2, 1)})))
    moves.append(Congruence(IntMatrix.rotation(7, 1)))
    moves.append(Unkink(1))
    # stage 3: block-clear a 3x3 identity corner, swap blocks, triple unkink
    c6 = [[1, 1, 1], [0, 1, 1], [1, 1, 1]]
    block_clear = {(3 + i, j): -c for i, row in enumerate(c6) for j, c in enumerate(row)}
    moves.append(Congruence(IntMatrix.shear(6, block_clear)))
    moves.append(Congruence(IntMatrix.rotation(6, 3)))
    moves.extend([Unkink(1), Unkink(1), Unkink(1)])
    # stage 4: shear a unit into the corner, transpose the top pair
    moves.append(Congruence(IntMatrix.shear(3, {(1, 0): -1, (2, 0): -3})))
    moves.append(_congr([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    # stage 5: clear, rotate, unkink
    v7 = [0, 1]
    moves.append(Congruence(IntMatrix.shear(3, {(i, 0): -x for i, x in enumerate(v7, 1)})))
    moves.append(Congruence(IntMatrix.rotation(3, 1)))
    moves.append(Unkink(1))
    # stage 6: swap to put 3 in the corner, add a negative kink
    moves.append(Congruence(IntMatrix.rotation(2, 1)))
    moves.append(Kink(-1))
    # stage 7: fold both negative kinks into the corner
    moves.append(Congruence(IntMatrix.shear(3, {(0, 1): 1, (0, 2): 1})))
    # stage 8: clear, rotate, final unkink
    v11 = [-1, -1]
    moves.append(Congruence(IntMatrix.shear(3, {(i, 0): -x for i, x in enumerate(v11, 1)})))
    moves.append(Congruence(IntMatrix.rotation(3, 1)))
    moves.append(Unkink(1))

    return Trace(OBSTRUCTED_GRAM_MATRIX, tuple(moves), SymMatrix.from_rows([[-2, -1], [-1, -2]]))

"""Exact linear algebra: inertia, determinant, congruence, primitivity."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinkeq import (
    Congruence,
    GramFactor,
    IntMatrix,
    Kink,
    SymMatrix,
    Unkink,
    apply_move,
    cct_search,
    congruence,
    determinant,
    extend_primitive,
    find_positive_vector,
    four_squares,
    goeritz_matrix,
    icct_trace,
    inertia,
    integralize_first_row,
    primitive_scale,
    reduce_binary_form,
    replay,
)
from kinkeq.errors import (
    BadRational,
    InternalError,
    KinkEqError,
    Not2x2,
    NotIntegerMatrix,
    NotPrimitive,
    NotUnimodular,
    SizeMismatch,
    UnkinkShapeViolation,
    ZeroVector,
)
from kinkeq.cct import reduced_gram_factor
from kinkeq.exact import Inertia, block_extension, diagonalizing_congruence, inertia_and_abs_det
from kinkeq.worked_examples import OBSTRUCTED_GRAM_MATRIX

from oracles import (
    cofactor_det,
    congruence_oracle,
    diagonalizing_congruence_oracle,
    direct_sum,
    elimination_invariants,
    inertia_oracle,
    is_unimodular,
    matmul_oracle,
    quadratic_value,
    random_banded_sym,
    random_int_matrix,
    random_sym,
    random_sym_rational,
    random_unimodular,
)

sym_entries = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


def _draw_rows(draw, n, zero_diagonal=False):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                rows[i][j] = rows[j][i] = draw(sym_entries)
    return rows


@st.composite
def sym_matrices(draw, max_n=5):
    """Integer or rational entries; some draws have an all-zero diagonal
    (the add-into pivot case) and some are singular by construction."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    shape = draw(st.sampled_from(["generic", "zero_diagonal", "singular"]))
    if shape == "singular" and n > 0:
        # [[H, Hc], [c^T H, c^T H c]] has rank at most n - 1
        m = n - 1
        H = _draw_rows(draw, m)
        c = [draw(sym_entries) for _ in range(m)]
        hc = [sum((H[i][j] * c[j] for j in range(m)), Fraction(0)) for i in range(m)]
        corner = sum((c[i] * hc[i] for i in range(m)), Fraction(0))
        return SymMatrix.from_rows([H[i] + [hc[i]] for i in range(m)] + [hc + [corner]])
    return SymMatrix.from_rows(_draw_rows(draw, n, zero_diagonal=shape == "zero_diagonal"))


class TestInertia:
    def test_diagonal(self):
        assert inertia(SymMatrix.diagonal([1, -1])) == inertia(SymMatrix.diagonal([7, -3]))
        sig = inertia(SymMatrix.diagonal([1, -1]))
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (1, 1, 0)

    def test_obstructed_matrix_is_positive_definite(self):
        sig = inertia(OBSTRUCTED_GRAM_MATRIX)
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (6, 0, 0)

    def test_leading_minor_example(self):
        sig = inertia(SymMatrix.from_rows([[5, 3], [3, 6]]))
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (2, 0, 0)

    def test_empty(self):
        sig = inertia(SymMatrix.empty())
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (0, 0, 0)

    def test_zero_diagonal_hyperbolic(self):
        sig = inertia(SymMatrix.from_rows([[0, 1], [1, 0]]))
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (1, 1, 0)

    def test_zero_matrix(self):
        sig = inertia(SymMatrix.from_rows([[0, 0], [0, 0]]))
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (0, 0, 2)

    def test_signature(self):
        assert inertia(SymMatrix.diagonal([2, 3, -1])).signature == 1

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices())
    def test_agrees_with_charpoly_oracle(self, G):
        sig = inertia(G)
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == inertia_oracle(G)


class TestInertiaAndAbsDet:
    """The verifier's audit: both values from one elimination."""

    def test_examples(self):
        assert inertia_and_abs_det(SymMatrix.diagonal([5, -1])) == (Inertia(1, 1, 0), 5)
        assert inertia_and_abs_det(SymMatrix.from_rows([[0, 1], [1, 0]])) == (Inertia(1, 1, 0), 1)
        assert inertia_and_abs_det(SymMatrix.from_rows([[1, 1], [1, 1]])) == (Inertia(1, 0, 1), 0)
        assert inertia_and_abs_det(SymMatrix.empty()) == (Inertia(0, 0, 0), 1)

    @settings(max_examples=100, deadline=None)
    @given(sym_matrices())
    def test_agrees_with_inertia_and_determinant(self, G):
        assert inertia_and_abs_det(G) == (inertia(G), abs(determinant(G)))
        assert inertia_and_abs_det(G)[1] == abs(cofactor_det([list(r) for r in G.entries]))


class TestBlockExtension:
    """Whether outer is inner (+) [s], read from the entries alone."""

    G = SymMatrix.from_rows([[2, 1], [1, Fraction(1, 3)]])

    @staticmethod
    def _edit(M, i, j, v):
        rows = [list(row) for row in M.rows]
        rows[i][j] = v
        return SymMatrix(M.den, tuple(map(tuple, rows)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_reads_the_sign(self, sign):
        assert block_extension(self.G, self.G.block_sum(sign)) == sign
        assert block_extension(SymMatrix.empty(), SymMatrix.diagonal([sign])) == sign
        # the other way round, or at the same size, is no extension
        assert block_extension(self.G.block_sum(sign), self.G) is None
        assert block_extension(self.G, self.G) is None
        assert block_extension(SymMatrix.empty(), SymMatrix.diagonal([2 * sign])) is None

    @pytest.mark.parametrize(
        "outer",
        [
            _edit(G.block_sum(1), 0, 1, 4),  # a shared entry (asymmetric)
            SymMatrix(6, G.block_sum(1).rows),  # another den
            SymMatrix(6, tuple(tuple(2 * x for x in row) for row in G.block_sum(1).rows)),
            _edit(G.block_sum(1), 2, 0, 3),  # the new row
            _edit(G.block_sum(1), 0, 2, 3),  # the new column
            _edit(G.block_sum(1), 2, 2, 6),  # a block [2]
            SymMatrix.diagonal([2, 1, 1]),
        ],
        ids=["shared", "den", "den-not-least", "row", "column", "block-2", "other"],
    )
    def test_refuses_any_other_entry(self, outer):
        assert block_extension(self.G, outer) is None

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices(), st.sampled_from([1, -1]))
    def test_the_block_sum_rule(self, G, sign):
        # the audit a kink earns by the rule is the one a full elimination gives
        signs, abs_det = inertia_and_abs_det(G)
        plus, minus = (1, 0) if sign > 0 else (0, 1)
        expected = Inertia(signs.n_plus + plus, signs.n_minus + minus, signs.n_zero), abs_det
        assert block_extension(G, G.block_sum(sign)) == sign
        assert inertia_and_abs_det(G.block_sum(sign)) == expected


class TestDeterminant:
    def test_diagonal(self):
        assert determinant(SymMatrix.diagonal([5, -1])) == -5

    def test_2x2(self):
        assert determinant(SymMatrix.from_rows([[5, 3], [3, 6]])) == 21

    def test_3x3(self):
        G = SymMatrix.from_rows([[2, -1, 0], [-1, 4, -1], [0, -1, 3]])
        assert determinant(G) == 19

    def test_empty_is_one(self):
        assert determinant(SymMatrix.empty()) == 1

    def test_rational(self):
        G = SymMatrix.from_rows([[Fraction(1, 2), 1], [1, Fraction(2, 3)]])
        assert determinant(G) == Fraction(1, 3) - 1

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices())
    def test_agrees_with_cofactor_oracle(self, G):
        assert determinant(G) == cofactor_det([list(r) for r in G.entries])


class TestCongruence:
    def test_shear_example(self):
        G = SymMatrix.diagonal([5, -1])
        P = IntMatrix.from_rows([[1, 2], [0, 1]])
        assert congruence(G, P) == SymMatrix.from_rows([[1, -2], [-2, -1]])

    def test_identity(self):
        G = SymMatrix.from_rows([[5, 3], [3, 6]])
        assert congruence(G, IntMatrix.identity(2)) == G

    def test_swap(self):
        P = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert congruence(SymMatrix.diagonal([1, -1]), P) == SymMatrix.diagonal([-1, 1])

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            congruence(SymMatrix.diagonal([1, 1]), IntMatrix.from_rows([[2, 0], [0, 1]]))
        with pytest.raises(NotUnimodular, match=r"^det\(P\) = 0$"):
            congruence(SymMatrix.diagonal([1, 1]), IntMatrix.from_rows([[0, 1], [0, 1]]))

    def test_rejects_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            congruence(SymMatrix.diagonal([1, 1]), IntMatrix.identity(3))

    @pytest.mark.parametrize(
        "entry", ["x", Fraction(1), True, 1.0], ids=["str", "fraction", "bool", "float"]
    )
    def test_rejects_entries_that_are_not_int(self, entry):
        # the raw constructor checks the shape only; the checked move reads the entries
        P = IntMatrix(2, 2, ((1, 0), (0, entry)))
        with pytest.raises(NotIntegerMatrix, match="the entries of P are not all int"):
            congruence(SymMatrix.diagonal([1, 1]), P)

    def test_non_unimodular_message_is_the_cofactor_det(self):
        # sparse square P with zero pivots: rows are swapped in stale
        rng = random.Random("sparse-det")
        G = SymMatrix.diagonal([1] * 7)
        for _ in range(200):
            dense = random_int_matrix(rng, 7, 7).entries
            rows = [[x if rng.random() < 0.3 else 0 for x in row] for row in dense]
            det = cofactor_det(rows)
            if det in (1, -1):
                continue
            with pytest.raises(NotUnimodular, match=rf"^det\(P\) = {det}$"):
                congruence(G, IntMatrix.from_rows(rows))

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_triple_product_oracle(self, G, seed):
        rng = random.Random(seed)
        steps = rng.choice([0, 2, 8, 24])  # identity, sparse shears, dense
        P = random_unimodular(rng, G.n, steps) if G.n else IntMatrix.identity(0)
        assert congruence(G, P) == congruence_oracle(G, P)

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_sylvester_and_det_invariance(self, G, seed):
        if G.n == 0:
            return
        P = random_unimodular(random.Random(seed), G.n)
        H = congruence(G, P)
        assert inertia(H) == inertia(G)
        assert abs(determinant(H)) == abs(determinant(G))


class TestGram:
    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_equals_the_kinks_and_the_congruence(self, m, rational):
        # for unimodular P, m kinks [-1] and then Congruence(P), replayed
        rng = random.Random(f"gram-{m}-{rational}")
        for n in [0, 1, 2, 3, 4, 5] * 5:
            G = random_sym_rational(rng, n, 6, 4) if rational else random_sym(rng, n, 6)
            steps = rng.choice([0, 2, 8, 24])
            P = random_unimodular(rng, n + m, steps) if n + m else IntMatrix.identity(0)
            assert G.gram(P) == replay(G, [Kink(-1)] * m + [Congruence(P)])

    def test_any_rows_give_their_gram_matrix(self):
        # three rows under diag(1/2, 1/3), and a P that doubles every entry:
        # the den is made least again
        G = SymMatrix.diagonal([Fraction(1, 2), Fraction(1, 3)])
        P = IntMatrix.from_rows([[1, 0], [1, 1], [0, 3]])
        assert G.gram(P) == SymMatrix.from_rows(
            [
                [Fraction(1, 2), Fraction(1, 2), 0],
                [Fraction(1, 2), Fraction(5, 6), 1],
                [0, 1, 3],
            ]
        )
        doubled = SymMatrix.from_rows([[Fraction(1, 2)]]).gram(IntMatrix.from_rows([[2]]))
        assert doubled == SymMatrix.from_rows([[2]]) and doubled.den == 1


class TestRepresentation:
    """Every construction keeps den least: den > 0 and gcd(den, rows) = 1."""

    @staticmethod
    def random_shears_and_rotations(rng, n):
        P = IntMatrix.identity(n)
        for _ in range(rng.randint(0, 6) if n > 1 else 0):
            if rng.random() < 0.3:
                step = IntMatrix.rotation(n, rng.randrange(n))
            else:
                i, j = rng.sample(range(n), 2)
                step = IntMatrix.shear(n, {(i, j): rng.randint(-3, 3)})
            P = step.matmul(P)
        return P

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_least_denominator(self, G, seed):
        P = self.random_shears_and_rotations(random.Random(seed), G.n)
        derived = [G, congruence(G, P), G.neg()]
        for s in (1, -1):
            derived += [G.block_sum(s), apply_move(G.block_sum(s), Unkink(s))]
        for X in derived:
            assert X.den > 0
            assert gcd(X.den, *(x for row in X.rows for x in row)) == 1
            assert SymMatrix.from_rows(X.entries) == X
        assert derived[-1] == G


class TestBuilders:
    def test_shear(self):
        assert IntMatrix.shear(3, {(0, 2): 4, (1, 0): -1}) == IntMatrix.from_rows(
            [[1, 0, 4], [-1, 1, 0], [0, 0, 1]]
        )
        assert IntMatrix.shear(2, {}) == IntMatrix.identity(2)
        assert IntMatrix.shear(0, {}) == IntMatrix.from_rows([], cols=0)

    def test_rotation(self):
        assert IntMatrix.rotation(3, 1) == IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert IntMatrix.rotation(4, 0) == IntMatrix.identity(4)
        assert IntMatrix.rotation(0, 0) == IntMatrix.identity(0)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: IntMatrix.shear(2, {(5, 5): 1}), SizeMismatch),
            (lambda: IntMatrix.shear(-1, {(0, 0): 1}), SizeMismatch),
            (lambda: IntMatrix.shear(2, {(10**5000, 0): 1}), SizeMismatch),
            (lambda: IntMatrix.shear(2, {(-1, 0): 3}), SizeMismatch),
            (lambda: IntMatrix.shear(2, {(0.5, 0): 1}), NotIntegerMatrix),
            (lambda: IntMatrix.identity(2.0), NotIntegerMatrix),
            (lambda: IntMatrix.rotation(3, 1.5), NotIntegerMatrix),
        ],
        ids=["past-end", "negative-size", "long-index", "negative-index", "float-index",
             "float-size", "float-shift"],
    )
    def test_refuses_what_is_not_an_index(self, call, error):
        # the numbers are written with write_number, so no ValueError escapes
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("n, k", [(1, 1), (3, 1), (5, 2), (6, 3)])
    def test_rotation_moves_leading_coordinates_last(self, n, k):
        G = SymMatrix.diagonal(list(range(1, n + 1)))
        values = list(range(1, n + 1))
        assert congruence(G, IntMatrix.rotation(n, k)) == SymMatrix.diagonal(values[k:] + values[:k])


def _unit_corner(rng, n, t, rational):
    """A seeded H with an integral first row and corner 1 + sum s^2, and
    the t nonzero squares s."""
    squares = [rng.randint(1, 9) for _ in range(t)]
    G = random_sym_rational(rng, n, 6, 5) if rational else random_sym(rng, n, 6)
    rows = [list(row) for row in G.entries]
    for j in range(1, n):
        rows[0][j] = rows[j][0] = rng.randint(-6, 6)
    rows[0][0] = 1 + sum(s * s for s in squares)
    return SymMatrix.from_rows(rows), squares


def _unit_complement_by_moves(H, squares):
    """The hand-built Q for the identity basis, the congruence R with rows
    e_j - x_j u (j >= 1) and then u, and the form on u^perp by the moves:
    t kinks [-1], R and the unkink [1]."""
    n, t = H.n, len(squares)
    m = n + t
    u = [1] + [0] * (n - 1) + list(squares)
    x = [int(H[0, j]) for j in range(n)] + [-s for s in squares]
    R = [[int(i == j) - x[i] * u[j] for j in range(m)] for i in range(1, m)] + [u]
    R = IntMatrix.from_rows(R, cols=m)
    return R, replay(H, [Kink(-1)] * t + [Congruence(R), Unkink(1)])


def _round_basis(G):
    """H, the fused basis and the integralization kinks of an elimination
    round on G, built as the round builds them; H is checked against the
    replay of the vector move, the kinks and the basis's own congruence."""
    C = extend_primitive(find_positive_vector(G))
    basis, kinks = integralize_first_row(G, C)
    H = G.gram(basis)
    assert H == replay(G, [*kinks, Congruence(basis)])
    assert all(x % H.den == 0 for x in H.rows[0])
    return H, basis, kinks


class TestUnitComplement:
    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    @pytest.mark.parametrize("t", range(5))
    def test_equals_the_moves(self, t, rational):
        rng = random.Random(100 * t + rational)
        for n in [1, 2, 3, 4, 5] * 4:
            H, squares = _unit_corner(rng, n, t, rational)
            Q, out = H.unit_complement(IntMatrix.identity(n), squares)
            assert (Q, out) == _unit_complement_by_moves(H, squares)
            assert out.n == n - 1 + t and out.den == H.den

    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    def test_on_the_reducers_corners(self, rational):
        # H and the squares built as an elimination round builds them
        rng = random.Random(7 + rational)
        for _ in range(30):
            n = rng.randint(1, 5)
            G = random_sym_rational(rng, n, 6, 4) if rational else random_sym(rng, n, 6)
            if inertia(G).n_plus == 0:
                continue
            H, _, _ = _round_basis(G)
            squares = [s for s in four_squares(int(H[0, 0]) - 1) if s]
            out = H.unit_complement(IntMatrix.identity(H.n), squares)
            assert out == _unit_complement_by_moves(H, squares)

    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    def test_q_from_the_rounds_basis(self, rational):
        # the basis part of Q, which an identity basis cannot show, checked
        # by replaying the round's moves on G itself
        rng = random.Random(11 + rational)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 3 if rational else 5)
            G = random_sym_rational(rng, n, 6, 4) if rational else random_sym(rng, n, 6)
            if inertia(G).n_plus == 0:
                continue
            H, basis, kinks = _round_basis(G)
            squares = [s for s in four_squares(int(H[0, 0]) - 1) if s]
            Q, out = H.unit_complement(basis, squares)
            moves = kinks + [Kink(-1)] * len(squares) + [Congruence(Q), Unkink(1)]
            assert replay(G, moves) == out
            checked += 1

    def test_unit_corner_leaves_the_empty_matrix(self):
        one = IntMatrix.identity(1)
        assert SymMatrix.from_rows([[1]]).unit_complement(one, []) == (one, SymMatrix.empty())

    @pytest.mark.parametrize(
        "H, squares",
        [
            (SymMatrix.from_rows([[Fraction(3, 2), 0], [0, 1]]), []),
            (SymMatrix.from_rows([[2, Fraction(1, 2)], [Fraction(1, 2), 1]]), [1]),
            (SymMatrix.from_rows([[Fraction(1, 10**5000)]]), []),
            (SymMatrix.from_rows([[3]]), [1]),
            (SymMatrix.from_rows([[5, 1], [1, 0]]), [1, 1]),
            (SymMatrix.from_rows([[10**5000]]), []),
            (SymMatrix.from_rows([[10**5000 + 2]]), [10**2500]),
            (SymMatrix.empty(), []),
        ],
        ids=[
            "corner", "off-diagonal", "long-den", "norm", "norm-2x2", "long", "long-square",
            "empty",
        ],
    )
    def test_refuses_what_is_not_a_unit_corner(self, H, squares):
        # the numbers are written with write_number, so no ValueError escapes
        with pytest.raises(InternalError):
            H.unit_complement(IntMatrix.identity(H.n), squares)

    @pytest.mark.parametrize(
        "basis",
        [
            IntMatrix.identity(1),
            IntMatrix.identity(3),
            IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]),
        ],
        ids=["smaller", "larger", "not-square"],
    )
    def test_refuses_a_basis_of_another_size(self, basis):
        with pytest.raises(SizeMismatch):
            SymMatrix.from_rows([[2, 0], [0, -1]]).unit_complement(basis, [1])


class TestSymMatrixEntries:
    BAD = [1.0, float("nan"), None, "1_0", "3"]
    IDS = ["float", "nan", "none", "underscore-str", "str"]

    @pytest.mark.parametrize("entry", BAD, ids=IDS)
    def test_from_rows_accepts_only_int_and_fraction(self, entry):
        with pytest.raises(BadRational):
            SymMatrix.from_rows([[1, entry], [entry, 1]])

    @pytest.mark.parametrize("entry", BAD, ids=IDS)
    def test_block_sum_accepts_only_int_and_fraction(self, entry):
        with pytest.raises(BadRational):
            SymMatrix.empty().block_sum(entry)

    def test_block_sum_of_fraction(self):
        # a kink adds only the block [+1] or [-1], so a Fraction is refused
        with pytest.raises(BadRational):
            SymMatrix.from_rows([[2]]).block_sum(Fraction(-1, 3))

    @pytest.mark.parametrize("sign", [0, 2, -7 * 10**4999], ids=["zero", "two", "long"])
    def test_block_sum_refuses_other_ints(self, sign):
        # the message names no value, so no int is converted to text
        with pytest.raises(BadRational, match=r"^a kink block is the int \+1 or -1$"):
            SymMatrix.from_rows([[2]]).block_sum(sign)

    @pytest.mark.parametrize(
        "sign", [7 * 10**5000, 1.0, Fraction(1)], ids=["long", "float", "fraction"]
    )
    def test_strip_block_refuses_what_block_sum_refuses(self, sign):
        # the message names no value, so no int is converted to text
        with pytest.raises(UnkinkShapeViolation, match=r"^an unkink block is the int \+1 or -1$"):
            SymMatrix.from_rows([[1]]).strip_block(sign)

    def test_strip_block_accepts_bool(self):
        # bool is an int, as in ``Unkink``
        assert SymMatrix.from_rows([[2, 0], [0, 1]]).strip_block(True) == SymMatrix.from_rows([[2]])


class TestFromRowsIntegerPath:
    """All-``int`` rows skip the rational lift; one ``Fraction`` entry sends
    the same rows down the general path, which must agree."""

    @staticmethod
    def int_rows(rng, n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-(2**70), 2**70) >> rng.randrange(71)
        return rows

    @pytest.mark.parametrize("n", range(9))
    def test_equals_general_path(self, n):
        rng = random.Random(n)
        for _ in range(20):
            rows = self.int_rows(rng, n)
            G = SymMatrix.from_rows(rows)
            assert G.den == 1
            assert all(type(x) is int for row in G.rows for x in row)
            assert SymMatrix.from_rows(tuple(row) for row in rows) == G
            if n:
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] = Fraction(rows[i][j])
                H = SymMatrix.from_rows(rows)
                assert (H.den, H.rows) == (G.den, G.rows)

    def test_bool_entries_are_stored_as_int(self):
        for rows, lift in [([[True]], ((1,),)), ([[False, True], [1, 2]], ((0, 1), (1, 2)))]:
            G = SymMatrix.from_rows(rows)
            assert (G.den, G.rows) == (1, lift)
            assert all(type(x) is int for row in G.rows for x in row)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 2]], "matrix is not square"),
            ([[1], [2, 3]], "matrix is not square"),
            ([[1, 2], [3, 4]], "entries (1,0) and (0,1) differ"),
            ([[1, 0, 5], [0, 1, 0], [6, 0, 1]], "entries (2,0) and (0,2) differ"),
            ([[1, 0, 0], [0, 1, 7], [0, 8, 1]], "entries (2,1) and (1,2) differ"),
        ],
    )
    def test_refusals_match_general_path(self, rows, message):
        general = [list(row) for row in rows]
        general[0][0] = Fraction(general[0][0])
        for given_rows in (rows, general):
            with pytest.raises(SizeMismatch) as exc:
                SymMatrix.from_rows(given_rows)
            assert str(exc.value) == message


class TestIntMatrixFromRows:
    @pytest.mark.parametrize("entry", [Fraction(1, 2), 2.7, "3"], ids=["fraction", "float", "str"])
    def test_rejects_non_integer_entries(self, entry):
        with pytest.raises(NotIntegerMatrix):
            IntMatrix.from_rows([[1, entry]])

    def test_rejects_disagreeing_cols(self):
        with pytest.raises(SizeMismatch):
            IntMatrix.from_rows([[1, 2]], cols=3)

    def test_rejects_ragged_rows(self):
        with pytest.raises(SizeMismatch, match="not `rows` rows of `cols` entries"):
            IntMatrix.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize(
        "rows, cols, entries",
        [
            (4, 4, ((1, 1, 1, 2),)),
            (1, 4, ((1, 1, 1),)),
            (2, 2, ((1, 0), (0,))),
            (1, 1, ((1,), (2,))),
            (0, 3, ((1, 2, 3),)),
            (1, 1, None),
            (1, 1, (5,)),
        ],
        ids=["rows", "cols", "ragged", "extra_row", "no_rows", "none", "not_rows"],
    )
    def test_constructor_checks_the_shape(self, rows, cols, entries):
        # the first is the P of a false trace from [3] to [-3]: a 1x4 row
        # that claimed to be 4x4 passed the size check of congruence
        with pytest.raises(SizeMismatch, match="not `rows` rows of `cols` entries"):
            IntMatrix(rows, cols, entries)

    def test_constructor_takes_every_shape(self):
        assert IntMatrix(0, 0, ()) == IntMatrix.identity(0)
        assert IntMatrix(2, 0, ((), ())) == IntMatrix.from_rows([[], []], cols=0)
        assert IntMatrix(1, 2, ((1, 2),)).transpose() == IntMatrix(2, 1, ((1,), (2,)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: IntMatrix.from_rows([], cols=-2),
            lambda: IntMatrix.identity(-3),
            lambda: IntMatrix.shear(-1, {}),
            lambda: IntMatrix.from_rows([], cols=-(10**5000)),
        ],
        ids=["from_rows", "identity", "shear", "long"],
    )
    def test_refuses_negative_sizes(self, call):
        with pytest.raises(SizeMismatch):
            call()

    def test_matmul_rejects_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            IntMatrix.identity(2).matmul(IntMatrix.identity(3))


class TestReaders:
    """Sizes and indices, integer rows and rational rows each have one
    reader in ``exact``; what it refuses is refused by every constructor
    and builder that reads through it."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: IntMatrix.from_rows([], cols=2.5), NotIntegerMatrix),
            (lambda: IntMatrix.from_rows([], cols="2"), NotIntegerMatrix),
            (lambda: IntMatrix.from_rows([[1, 2]], cols=2.0), NotIntegerMatrix),
            (lambda: IntMatrix.from_rows(None), NotIntegerMatrix),
            (lambda: IntMatrix.from_rows([1, 2]), NotIntegerMatrix),
            (lambda: IntMatrix.shear(2, {5: 1}), SizeMismatch),
            (lambda: IntMatrix.shear(2, {(0, 1, 2): 1}), SizeMismatch),
            (lambda: IntMatrix.shear(2, {(0,): 1}), SizeMismatch),
            (lambda: IntMatrix.shear(2, {(0, 1): 0.5}), NotIntegerMatrix),
            (lambda: SymMatrix.from_rows(None), BadRational),
            (lambda: SymMatrix.from_rows([1, 2]), BadRational),
            (lambda: SymMatrix.diagonal(5), BadRational),
            (lambda: SymMatrix.diagonal([1, 0.5]), BadRational),
            (lambda: primitive_scale(None), BadRational),
            (lambda: primitive_scale(5), BadRational),
            (lambda: extend_primitive(None), NotIntegerMatrix),
            (lambda: SymMatrix.from_rows([[2]]).unit_complement(
                IntMatrix.identity(1), [Fraction(1)]), NotIntegerMatrix),
            (lambda: SymMatrix.from_rows([[2]]).unit_complement(
                IntMatrix.identity(1), ["1"]), NotIntegerMatrix),
            (lambda: SymMatrix.from_rows([[2]]).unit_complement(
                IntMatrix.identity(1), 1), NotIntegerMatrix),
        ],
        ids=[
            "float-cols", "str-cols", "float-cols-matching", "none-rows", "int-rows",
            "int-key", "triple-key", "single-key", "float-value", "sym-none", "sym-int-rows",
            "diagonal-int", "diagonal-float", "scale-none", "scale-int",
            "extend-none", "fraction-square", "str-square", "int-squares",
        ],
    )
    def test_refusals_are_library_errors(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: congruence(SymMatrix.from_rows([[1]]), [[1]]), NotIntegerMatrix),
            (lambda: IntMatrix.from_rows([[1]]).matmul([[1]]), NotIntegerMatrix),
            (lambda: SymMatrix.from_rows([[2]]).unit_complement(None, [1]), NotIntegerMatrix),
            (lambda: IntMatrix.shear(2, None), NotIntegerMatrix),
            (lambda: SymMatrix.from_rows([[1]]).gram([[1]]), NotIntegerMatrix),
            (lambda: SymMatrix.diagonal([1, 2]).gram(IntMatrix.identity(1)), SizeMismatch),
            (lambda: icct_trace(None), NotIntegerMatrix),
            (lambda: icct_trace([[1]]), NotIntegerMatrix),
            (lambda: GramFactor.from_matrix(None), NotIntegerMatrix),
            (lambda: GramFactor(None).gram(), NotIntegerMatrix),
            (lambda: reduced_gram_factor(SymMatrix.from_rows([[1, 0], [0, 1]]), None),
             NotIntegerMatrix),
            (lambda: reduced_gram_factor(None, IntMatrix.identity(2)), KinkEqError),
            (lambda: reduced_gram_factor(SymMatrix.from_rows([[1]]), IntMatrix.identity(2)),
             Not2x2),
            (lambda: reduced_gram_factor(SymMatrix.diagonal([Fraction(1, 2), 1]),
                                         IntMatrix.identity(2)), NotIntegerMatrix),
            (lambda: reduced_gram_factor(SymMatrix.diagonal([-1, -1]), IntMatrix.identity(2)),
             KinkEqError),
            (lambda: reduced_gram_factor(SymMatrix.from_rows([[2, 3], [3, 5]]),
                                         IntMatrix.identity(2)), KinkEqError),
        ],
        ids=[
            "congruence", "matmul", "unit_complement", "shear", "gram-list", "gram-narrow",
            "icct-none", "icct-list", "from_matrix", "gram-factor-none",
            "reduced-E-none",
            "reduced-none", "reduced-1x1", "reduced-rational", "reduced-negative",
            "reduced-unreduced",
        ],
    )
    def test_kernels_check_their_arguments(self, call, error):
        with pytest.raises(error):
            call()

    def test_accepted_values_keep_their_results(self):
        # an index pair is any iterable of two indices, a row any iterable
        assert IntMatrix.shear(2, {(True, 0): 3}) == IntMatrix.from_rows([[1, 0], [3, 1]])
        assert IntMatrix.shear(2, {b"\x00\x01": 3}) == IntMatrix.from_rows([[1, 3], [0, 1]])
        assert IntMatrix.from_rows([], cols=True) == IntMatrix.from_rows([], cols=1)
        assert IntMatrix.from_rows(iter([range(2)])) == IntMatrix.from_rows([[0, 1]])
        assert SymMatrix.diagonal([1, Fraction(1, 2)]) == SymMatrix.from_rows(
            [[1, 0], [0, Fraction(1, 2)]]
        )
        assert SymMatrix.diagonal(()) == SymMatrix.empty()
        H = SymMatrix.from_rows([[5, 1], [1, 0]])
        Q, after = H.unit_complement(IntMatrix.identity(2), (True, 1, 1, 1))
        assert (Q, after) == H.unit_complement(IntMatrix.identity(2), [1, 1, 1, 1])
        # the squares are read as ints, so no bool reaches Q
        assert all(type(x) is int for row in Q.entries for x in row)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(-99, 99), st.fractions(-9, 9, max_denominator=12)),
            min_size=1,
            max_size=6,
        )
    )
    def test_primitive_scale_is_the_fraction_scale(self, u):
        # the lift of u equals the old Fraction path: int(x * lcm of the denominators)
        if not any(u):
            return
        d = lcm(*(Fraction(x).denominator for x in u))
        ints = [int(Fraction(x) * d) for x in u]
        assert primitive_scale(u) == tuple(x // gcd(*ints) for x in ints)


class TestMatmul:
    """The one row product against dense dot products."""

    @pytest.mark.parametrize(
        "n, k, m", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (4, 7, 3), (5, 2, 6)]
    )
    def test_matmul_agrees_with_dense_oracle(self, n, k, m):
        rng = random.Random(f"matmul-{n}-{k}-{m}")
        for _ in range(30):
            A = random_int_matrix(rng, n, k)
            # zero rows and sparse rows of the left factor are skipped
            rows = [[x if rng.random() < 0.5 else 0 for x in row] for row in A.entries]
            if rows:
                rows[rng.randrange(n)] = [0] * k
            for left in (A, IntMatrix.from_rows(rows, cols=k)):
                B = random_int_matrix(rng, k, m)
                product = left.matmul(B)
                assert (product.rows, product.cols) == (n, m)
                assert product.entries == matmul_oracle(left, B)

    @pytest.mark.parametrize("n, m", [(1, 4), (3, 9), (5, 12), (6, 0)])
    def test_matmul_gram_shapes(self, n, m):
        # C C^T and C^T C, the products that the Gram-factor code takes
        rng = random.Random(f"gram-{n}-{m}")
        for _ in range(30):
            C = random_int_matrix(rng, n, m, bound=2)
            for left, right in ((C, C.transpose()), (C.transpose(), C)):
                assert left.matmul(right).entries == matmul_oracle(left, right)


    @pytest.mark.parametrize(
        "call",
        [
            lambda: IntMatrix(1, 1, (("x",),)).matmul(IntMatrix.identity(1)),
            lambda: IntMatrix.identity(1).matmul(IntMatrix(1, 1, ((True,),))),
            lambda: SymMatrix.from_rows([[1]]).gram(IntMatrix(1, 1, ((2.5,),))),
            lambda: SymMatrix.from_rows([[2]]).unit_complement(IntMatrix(1, 1, ((1.0,),)), [1]),
            lambda: GramFactor.from_matrix(IntMatrix(1, 2, ((1, "a"),))),
            lambda: GramFactor(IntMatrix(1, 1, ((Fraction(1),),))),
        ],
        ids=["matmul-left", "matmul-right", "gram", "unit-complement", "from-matrix", "factor"],
    )
    def test_kernels_refuse_entries_that_are_not_int(self, call):
        # the raw constructor checks the shape only; every kernel reads the entries
        with pytest.raises(NotIntegerMatrix, match="are not all int$"):
            call()

class TestUnimodularity:
    def test_examples(self):
        assert is_unimodular(IntMatrix.from_rows([[2, 1], [3, 2]]))
        assert not is_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))
        assert is_unimodular(IntMatrix.from_rows([], cols=0))
        assert not is_unimodular(IntMatrix.from_rows([[1, 0]], cols=2))
        assert not is_unimodular(IntMatrix.from_rows([[0, 1], [0, 1]]))


class TestExtendPrimitive:
    def test_standard_basis_vector(self):
        assert extend_primitive((1, 0, 0)) == IntMatrix.identity(3)

    @pytest.mark.parametrize(
        "b", [(2, 3), (6, 10, 15), (-3, 5), (0, 0, 1), (1,), (-1,), (-1, 0, 0)]
    )
    def test_postconditions(self, b):
        P = extend_primitive(b)
        assert is_unimodular(P)
        assert P.entries[0] == tuple(b)

    def test_rejects_imprimitive(self):
        with pytest.raises(NotPrimitive):
            extend_primitive((2, 4))

    def test_rejects_zero(self):
        with pytest.raises(ZeroVector):
            extend_primitive((0, 0))

    @pytest.mark.parametrize("b", [(Fraction(1, 2), 1), (Fraction(1), 0), (1.0, 0), ("1", 0)])
    def test_rejects_non_integers(self, b):
        with pytest.raises(NotIntegerMatrix):
            extend_primitive(b)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6))
    def test_random_primitive_vectors(self, b):
        from math import gcd

        g = 0
        for x in b:
            g = gcd(g, x)
        if g != 1:
            return
        P = extend_primitive(b)
        assert is_unimodular(P)
        assert P.entries[0] == tuple(b)


class TestPrimitiveScale:
    def test_examples(self):
        assert primitive_scale((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
        assert primitive_scale((2, 4)) == (1, 2)
        assert primitive_scale((0, Fraction(-5, 3))) == (0, -1)
        assert primitive_scale((True, 2)) == (1, 2)  # a bool is an int

    def test_rejects_zero(self):
        with pytest.raises(ZeroVector):
            primitive_scale((0, 0))

    @pytest.mark.parametrize(
        "u", [(0.5, 0.25), ("1/2", "1/3"), (float("nan"),)], ids=["float", "str", "nan"]
    )
    def test_takes_only_numbers(self, u):
        with pytest.raises(BadRational):
            primitive_scale(u)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            min_size=1,
            max_size=6,
        )
    )
    def test_primitive_positive_multiple(self, u):
        from math import gcd

        if all(x == 0 for x in u):
            return
        b = primitive_scale(u)
        g = 0
        for x in b:
            g = gcd(g, x)
        assert g == 1
        # b is a positive multiple of u: cross-ratios agree with matching signs
        nonzero = next(i for i, x in enumerate(u) if x != 0)
        scale = Fraction(b[nonzero]) / u[nonzero]
        assert scale > 0
        assert all(Fraction(x) * scale == y for x, y in zip(u, b))


class TestDiagonalization:
    def test_add_into_pivot_swapped_in(self):
        # trailing diagonal all zero at p = 0; the first nonzero off-diagonal
        # entry is (1, 2), so row/column 2 is added into 1, which is swapped in
        G = SymMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert inertia(G) == Inertia(1, 1, 1)
        assert determinant(G) == 0
        assert diagonalizing_congruence(G) == diagonalizing_congruence_oracle(G)

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices())
    def test_rows_are_sign_witnesses(self, G):
        diag, L = diagonalizing_congruence(G)
        assert (diag, L) == diagonalizing_congruence_oracle(G)
        for i, d in enumerate(diag):
            assert quadratic_value(G, L[i]) == d
        sig = inertia(G)
        assert sum(1 for d in diag if d > 0) == sig.n_plus
        assert sum(1 for d in diag if d < 0) == sig.n_minus


def _zero_diagonal(rng, n):
    # but for two entries in the second half: a pivot is swapped in from
    # past the band (the envelopes widen), later ones from stale rows
    rows = random_banded_sym(rng, n, rng.randint(1, 4), diagonal=False)
    for i in rng.sample(range(n // 2, n), 2):
        rows[i][i] = rng.choice((-1, 1)) * rng.randint(2, 5)
    return rows


def _trailing_zero_diagonal(rng, n):
    # the second block is not touched while the first is eliminated, so its
    # rows are stale when its all-zero diagonal forces an add-into
    k = rng.randint(2, n // 2)
    return direct_sum(random_banded_sym(rng, n - k, 2, True), random_banded_sym(rng, k, 2, False))


def _bubbling_zero_row(rng, n):
    # a zero row and column first: each pivot swaps it further down, never updated
    return direct_sum([[0]], random_banded_sym(rng, n - 1, 3, True))


def _early_stop(rng, n):
    # [[A, AC], [C^T A, C^T A C]] has rank at most m < n: the last rows
    # end zero, some of them stale since an earlier pivot
    m = rng.randint(n // 2, n - 2)
    A = random_banded_sym(rng, m, 2, True)
    k = n - m
    C = [
        [rng.randint(-1, 1) if i >= m - 4 and rng.random() < 0.5 else 0 for _ in range(k)]
        for i in range(m)
    ]
    AC = [[sum(A[i][t] * C[t][j] for t in range(m)) for j in range(k)] for i in range(m)]
    CtAC = [[sum(C[t][i] * AC[t][j] for t in range(m)) for j in range(k)] for i in range(k)]
    CtA = [[AC[t][i] for t in range(m)] for i in range(k)]
    return [A[i] + AC[i] for i in range(m)] + [CtA[i] + CtAC[i] for i in range(k)]


def _rational(rng, n):
    # the elimination runs on the lift 6G
    return [[Fraction(x, 6) for x in row] for row in _zero_diagonal(rng, n)]


SPARSE_KINDS = {
    "zero_diagonal": _zero_diagonal,
    "trailing_zero_diagonal": _trailing_zero_diagonal,
    "bubbling_zero_row": _bubbling_zero_row,
    "early_stop": _early_stop,
    "rational": _rational,
}


class TestSparseElimination:
    """The lazily rescaled, envelope-bounded elimination on seeded sparse
    banded matrices of n 10-40, against the Fraction elimination; (D, L)
    also checks the carried identity columns of every row."""

    @pytest.mark.parametrize("kind", sorted(SPARSE_KINDS))
    def test_against_fraction_elimination(self, kind):
        rng = random.Random(f"sparse:{kind}")
        for _ in range(5):
            G = SymMatrix.from_rows(SPARSE_KINDS[kind](rng, rng.randint(10, 40)))
            diagonalization, signs, det = elimination_invariants(G)
            assert diagonalizing_congruence(G) == diagonalization
            assert determinant(G) == det
            assert inertia_and_abs_det(G) == (Inertia(*signs), abs(det))


@pytest.mark.parametrize(
    "call",
    [
        lambda: congruence([[1]], IntMatrix.identity(1)),
        lambda: inertia([[1]]),
        lambda: determinant([[1]]),
        lambda: inertia_and_abs_det([[1]]),
        lambda: diagonalizing_congruence([[1]]),
        lambda: cct_search([[1]]),
        lambda: reduce_binary_form([[1, 0], [0, 1]]),
        lambda: apply_move([[1]], Kink(1)),
        lambda: find_positive_vector([[1]]),
        lambda: integralize_first_row([[1]], IntMatrix.identity(1)),
        lambda: goeritz_matrix(None),
        lambda: block_extension([[1]], SymMatrix.empty()),
        lambda: block_extension(SymMatrix.empty(), [[1]]),
    ],
)
def test_matrix_arguments_are_checked(call):
    """A public function given rows, or None, where it takes a SymMatrix
    (a Diagram for goeritz_matrix) raises a library error where the
    argument enters, not an AttributeError from deep inside."""
    with pytest.raises(KinkEqError, match=r"needs a (SymMatrix|Diagram), got (list|NoneType)"):
        call()

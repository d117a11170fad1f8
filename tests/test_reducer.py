"""Constructive reduction: four squares, positive vectors, elimination."""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinkeq.moves
import kinkeq.reducer
from kinkeq import (
    Congruence,
    IntMatrix,
    Kink,
    NEG_DEFINITE,
    NEG_SEMIDEFINITE,
    POS_DEFINITE,
    POS_SEMIDEFINITE,
    SymMatrix,
    Trace,
    Unkink,
    congruence,
    count_moves,
    determinant,
    extend_primitive,
    find_positive_vector,
    four_squares,
    inertia,
    integralize_first_row,
    primitive_scale,
    reduce,
    replay,
    verify_trace,
)
from kinkeq.errors import (
    InternalError,
    KinkEqError,
    NonpositiveCorner,
    NoPositiveEigenvalue,
    NotIntegerMatrix,
    SingularForDefiniteTarget,
    SizeMismatch,
)
from kinkeq.exact import diagonalizing_congruence
from kinkeq.formats import parse_trace, serialize_trace
from kinkeq.reducer import TARGETS
from kinkeq.worked_examples import OBSTRUCTED_GRAM_MATRIX

from oracles import four_squares_oracle, quadratic_value, random_sym, random_sym_rational


class TestFourSquares:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (0, (0, 0, 0, 0)),
            (4, (2, 0, 0, 0)),
            (7, (2, 1, 1, 1)),
            (1, (1, 0, 0, 0)),
            (True, (1, 0, 0, 0)),  # a bool is an int
        ],
    )
    def test_examples(self, k, expected):
        assert four_squares(k) == expected

    def test_rejects_negative(self):
        with pytest.raises(KinkEqError):
            four_squares(-1)

    @pytest.mark.parametrize("k", [1.5, "5", Fraction(5)], ids=["float", "str", "fraction"])
    def test_takes_only_integers(self, k):
        with pytest.raises(KinkEqError):
            four_squares(k)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=100000))
    def test_decomposition_and_ordering(self, k):
        a, b, c, d = four_squares(k)
        assert a * a + b * b + c * c + d * d == k
        assert a >= b >= c >= d >= 0

    def test_multiples_of_eight_match_the_plain_search(self):
        # the factors of 4 stripped from a multiple of 8 leave the
        # lexicographically greatest tuple unchanged
        for k in range(0, 4001, 8):
            assert four_squares(k) == four_squares_oracle(k), k

    @pytest.mark.parametrize("e", range(1, 31))
    def test_powers_of_four_times_seven(self, e):
        # the plain search on 4^e * 7 does not finish in 20 s from e = 12 on;
        # with the factors of 4 stripped it searches 28 = 5^2 + 1 + 1 + 1
        assert four_squares(4**e * 7) == tuple(2 ** (e - 1) * x for x in (5, 1, 1, 1))

    def test_corner_of_the_n14_sweep_stall(self):
        # the corner - 1 of integer n = 14, case 0 of the sweep: k - isqrt(k)^2
        # has the form 8m + 7, and the plain search exhausts every b and c
        # under a = isqrt(k) before it lowers a
        k = 32594956896023189045483955
        assert (k - isqrt(k) ** 2) % 8 == 7
        assert four_squares(k) == (5709199321797, 3982999, 2176, 637)

    def test_matches_the_plain_search(self):
        # skipping each a whose k - a^2 is no sum of three squares leaves
        # the lexicographically greatest tuple unchanged
        for k in range(3001):
            assert four_squares(k) == four_squares_oracle(k), k

    @pytest.mark.parametrize("a", [10**6, 2**40 + 8, 8 * 3**25, 10**15])
    @pytest.mark.parametrize("e", [0, 1, 2])
    def test_top_square_with_no_three_square_rest(self, a, e):
        # k - isqrt(k)^2 = r = 4^e (8m + 7), of the size of a, is no sum of
        # three squares, so the first term is below isqrt(k) = a; the plain
        # search would try every b and c under sqrt(r) before lowering a
        r = 4**e * (8 * (a // (8 * 4**e)) + 7)
        k = a * a + r
        assert isqrt(k) == a
        t = four_squares(k)
        assert sum(x * x for x in t) == k
        assert a > t[0] >= t[1] >= t[2] >= t[3] >= 0


def _witness_only(seed, n):
    """A seeded matrix with n_plus > 0 on which every diagonal entry and
    every e_i +/- e_j value is <= 0, so only the witness path is left."""
    rng = random.Random(seed)
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(-30, 0)
        for i in range(n):
            for j in range(i + 1, n):
                k = -(rows[i][i] + rows[j][j]) // 2
                rows[i][j] = rows[j][i] = rng.randint(-k, k)
        G = SymMatrix.from_rows(rows)
        if inertia(G).n_plus:
            return G


WITNESS_CASES = [
    SymMatrix.from_rows([[-1, 11], [11, -100]]),
    *(_witness_only(seed, n) for n in range(2, 7) for seed in range(8)),
]


class TestFindPositiveVector:
    def test_positive_diagonal(self):
        assert find_positive_vector(SymMatrix.diagonal([-1, 2])) == (0, 1)
        assert find_positive_vector(SymMatrix.from_rows([[5, 3], [3, 6]])) == (1, 0)

    def test_pair_sweep(self):
        G = SymMatrix.from_rows([[0, 1], [1, 0]])
        b = find_positive_vector(G)
        assert b == (1, 1)
        assert quadratic_value(G, b) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(NoPositiveEigenvalue):
            find_positive_vector(SymMatrix.diagonal([-1, -2]))
        with pytest.raises(NoPositiveEigenvalue):
            find_positive_vector(SymMatrix.from_rows([[0, 0], [0, 0]]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_primitive_witness_with_positive_value(self, seed):
        rng = random.Random(seed)
        G = random_sym(rng, rng.randint(1, 5), 6)
        if inertia(G).n_plus == 0:
            with pytest.raises(NoPositiveEigenvalue):
                find_positive_vector(G)
            return
        b = find_positive_vector(G)
        g = 0
        for x in b:
            g = gcd(g, x)
        assert g == 1
        assert quadratic_value(G, b) >= 1

    @pytest.mark.parametrize("G", WITNESS_CASES)
    def test_witness_path_never_lengthens_the_witness(self, G):
        n = G.n
        assert all(G[i, i] <= 0 for i in range(n))
        assert all(
            quadratic_value(G, [int(t == i) + s * int(t == j) for t in range(n)]) <= 0
            for i in range(n)
            for j in range(i + 1, n)
            for s in (1, -1)
        )
        b = find_positive_vector(G)
        assert gcd(*b) == 1
        assert quadratic_value(G, b) > 0
        diag, L = diagonalizing_congruence(G)
        w = primitive_scale(next(row for d, row in zip(diag, L) if d > 0))
        assert all(abs(x) <= abs(y) for x, y in zip(b, w))


class TestIntegralizeFirstRow:
    """``integralize_first_row(G, C)`` is the round's step: the basis C'
    and the kinks that take G to ``G.gram(C')``, whose first row is integral."""

    def test_half_example(self):
        G = SymMatrix.from_rows([[Fraction(1, 2)]])
        basis, kinks = integralize_first_row(G, IntMatrix.identity(1))
        out = G.gram(basis)
        assert out == SymMatrix.from_rows([[1, 0], [0, Fraction(-1, 2)]])
        assert kinks == [Kink(-1)]
        assert basis == IntMatrix.from_rows([[2, 1], [1, 1]])
        assert replay(G, [*kinks, Congruence(basis)]) == out

    def test_2x2_example(self):
        G = SymMatrix.from_rows([[Fraction(3, 2), Fraction(1, 2)], [Fraction(1, 2), 1]])
        basis, kinks = integralize_first_row(G, IntMatrix.identity(2))
        expected = SymMatrix.from_rows(
            [[5, 1, 2], [1, 1, Fraction(1, 2)], [2, Fraction(1, 2), Fraction(1, 2)]]
        )
        assert G.gram(basis) == expected
        assert replay(G, [*kinks, Congruence(basis)]) == expected

    def test_already_integral_is_noop(self):
        G = SymMatrix.from_rows([[7, 2], [2, 0]])
        C = IntMatrix.identity(2)
        assert integralize_first_row(G, C) == (C, [])
        assert G.gram(C) == G

    def test_rejects_nonpositive_corner(self):
        half = SymMatrix.from_rows([[Fraction(-1, 2)]])
        with pytest.raises(NonpositiveCorner):
            integralize_first_row(half, IntMatrix.identity(1))
        with pytest.raises(NonpositiveCorner):
            integralize_first_row(SymMatrix.empty(), IntMatrix.identity(0))

    def test_checks_its_arguments(self):
        G = SymMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
        with pytest.raises(NotIntegerMatrix, match="the basis is an IntMatrix, got list"):
            integralize_first_row(G, [[1, 0], [0, 1]])
        with pytest.raises(SizeMismatch, match="the basis is 3x3, the matrix is 2x2"):
            integralize_first_row(G, IntMatrix.identity(3))
        with pytest.raises(SizeMismatch, match="the basis is 2x3, the matrix is 2x2"):
            integralize_first_row(G, IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
        # b^T G b is read through the whole of b, not the corner of G
        C = IntMatrix.from_rows([[0, 1], [1, 0]])
        H = SymMatrix.from_rows([[Fraction(1, 2), 0], [0, -1]])
        with pytest.raises(NonpositiveCorner, match="got -1"):
            integralize_first_row(H, C)

    @pytest.mark.parametrize("seed", range(6))
    def test_corner_is_d_squared_k_minus_1(self, seed):
        # d is the lcm of the first-row denominators, k the corner
        rng = random.Random(f"corner-{seed}")
        for _ in range(20):
            G = random_sym_rational(rng, rng.randint(1, 5), 6, 6)
            if G[0, 0] <= 0:
                continue
            d = lcm(*(G[0, j].denominator for j in range(G.n)))
            basis, kinks = integralize_first_row(G, IntMatrix.identity(G.n))
            out = G.gram(basis)
            assert out[0, 0] == (d * d * G[0, 0] - 1 if d > 1 else G[0, 0])
            assert kinks == ([Kink(-1)] if d > 1 else [])
            assert all(out[0, j].denominator == 1 for j in range(out.n))
            assert replay(G, [*kinks, Congruence(basis)]) == out


class TestIntegralizingBasis:
    """The round reads its integralization denominator from G and b alone:
    the first row of C G C^T is (b G) C^T, which has the gcd of b G
    because C is unimodular."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_integralizing_the_vector_move(self, seed):
        # the fused basis S (C (+) [1]) against the shear S of the matrix
        # after the vector move, integralized on its own
        rng = random.Random(f"integralizing-{seed}")
        for _ in range(15):
            G = random_sym_rational(rng, rng.randint(1, 5), 5, 6)
            if not inertia(G).n_plus:
                continue
            C = extend_primitive(find_positive_vector(G))  # the round's own C
            basis, kinks = integralize_first_row(G, C)
            H = G.gram(C)
            S, moves = integralize_first_row(H, IntMatrix.identity(H.n))
            assert G.gram(basis) == H.gram(S)
            assert kinks == moves
            if kinks:
                lifted = [row + (0,) for row in C.entries] + [(0,) * C.cols + (1,)]
                assert basis == S.matmul(IntMatrix.from_rows(lifted))
            else:
                assert basis == C

    def test_identity_basis_is_the_shear(self):
        G = SymMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
        basis, kinks = integralize_first_row(G, IntMatrix.identity(2))
        assert basis == IntMatrix.shear(3, {(0, 0): 2, (0, 2): 1, (2, 0): 1})
        assert kinks == [Kink(-1)]
        C = IntMatrix.identity(2)
        assert integralize_first_row(SymMatrix.diagonal([3, Fraction(1, 2)]), C) == (C, [])


def _rounds(G):
    """The elimination rounds of ``reduce(G, NEG_SEMIDEFINITE)``: its moves
    split after each ``Unkink(1)``, each replayed from where the last one
    ended, as (start, moves, end); the last end is the trace's end."""
    trace = reduce(G, NEG_SEMIDEFINITE)
    rounds, current, moves = [], G, []
    for move in trace.moves:
        moves.append(move)
        if move == Unkink(1):
            end = replay(current, moves)
            rounds.append((current, moves, end))
            current, moves = end, []
    assert moves == [] and current == trace.end
    return rounds


def _check_rounds(G):
    """One round per positive eigenvalue; each drops n_plus by exactly one,
    uses at most 4 negative kinks (5 for rational input) and is its kinks,
    all ``Kink(-1)``, then at most one congruence, then one ``Unkink(1)``."""
    rounds = _rounds(G)
    assert len(rounds) == inertia(G).n_plus
    budget = 4 if G.is_integral() else 5
    for start, moves, end in rounds:
        before, after = inertia(start), inertia(end)
        assert after.n_plus == before.n_plus - 1
        assert after.n_zero == before.n_zero
        neg_kinks = count_moves(moves).neg_kinks
        assert neg_kinks <= budget
        assert after.n_minus == before.n_minus + neg_kinks
        assert moves[:neg_kinks] == [Kink(-1)] * neg_kinks
        middle = moves[neg_kinks:-1]
        assert len(middle) <= 1 and all(isinstance(m, Congruence) for m in middle)
        assert moves[-1] == Unkink(1)
    return rounds


class TestEliminatePositive:
    """The rounds that ``reduce`` strings together, one per positive
    eigenvalue."""

    def test_unit_corner(self):
        G = SymMatrix.from_rows([[1]])
        assert _check_rounds(G) == [(G, [Unkink(1)], SymMatrix.empty())]

    def test_two_to_minus_two(self):
        [(_, moves, out)] = _check_rounds(SymMatrix.from_rows([[2]]))
        assert out == SymMatrix.from_rows([[-2]])
        stats = count_moves(moves)
        assert stats.pos_kinks + stats.neg_kinks == 1
        assert stats.pos_unkinks + stats.neg_unkinks == 1

    def test_obstructed_matrix_first_round(self):
        _, moves, out = _check_rounds(OBSTRUCTED_GRAM_MATRIX)[0]
        sig = inertia(out)
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == (5, 1, 0)
        stats = count_moves(moves)
        assert stats.pos_kinks + stats.neg_kinks == 1  # corner k = 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_drops_n_plus_by_one(self, seed):
        rng = random.Random(seed)
        _check_rounds(random_sym(rng, rng.randint(1, 4), 4))
        _check_rounds(random_sym_rational(rng, rng.randint(1, 4), 4, 4))


class TestReduce:
    def test_five_to_neg_definite(self):
        trace = reduce(SymMatrix.from_rows([[5]]), NEG_DEFINITE)
        assert trace.end == SymMatrix.from_rows([[-5]])
        stats = count_moves(trace.moves)
        assert stats.pos_kinks + stats.neg_kinks == 1
        assert stats.pos_unkinks + stats.neg_unkinks == 1
        assert verify_trace(trace).valid

    def test_obstructed_matrix(self):
        trace = reduce(OBSTRUCTED_GRAM_MATRIX, NEG_DEFINITE)
        assert verify_trace(trace).valid
        sig = inertia(trace.end)
        assert sig.n_plus == 0 and sig.n_zero == 0
        assert abs(determinant(trace.end)) == 3
        assert trace.end.n <= 24

    def test_singular_pos_semidefinite(self):
        trace = reduce(SymMatrix.diagonal([0, -2]), POS_SEMIDEFINITE)
        assert verify_trace(trace).valid
        sig = inertia(trace.end)
        assert sig.n_minus == 0 and sig.n_zero == 1

    @pytest.mark.parametrize("target", [NEG_SEMIDEFINITE, POS_SEMIDEFINITE])
    def test_zero_diagonal_semidefinite(self, target):
        G = SymMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        trace = reduce(G, target)
        assert verify_trace(trace).valid
        assert inertia(trace.end).n_zero == 1

    def test_definite_target_needs_nonsingular(self):
        with pytest.raises(SingularForDefiniteTarget):
            reduce(SymMatrix.diagonal([0, 1]), NEG_DEFINITE)
        with pytest.raises(SingularForDefiniteTarget):
            reduce(SymMatrix.diagonal([0, 1]), POS_DEFINITE)

    def test_unknown_target(self):
        with pytest.raises(KinkEqError):
            reduce(SymMatrix.from_rows([[1]]), "definite")

    @pytest.mark.parametrize("target", [NEG_DEFINITE, POS_DEFINITE])
    def test_needs_a_symmatrix(self, target):
        with pytest.raises(KinkEqError, match="needs a SymMatrix, got list"):
            reduce([[1]], target)

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize(
        "G",
        [
            SymMatrix(0, ((1,),)),
            SymMatrix(1, ((1, 2), (3,))),
            SymMatrix(1, ((1, 2), (3, 4))),
            SymMatrix(2, ((2,),)),
        ],
        ids=["den-0", "ragged", "not-symmetric", "not-least-den"],
    )
    def test_needs_a_lift(self, G, target, monkeypatch):
        # G is checked where it enters, so no round runs on a matrix that is
        # no lift, and no ZeroDivisionError or IndexError escapes from one
        rounds = []
        monkeypatch.setattr(kinkeq.reducer, "_elimination_round", rounds.append)
        with pytest.raises(KinkEqError, match="^reduce is not the lift of a symmetric matrix"):
            reduce(G, target)
        assert rounds == []

    @pytest.mark.parametrize("target", TARGETS)
    def test_builds_one_trace(self, target, monkeypatch):
        traces = []

        def counted(*fields):
            traces.append(Trace(*fields))
            return traces[-1]

        monkeypatch.setattr(kinkeq.reducer, "Trace", counted)
        trace = reduce(SymMatrix.from_rows([[2, 1, 0], [1, -3, 1], [0, 1, 1]]), target)
        assert traces == [trace]
        assert verify_trace(trace).valid

    def test_empty_matrix(self):
        trace = reduce(SymMatrix.empty(), NEG_SEMIDEFINITE)
        assert trace.end == SymMatrix.empty() and trace.moves == ()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_positive_target_duality(self, seed):
        rng = random.Random(seed)
        G = random_sym(rng, rng.randint(1, 4), 4)
        trace = reduce(G, POS_SEMIDEFINITE)
        assert verify_trace(trace).valid
        sig, before = inertia(trace.end), inertia(G)
        assert sig.n_minus == 0 and sig.n_zero == before.n_zero
        assert abs(determinant(trace.end)) == abs(determinant(G))
        stats = count_moves(trace.moves)
        assert stats.pos_kinks <= 4 * before.n_minus
        assert stats.neg_unkinks == before.n_minus

    @pytest.mark.parametrize("case", range(5))
    def test_integer_n10_keeps_entries_small(self, case):
        # the n = 10 rows of the stall sweep: entries -9..9, nonsingular
        rng = random.Random(1000 + 10 + 7919 * case)
        G = random_sym(rng, 10, 9)
        while determinant(G) == 0:
            G = random_sym(rng, 10, 9)
        trace = reduce(G, NEG_DEFINITE)
        assert verify_trace(trace).valid
        assert inertia(trace.end).n_minus == trace.end.n
        assert count_moves(trace.moves).neg_kinks <= 4 * inertia(G).n_plus
        assert max(abs(x).bit_length() for row in trace.end.rows for x in row) <= 64

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_rational_bound(self, seed):
        rng = random.Random(seed)
        G = random_sym_rational(rng, rng.randint(1, 4), 4, 4)
        trace = reduce(G, NEG_SEMIDEFINITE)
        assert verify_trace(trace).valid
        before = inertia(G)
        assert inertia(trace.end).n_plus == 0
        assert count_moves(trace.moves).neg_kinks <= 5 * before.n_plus

    @pytest.mark.parametrize("target", [NEG_DEFINITE, POS_DEFINITE, NEG_SEMIDEFINITE, POS_SEMIDEFINITE])
    def test_certificate_text_round_trip(self, target):
        # each fused congruence is a dense "congr" line; read it back in process
        rng = random.Random(17)
        inputs = [random_sym(rng, rng.randint(1, 5), 6) for _ in range(12)]
        inputs += [random_sym_rational(rng, rng.randint(1, 3), 4, 6) for _ in range(12)]
        for G in inputs:
            if target in (NEG_DEFINITE, POS_DEFINITE) and determinant(G) == 0:
                continue
            trace = reduce(G, target)
            parsed = parse_trace(serialize_trace(trace))
            assert parsed == trace
            assert verify_trace(parsed).valid


class TestCheckedCongruences:
    """The reducer builds every basis change itself and checks none of
    them: its matrices come from ``SymMatrix.gram`` and
    ``SymMatrix.unit_complement``, and the verifier alone runs the checked
    congruence."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(G, P):
            calls.append(P)
            return congruence(G, P)

        monkeypatch.setattr(kinkeq.moves, "congruence", counted)
        return calls

    @pytest.mark.parametrize("seed", range(8))
    def test_one_per_round(self, seed, calls):
        rng = random.Random(seed)
        for rational in (False, True):
            n = rng.randint(1, 5)
            G = random_sym_rational(rng, n, 4, 4) if rational else random_sym(rng, n, 6)
            calls.clear()
            trace = reduce(G, NEG_SEMIDEFINITE)
            assert calls == []  # the reducer checks none of its own basis changes
            # the verifier checks every Congruence move once
            calls.clear()
            assert verify_trace(trace).valid
            assert len(calls) == count_moves(trace.moves).congruences


class TestOneGramPerRound:
    """Each round takes its matrix from exactly one ``SymMatrix.gram``:
    the vector move and, for rational input, the integralization are one
    basis, so ``reduce`` makes n_plus Gram products."""

    @pytest.fixture
    def grams(self, monkeypatch):
        grams = []
        gram = SymMatrix.gram

        def counted(G, P):
            grams.append(P)
            return gram(G, P)

        monkeypatch.setattr(SymMatrix, "gram", counted)
        return grams

    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    @pytest.mark.parametrize("seed", range(6))
    def test_n_plus_grams(self, seed, rational, grams):
        rng = random.Random(f"grams-{seed}")
        for _ in range(6):
            n = rng.randint(1, 4)
            G = random_sym_rational(rng, n, 4, 4) if rational else random_sym(rng, n, 6)
            grams.clear()
            reduce(G, NEG_SEMIDEFINITE)
            assert len(grams) == inertia(G).n_plus


BIG = 10**5000  # past CPython's default int string-conversion limit (4300 digits)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Kink(BIG),
        lambda: Unkink(-BIG),
        lambda: four_squares(-BIG),
        lambda: extend_primitive([2 * BIG, 0]),
        lambda: integralize_first_row(SymMatrix.from_rows([[-BIG]]), IntMatrix.identity(1)),
        lambda: integralize_first_row(
            SymMatrix.from_rows([[Fraction(-BIG, 3)]]), IntMatrix.identity(1)
        ),
        lambda: IntMatrix.from_rows([[1]], cols=BIG),
    ],
    ids=["kink", "unkink", "four_squares", "extend_primitive", "corner", "rational_corner", "cols"],
)
def test_errors_on_long_numbers_are_library_errors(call):
    # the message writes the number with write_number, never with str
    with pytest.raises(KinkEqError) as info:
        call()
    assert not isinstance(info.value, InternalError)

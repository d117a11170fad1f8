"""Gram factors: the I+CC^T chain, exhaustive search, 2x2 reduction."""

import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinkeq import (
    GramFactor,
    IntMatrix,
    SymMatrix,
    cct_search,
    congruence,
    icct_trace,
    inertia,
    reduce_binary_form,
    verify_trace,
)
from kinkeq.cct import reduced_gram_factor
from kinkeq.errors import (
    Not2x2,
    NotIntegerMatrix,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
)

from oracles import random_int_matrix, random_posdef_2x2


class TestIcctTrace:
    def test_scalar(self):
        trace = icct_trace(IntMatrix.from_rows([[1]]))
        assert trace.start == SymMatrix.from_rows([[2]])
        assert trace.end == SymMatrix.from_rows([[-2]])
        assert verify_trace(trace).valid

    def test_empty_columns(self):
        trace = icct_trace(IntMatrix.from_rows([[], []], cols=0))
        assert trace.start == SymMatrix.diagonal([1, 1])
        assert trace.end == SymMatrix.empty()
        assert verify_trace(trace).valid

    def test_column_vector(self):
        trace = icct_trace(IntMatrix.from_rows([[1], [1]]))
        assert trace.start == SymMatrix.from_rows([[2, 1], [1, 2]])
        assert trace.end == SymMatrix.from_rows([[-3]])
        assert verify_trace(trace).valid

    def test_endpoints_definite(self):
        C = IntMatrix.from_rows([[1, -2], [0, 3]])
        trace = icct_trace(C)
        s0, s1 = inertia(trace.start), inertia(trace.end)
        assert s0.n_plus == trace.start.n and s0.n_minus == 0
        assert s1.n_minus == trace.end.n and s1.n_plus == 0
        assert verify_trace(trace).valid

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_factors(self, seed):
        # icct_trace does not replay its chain, so this is its check: small
        # dense factors, and factors shaped like those cct_search finds for
        # the bench search workload (up to 6 x 10, entries -1, 0, 1)
        rng = random.Random(seed)
        small = random_int_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        found = random_int_matrix(rng, rng.randint(3, 6), rng.randint(3, 10), bound=1)
        for C in (small, found):
            trace = icct_trace(C)
            assert verify_trace(trace).valid
            for F, chain_end, sign in ((C, trace.start, 1), (C.transpose(), trace.end, -1)):
                gram = F.matmul(F.transpose()).entries
                assert chain_end == SymMatrix.from_rows(
                    [
                        [sign * (x + (i == j)) for j, x in enumerate(row)]
                        for i, row in enumerate(gram)
                    ]
                )


class TestCctSearch:
    def test_two(self):
        factor = cct_search(SymMatrix.from_rows([[2]]))
        assert factor.matrix == IntMatrix.from_rows([[1, 1]], cols=2)

    def test_2x2(self):
        G = SymMatrix.from_rows([[2, 1], [1, 2]])
        factor = cct_search(G)
        assert factor.gram() == G

    def test_identity(self):
        G = SymMatrix.diagonal([1, 1, 1])
        factor = cct_search(G)
        assert factor.gram() == G

    def test_zero_matrix(self):
        G = SymMatrix.from_rows([[0, 0], [0, 0]])
        factor = cct_search(G)
        assert factor is not None and factor.gram() == G

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            cct_search(SymMatrix.diagonal([1, -1]))

    def test_rejects_non_integer(self):
        with pytest.raises(NotIntegerMatrix):
            cct_search(SymMatrix.from_rows([[Fraction(1, 2)]]))

    def test_diagonal_three_has_factor(self):
        # diag entry 3 forces three unit columns in the first row
        G = SymMatrix.from_rows([[3, 0], [0, 1]])
        factor = cct_search(G)
        assert factor is not None and factor.gram() == G

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_recovers_random_gram_products(self, seed):
        rng = random.Random(seed)
        C = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), bound=2)
        product = C.matmul(C.transpose())
        G = SymMatrix.from_rows(product.entries)
        factor = cct_search(G)
        assert factor is not None
        assert factor.gram() == G
        # the rows the search placed, cut to their nonzero columns, are
        # already the canonical form that from_matrix would make of them
        assert factor == GramFactor.from_matrix(factor.matrix)

    def test_long_row_ends_where_its_norm_is_spent(self):
        # the zero tail closes in one step, so trace(G) sets no recursion depth
        factor = cct_search(SymMatrix.from_rows([[1200]]))
        assert factor.matrix.entries == ((34, 6, 2, 2),)

    def test_identity_120(self):
        # 120 rows, each placed by its own call: the search must not nest
        # one row's columns on top of the rows before it
        G = SymMatrix.diagonal([1] * 120)
        assert cct_search(G).matrix == IntMatrix.identity(120)

    def test_identity_needs_one_frame_per_row(self):
        # each row walks its columns in one generator, so I_n needs about n
        # frames above the caller's, not one per row and one per column
        n = 150
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + n + 30)
        try:
            factor = cct_search(SymMatrix.diagonal([1] * n))
        finally:
            sys.setrecursionlimit(limit)
        assert factor.matrix == IntMatrix.identity(n)


class TestGramFactorCanonical:
    def test_canonicalization(self):
        C = IntMatrix.from_rows([[0, -1, 1], [0, -1, 0]])
        canon = GramFactor.from_matrix(C)
        assert canon.matrix == IntMatrix.from_rows([[1, 1], [1, 0]])
        product = C.matmul(C.transpose())
        assert canon.gram() == SymMatrix.from_rows(product.entries)


class TestReduceBinaryForm:
    def test_example(self):
        A = SymMatrix.from_rows([[5, 3], [3, 6]])
        reduced, E = reduce_binary_form(A)
        assert reduced == SymMatrix.from_rows([[5, 2], [2, 5]])
        assert congruence(reduced, E) == A

    def test_boundary_sign_flip(self):
        A = SymMatrix.from_rows([[2, -1], [-1, 2]])
        reduced, E = reduce_binary_form(A)
        assert reduced == SymMatrix.from_rows([[2, 1], [1, 2]])
        assert congruence(reduced, E) == A

    def test_sign_flip_inside(self):
        # diag(1, -1) maps [[2, -1], [-1, 3]] to [[2, 1], [1, 3]], so both
        # reduce to the one form with b >= 0
        A = SymMatrix.from_rows([[2, -1], [-1, 3]])
        reduced, E = reduce_binary_form(A)
        assert reduced == SymMatrix.from_rows([[2, 1], [1, 3]])
        assert E == IntMatrix.from_rows([[1, 0], [0, -1]])
        assert congruence(reduced, E) == A

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_one_reduced_form_per_class(self, seed):
        # A and P A P^T, P unimodular with det +-1, reduce to the same form
        rng = random.Random(seed)
        A = random_posdef_2x2(rng)
        P = IntMatrix.identity(2)
        for _ in range(rng.randint(1, 6)):
            t = rng.choice((-3, -2, -1, 1, 2, 3))
            step = rng.choice(
                [
                    IntMatrix.shear(2, {(1, 0): t}),
                    IntMatrix.shear(2, {(0, 1): t}),
                    IntMatrix.shear(2, {(1, 1): -1}),
                    IntMatrix.rotation(2, 1),
                ]
            )
            P = P.matmul(step)
        assert reduce_binary_form(A)[0] == reduce_binary_form(congruence(A, P))[0]

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            reduce_binary_form(SymMatrix.from_rows([[1, 1], [1, 1]]))

    def test_rejects_wrong_size(self):
        with pytest.raises(Not2x2):
            reduce_binary_form(SymMatrix.from_rows([[1]]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_reduced_conditions_and_witness(self, seed):
        A = random_posdef_2x2(random.Random(seed))
        reduced, E = reduce_binary_form(A)
        a, b, c = reduced[0, 0], reduced[0, 1], reduced[1, 1]
        assert 0 <= 2 * b <= a <= c
        assert congruence(reduced, E) == A


class TestCct2x2:
    def test_paper_construction(self):
        factor = reduced_gram_factor(*reduce_binary_form(SymMatrix.from_rows([[2, 1], [1, 2]])))
        assert sorted(zip(*factor.matrix.entries)) == [
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_identity(self):
        factor = reduced_gram_factor(*reduce_binary_form(SymMatrix.diagonal([1, 1])))
        assert factor.matrix == IntMatrix.identity(2)

    def test_reduced_example(self):
        A = SymMatrix.from_rows([[5, 2], [2, 5]])
        factor = reduced_gram_factor(*reduce_binary_form(A))
        assert factor.gram() == A
        assert factor.matrix.cols == 8  # 3 + 3 + 2 columns

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_gram_identity(self, seed):
        A = random_posdef_2x2(random.Random(seed))
        assert reduced_gram_factor(*reduce_binary_form(A)).gram() == A

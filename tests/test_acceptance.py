"""Acceptance suite: ten end-to-end criteria, one test each.

Each test carries the runtime budget it must meet in its docstring; the
budgets are generous on modern hardware (the whole file runs in well under
three minutes).
"""

import random
import time
from fractions import Fraction

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
    cct_search,
    congruence,
    count_moves,
    determinant,
    icct_trace,
    inertia,
    reduce,
    reduce_binary_form,
    replay,
    trace_stats,
    verify_trace,
)
from kinkeq.cct import reduced_gram_factor
from kinkeq.cli import blowup_report
from kinkeq.formats import parse_trace
from kinkeq.worked_examples import (
    OBSTRUCTED_GRAM_MATRIX,
    five_to_minus_five_trace,
    obstructed_matrix_reduction_trace,
)

from oracles import (
    inertia_oracle,
    random_posdef_2x2,
    random_int_matrix,
    random_sym,
    random_sym_rational,
    random_unimodular,
)


def test_criterion_1_scalar_chain_replay_and_tamper_detection():
    """[5] -> [-5] chain verifies; any single-entry tamper is rejected. < 1 s."""
    t0 = time.time()
    trace = five_to_minus_five_trace()
    assert verify_trace(trace).valid
    assert trace.end == SymMatrix.from_rows([[-5]])
    for idx, move in enumerate(trace.moves):
        if not isinstance(move, Congruence):
            continue
        P = move.matrix
        for i in range(P.rows):
            for j in range(P.cols):
                rows = [list(r) for r in P.entries]
                rows[i][j] += 1
                tampered = list(trace.moves)
                tampered[idx] = Congruence(IntMatrix.from_rows(rows))
                report = verify_trace(Trace(trace.start, tuple(tampered), trace.end))
                assert not report.valid
    assert time.time() - t0 < 1


def test_criterion_2_thirteen_stage_chain_replay():
    """Hand-encoded 13-stage 6x6 chain verifies with the recorded stats. < 1 s."""
    t0 = time.time()
    trace = obstructed_matrix_reduction_trace()
    report = verify_trace(trace)
    assert report.valid
    assert trace.end == SymMatrix.from_rows([[-2, -1], [-1, -2]])
    stats = trace_stats(trace)
    assert stats.neg_kinks == 2
    assert stats.pos_unkinks == 6
    assert stats.pos_kinks == 0 and stats.neg_unkinks == 0
    assert time.time() - t0 < 1


def test_criterion_3_obstructed_matrix_has_no_gram_factor():
    """Exhaustive search proves the 6x6 matrix is not CC^T; inertia (6,0,0). < 60 s."""
    t0 = time.time()
    sig = inertia(OBSTRUCTED_GRAM_MATRIX)
    assert (sig.n_plus, sig.n_minus, sig.n_zero) == (6, 0, 0)
    assert cct_search(OBSTRUCTED_GRAM_MATRIX) is None
    assert time.time() - t0 < 60


def test_criterion_4_integer_reduction_bounds_500_matrices():
    """500 random integer matrices, all four targets, move bounds hold. < 120 s."""
    t0 = time.time()
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(1, 5)
        G = random_sym(rng, n, 4)
        before = inertia(G)
        abs_det = abs(determinant(G))

        trace = reduce(G, NEG_SEMIDEFINITE)
        assert verify_trace(trace).valid
        after = inertia(trace.end)
        assert after.n_plus == 0
        assert after.n_zero == before.n_zero
        assert abs(determinant(trace.end)) == abs_det
        stats = count_moves(trace.moves)
        assert stats.neg_kinks <= 4 * before.n_plus
        assert stats.pos_unkinks == before.n_plus

        mirror = reduce(G, POS_SEMIDEFINITE)
        assert verify_trace(mirror).valid
        assert inertia(mirror.end).n_minus == 0
        stats = count_moves(mirror.moves)
        assert stats.pos_kinks <= 4 * before.n_minus
        assert stats.neg_unkinks == before.n_minus

        if abs_det != 0:
            neg = reduce(G, NEG_DEFINITE)
            assert verify_trace(neg).valid
            sig = inertia(neg.end)
            assert sig.n_plus == 0 and sig.n_zero == 0
            pos = reduce(G, POS_DEFINITE)
            assert verify_trace(pos).valid
            sig = inertia(pos.end)
            assert sig.n_minus == 0 and sig.n_zero == 0
    assert time.time() - t0 < 120


def test_criterion_5_rational_reduction_bound_and_integralization_example():
    """500 random rational matrices: 5*n_plus kink bound; formula example. < 120 s."""
    from kinkeq import integralize_first_row

    t0 = time.time()
    half = SymMatrix.from_rows([[Fraction(1, 2)]])
    basis, kinks = integralize_first_row(half, IntMatrix.identity(1))
    out = half.gram(basis)
    assert out == SymMatrix.from_rows([[1, 0], [0, Fraction(-1, 2)]])
    assert kinks == [Kink(-1)]
    assert replay(half, [*kinks, Congruence(basis)]) == out

    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 5)
        G = random_sym_rational(rng, n, 4, 4)
        before = inertia(G)
        trace = reduce(G, NEG_SEMIDEFINITE)
        assert verify_trace(trace).valid
        after = inertia(trace.end)
        assert after.n_plus == 0 and after.n_zero == before.n_zero
        assert abs(determinant(trace.end)) == abs(determinant(G))
        stats = count_moves(trace.moves)
        assert stats.neg_kinks <= 5 * before.n_plus
        assert stats.pos_unkinks == before.n_plus
    assert time.time() - t0 < 120


def test_criterion_6_gram_chain_for_100_random_factors():
    """icct_trace verifies for 100 random C; scalar family [n^2+1]. < 10 s."""
    t0 = time.time()
    rng = random.Random(11)
    for _ in range(100):
        C = random_int_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        trace = icct_trace(C)
        assert verify_trace(trace).valid
        s0, s1 = inertia(trace.start), inertia(trace.end)
        assert s0.n_plus == trace.start.n and s0.n_minus == 0 and s0.n_zero == 0
        assert s1.n_minus == trace.end.n and s1.n_plus == 0 and s1.n_zero == 0
    for n in range(6):
        trace = icct_trace(IntMatrix.from_rows([[n]]))
        assert trace.start == SymMatrix.from_rows([[n * n + 1]])
        assert trace.end == SymMatrix.from_rows([[-(n * n + 1)]])
        assert verify_trace(trace).valid
    assert time.time() - t0 < 10


def test_criterion_7_binary_forms_200_random():
    """200 random positive-definite 2x2: reduced conditions + factors. < 5 s."""
    t0 = time.time()
    rng = random.Random(13)
    for _ in range(200):
        A = random_posdef_2x2(rng)
        reduced, E = reduce_binary_form(A)
        a, b, c = reduced[0, 0], reduced[0, 1], reduced[1, 1]
        assert 0 <= 2 * b <= a <= c
        assert congruence(reduced, E) == A
        assert reduced_gram_factor(reduced, E).gram() == A
    assert time.time() - t0 < 5


def test_criterion_8_goeritz_figures():
    """Published incidence data reproduces the three figure matrices. < 1 s."""
    from kinkeq import goeritz_matrix, parse_diagram

    t0 = time.time()
    figure = "regions 4\n0 1 +\n1 2 +\n0 2 +\n0 2 +\n2 3 +\n0 3 +\n0 3 +\n"
    assert goeritz_matrix(parse_diagram(figure)) == SymMatrix.from_rows(
        [[2, -1, 0], [-1, 4, -1], [0, -1, 3]]
    )
    dark = "regions 2\n0 1 +\n0 1 +\n0 1 +\n"
    assert goeritz_matrix(parse_diagram(dark)) == SymMatrix.from_rows([[3]])
    light = "regions 3\n0 1 -\n1 2 -\n0 2 -\n"
    G = goeritz_matrix(parse_diagram(light))
    # basis orientation differs from the published figure by diag(1, -1)
    flip = IntMatrix.from_rows([[1, 0], [0, -1]])
    assert congruence(G, flip) == SymMatrix.from_rows([[-2, -1], [-1, -2]])
    assert time.time() - t0 < 1


def test_criterion_9_invariance_500_congruences_and_traces():
    """Inertia under 500 random congruences; |det| along 500 traces. < 30 s."""
    from kinkeq import apply_move

    t0 = time.time()
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(1, 5)
        G = random_sym(rng, n, 4)
        P = random_unimodular(rng, n)
        H = congruence(G, P)
        assert inertia(H) == inertia(G)
        assert abs(determinant(H)) == abs(determinant(G))
    for _ in range(500):
        n = rng.randint(1, 4)
        start = random_sym(rng, n, 3)
        current = start
        moves = []
        for _ in range(rng.randint(0, 10)):
            kind = rng.randrange(3)
            m = current.n
            if kind == 0 and m > 0:
                move = Congruence(random_unimodular(rng, m))
            elif kind == 2 and m > 0 and current[m - 1, m - 1] in (1, -1) and all(
                current[m - 1, j] == 0 for j in range(m - 1)
            ):
                move = Unkink(int(current[m - 1, m - 1]))
            else:
                move = Kink(rng.choice([1, -1]))
            current = apply_move(current, move)
            moves.append(move)
        report = verify_trace(Trace(start, tuple(moves), current))
        assert report.valid
        assert len({step.abs_det for step in report.steps}) == 1
        assert len({step.inertia.n_zero for step in report.steps}) == 1
    assert time.time() - t0 < 30


def test_criterion_10_inertia_oracle_cross_check():
    """Inertia matches the characteristic-polynomial oracle, 200 cases. < 30 s."""
    t0 = time.time()
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(0, 6)
        G = random_sym(rng, n, 9)
        sig = inertia(G)
        assert (sig.n_plus, sig.n_minus, sig.n_zero) == inertia_oracle(G)
    assert time.time() - t0 < 30


def test_blowup_report_traces_verify():
    """Every emitted report embeds traces that replay successfully."""
    for G in (
        SymMatrix.from_rows([[1]]),
        SymMatrix.diagonal([1, -1]),
        SymMatrix.from_rows([[0, 1], [1, 0]]),
    ):
        report = blowup_report(G)
        sections = report.split("--- trace (target ")
        assert len(sections) == 3
        for section in sections[1:]:
            trace = parse_trace(section.partition("---\n")[2])
            assert verify_trace(trace).valid

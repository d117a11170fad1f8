"""Move model: application, trace verification, statistics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinkeq.moves
from kinkeq import (
    Congruence,
    IntMatrix,
    Kink,
    MoveStats,
    SymMatrix,
    Trace,
    Unkink,
    apply_move,
    congruence,
    count_moves,
    determinant,
    icct_trace,
    inertia,
    reduce,
    replay,
    trace_stats,
    verify_trace,
)
from kinkeq.errors import (
    InvalidTrace,
    KinkEqError,
    NotIntegerMatrix,
    SizeMismatch,
    UnkinkShapeViolation,
)
from kinkeq.reducer import TARGETS
from kinkeq.worked_examples import five_to_minus_five_trace, obstructed_matrix_reduction_trace

from oracles import random_int_matrix, random_sym, random_sym_rational, random_unimodular


class TestApplyMove:
    def test_kink(self):
        assert apply_move(SymMatrix.from_rows([[3]]), Kink(-1)) == SymMatrix.diagonal([3, -1])

    def test_unkink(self):
        assert apply_move(SymMatrix.diagonal([-5, 1]), Unkink(1)) == SymMatrix.from_rows([[-5]])

    def test_unkink_rejects_coupled_block(self):
        with pytest.raises(UnkinkShapeViolation):
            apply_move(SymMatrix.from_rows([[1, -2], [-2, -1]]), Unkink(1))

    def test_unkink_rejects_wrong_sign(self):
        with pytest.raises(UnkinkShapeViolation):
            apply_move(SymMatrix.diagonal([3, -1]), Unkink(1))

    def test_strip_block_rejects_non_unit_block(self):
        # a 1/2 block would leave den = 2 on the integer matrix [[1]]
        with pytest.raises(UnkinkShapeViolation):
            SymMatrix.diagonal([1, Fraction(1, 2)]).strip_block(Fraction(1, 2))

    def test_unkink_rejects_empty(self):
        with pytest.raises(UnkinkShapeViolation):
            apply_move(SymMatrix.empty(), Unkink(1))

    def test_kink_on_empty(self):
        assert apply_move(SymMatrix.empty(), Kink(1)) == SymMatrix.from_rows([[1]])

    def test_bad_sign_rejected_at_construction(self):
        with pytest.raises(KinkEqError):
            Kink(2)
        with pytest.raises(KinkEqError):
            Unkink(0)
        with pytest.raises(KinkEqError):
            Kink(1.0)
        with pytest.raises(KinkEqError):
            Unkink(1.0)

    @pytest.mark.parametrize(
        "matrix",
        [[[1, 0], [0, 1]], None, SymMatrix.from_rows([[1]]), ((1,),)],
        ids=["list", "none", "sym-matrix", "tuple"],
    )
    def test_congruence_matrix_checked_at_construction(self, matrix):
        # verify_trace reads matrix.rows, so only an IntMatrix may reach it
        with pytest.raises(KinkEqError, match="^a congruence matrix is an IntMatrix, got "):
            Congruence(matrix)
        with pytest.raises(NotIntegerMatrix):
            Congruence(matrix)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, -1]))
    def test_kink_unkink_roundtrip(self, seed, sign):
        rng = random.Random(seed)
        G = random_sym(rng, rng.randint(0, 4), 5)
        assert apply_move(apply_move(G, Kink(sign)), Unkink(sign)) == G


class TestVerifyTrace:
    def test_paper_chain_five(self):
        assert verify_trace(five_to_minus_five_trace()).valid

    def test_empty_trace(self):
        G = SymMatrix.from_rows([[7]])
        assert verify_trace(Trace(G, (), G)).valid

    def test_wrong_end_rejected(self):
        G = SymMatrix.from_rows([[7]])
        report = verify_trace(Trace(G, (), SymMatrix.from_rows([[8]])))
        assert not report.valid
        assert report.failed_step == 0

    def test_unknown_move_reported(self):
        # a Trace refuses a non-move when it is built; apply_move, which
        # takes any value, reports it by name
        G = SymMatrix.from_rows([[7]])
        with pytest.raises(KinkEqError, match="tuple of Congruence, Kink and Unkink"):
            Trace(G, ("twist",), G)
        with pytest.raises(KinkEqError, match="unknown move 'twist'"):
            apply_move(G, "twist")

    @pytest.mark.parametrize(
        "fields",
        [
            (SymMatrix.empty(), None, SymMatrix.empty()),
            (SymMatrix.empty(), [Kink(-1)], SymMatrix.empty()),
            (None, (), SymMatrix.empty()),
            (SymMatrix.empty(), (), [[1]]),
        ],
        ids=["moves_none", "moves_list", "start_none", "end_rows"],
    )
    def test_trace_checks_its_fields(self, fields):
        with pytest.raises(KinkEqError):
            verify_trace(Trace(*fields))

    @pytest.mark.parametrize("at", ["start", "end"])
    @pytest.mark.parametrize(
        "G",
        [
            SymMatrix(0, ((1,),)),
            SymMatrix(1, ((1, 2), (3,))),
            SymMatrix(1, ((1, 2), (3, 4))),
            SymMatrix(-1, ((1,),)),
            SymMatrix(Fraction(1, 2), ((1,),)),
            SymMatrix(True, ((1,),)),
            SymMatrix(2, ((2,),)),
            SymMatrix(2, ()),
            SymMatrix(1, [(1,)]),
            SymMatrix(1, ([1],)),
            SymMatrix(1, ((Fraction(1, 2),),)),
            SymMatrix(1, ((True,),)),
            SymMatrix(1, None),
            SymMatrix(1, (1,)),
        ],
        ids=[
            "den_zero", "ragged", "nonsymmetric", "den_negative", "den_fraction", "den_bool",
            "den_not_least", "empty_den_2", "rows_list", "row_list", "entry_fraction",
            "entry_bool", "rows_none", "row_int",
        ],
    )
    def test_trace_refuses_what_is_not_a_lift(self, G, at):
        # a matrix built with the raw constructor is refused where the
        # Trace is built, so verify_trace keeps its promise never to raise
        G7 = SymMatrix.from_rows([[7]])
        fields = (G, (), G7) if at == "start" else (G7, (), G)
        with pytest.raises(KinkEqError, match=f"a trace's {at} is not the lift of a symmetric"):
            Trace(*fields)

    def test_trace_takes_every_lift(self):
        for G in (
            SymMatrix.empty(),
            SymMatrix.from_rows([[Fraction(1, 2), 1], [1, Fraction(-2, 3)]]),
            SymMatrix(6, ((3, 2), (2, 0))),
        ):
            assert verify_trace(Trace(G, (), G)).valid

    def test_false_three_to_minus_three_is_refused(self):
        # [3] and [-3] have different linking forms, so no trace joins
        # them; a one-row P that claims to be 4x4 would map
        # diag(3, -1, -1, -1) to [3 - 6], and is refused where it is built
        start, end = SymMatrix.from_rows([[3]]), SymMatrix.from_rows([[-3]])
        with pytest.raises(SizeMismatch):
            Trace(start, (Kink(-1),) * 3 + (Congruence(IntMatrix(4, 4, ((1, 1, 1, 2),))),), end)

    def test_congruence_entry_that_is_not_an_int(self):
        G = SymMatrix.from_rows([[1, 0], [0, 1]])
        P = IntMatrix(2, 2, ((1, 0), (0, "x")))
        report = verify_trace(Trace(G, (Congruence(P),), G))
        assert not report.valid and report.failed_step == 0
        assert report.reason == "NotIntegerMatrix: the entries of P are not all int"

    @pytest.mark.parametrize("check", [verify_trace, trace_stats])
    @pytest.mark.parametrize(
        "value", [None, "trace", five_to_minus_five_trace().moves], ids=["none", "str", "moves"]
    )
    def test_refuses_what_is_not_a_trace(self, check, value):
        # the "never raises" promise holds on a Trace; anything else is
        # refused where it enters, as a library error
        with pytest.raises(KinkEqError, match="verify_trace needs a Trace, got "):
            check(value)

    def test_tampered_congruence_rejected(self):
        trace = five_to_minus_five_trace()
        moves = list(trace.moves)
        moves[1] = Congruence(IntMatrix.from_rows([[2, 0], [0, 1]]))
        report = verify_trace(Trace(trace.start, tuple(moves), trace.end))
        assert not report.valid
        assert report.failed_step == 1
        assert "NotUnimodular" in report.reason

    def test_audit_fails_at_the_first_changed_step(self, monkeypatch):
        # a faulty kernel that doubles every congruence changes |det| at
        # step 1 (the first congruence); the audit, not a later unkink, says so
        trace = five_to_minus_five_trace()
        def doubled(G, P):
            return SymMatrix.from_rows([[2 * x for x in row] for row in congruence(G, P).entries])

        monkeypatch.setattr("kinkeq.moves.congruence", doubled)
        report = verify_trace(trace)
        assert not report.valid
        assert report.failed_step == 1
        assert report.reason == (
            "nullity 0 and |det| 20 after the step, against 0 and 5 at the start"
        )
        assert [step.abs_det for step in report.steps] == [5, 5, 20]

    def test_audit_constant_along_chain(self):
        report = verify_trace(five_to_minus_five_trace())
        assert all(step.abs_det == 5 for step in report.steps)
        assert all(step.inertia.n_zero == 0 for step in report.steps)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_valid_traces_preserve_nullity_and_absdet(self, seed):
        rng = random.Random(seed)
        start = random_sym(rng, rng.randint(1, 4), 4)
        current = start
        moves = []
        for _ in range(rng.randint(0, 10)):
            kind = rng.randrange(3)
            if kind == 0 and current.n > 0:
                move = Congruence(random_unimodular(rng, current.n))
            elif kind == 1:
                move = Kink(rng.choice([1, -1]))
            else:
                n = current.n
                if n == 0 or current[n - 1, n - 1] not in (1, -1) or any(
                    current[n - 1, j] != 0 for j in range(n - 1)
                ):
                    move = Kink(rng.choice([1, -1]))
                else:
                    move = Unkink(int(current[n - 1, n - 1]))
            current = apply_move(current, move)
            moves.append(move)
        report = verify_trace(Trace(start, tuple(moves), current))
        assert report.valid
        dets = {step.abs_det for step in report.steps}
        nullities = {step.inertia.n_zero for step in report.steps}
        assert len(dets) == 1 and len(nullities) == 1
        assert dets == {abs(determinant(start))}
        assert nullities == {inertia(start).n_zero}


class TestTraceStats:
    def test_paper_chain_five(self):
        stats = trace_stats(five_to_minus_five_trace())
        assert (
            stats.pos_kinks,
            stats.neg_kinks,
            stats.pos_unkinks,
            stats.neg_unkinks,
            stats.congruences,
        ) == (0, 1, 1, 0, 2)

    def test_empty_trace(self):
        G = SymMatrix.from_rows([[7]])
        stats = trace_stats(Trace(G, (), G))
        assert stats == type(stats)(0, 0, 0, 0, 0)

    def test_invalid_trace_raises(self):
        G = SymMatrix.from_rows([[7]])
        with pytest.raises(InvalidTrace):
            trace_stats(Trace(G, (), SymMatrix.from_rows([[8]])))


class TestCountMoves:
    def test_counts_by_kind_and_sign(self):
        P = Congruence(IntMatrix.identity(1))
        moves = [Kink(1), Kink(-1), Kink(-1), Unkink(1), Unkink(-1), Unkink(-1), Unkink(-1), P]
        assert count_moves(moves) == MoveStats(
            pos_kinks=1, neg_kinks=2, pos_unkinks=1, neg_unkinks=3, congruences=1
        )

    def test_does_not_verify(self):
        # A lone unkink replays on no matrix here; count_moves only counts.
        assert count_moves([Unkink(1)]).pos_unkinks == 1
        assert count_moves([]) == MoveStats(0, 0, 0, 0, 0)

    @pytest.mark.parametrize("value", [None, [1], "kink", [Kink(1), None]])
    def test_refuses_what_is_not_moves(self, value):
        with pytest.raises(KinkEqError, match="^count_moves takes an iterable of Congruence"):
            count_moves(value)

    def test_matches_trace_stats(self):
        trace = five_to_minus_five_trace()
        assert count_moves(trace.moves) == trace_stats(trace)


class TestReplay:
    def test_takes_any_iterable(self):
        G = SymMatrix.from_rows([[7]])
        assert replay(G, iter([Kink(-1), Unkink(-1)])) == G

    @pytest.mark.parametrize("value", [None, [1], "kink", [Kink(1), None]])
    def test_refuses_what_is_not_moves(self, value):
        with pytest.raises(KinkEqError, match="^replay takes an iterable of Congruence"):
            replay(SymMatrix.from_rows([[7]]), value)

    @pytest.mark.parametrize("start", [None, "x"])
    def test_refuses_a_start_that_is_not_a_matrix(self, start):
        # an empty move list applies no move, so the start is checked where it enters
        with pytest.raises(KinkEqError, match="^replay needs a SymMatrix"):
            replay(start, [])


def _reducer_traces(seed: int) -> list[Trace]:
    """One reduction per target of a seeded integer and a seeded rational
    matrix, each redrawn until it is nonsingular."""
    rng = random.Random(seed)
    traces = []
    for draw in (
        lambda: random_sym(rng, rng.randint(1, 4), 5),
        lambda: random_sym_rational(rng, rng.randint(1, 3), 5, 4),
    ):
        G = draw()
        while determinant(G) == 0:
            G = draw()
        traces.extend(reduce(G, target) for target in TARGETS)
    return traces


def _example_traces() -> list[Trace]:
    rng = random.Random("audit-icct")
    chains = [icct_trace(random_int_matrix(rng, n, m, bound=2)) for n, m in ((1, 1), (2, 3), (3, 2))]
    return [five_to_minus_five_trace(), obstructed_matrix_reduction_trace(), *chains]


def _full_elimination_report(trace: Trace):
    """The report of ``verify_trace`` with no block-sum rule: every step's
    inertia and |det| from a full elimination of its matrix."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kinkeq.moves, "block_extension", lambda inner, outer: None)
        return verify_trace(trace)


_block_sum, _strip_block = SymMatrix.block_sum, SymMatrix.strip_block


def _edited(G: SymMatrix, edit) -> SymMatrix:
    rows = [list(row) for row in G.rows]
    edit(rows, G.den)
    return SymMatrix(G.den, tuple(map(tuple, rows)))


def _shift_corner(rows, den):
    if rows:
        rows[0][0] += den


def _couple_last(rows, den):
    if len(rows) > 1:
        rows[0][-1] = rows[-1][0] = den


def _lax_strip(G, sign):
    """An unkink kernel that strips the last row and column, whatever they hold."""
    if not G.rows:
        return _strip_block(G, sign)
    return SymMatrix(G.den, tuple(row[:-1] for row in G.rows[:-1]))


# faulty kink and unkink kernels: each alters an entry the block-sum rule reads
TAMPERED_KERNELS = {
    "kink-shared-entry": ("block_sum", lambda G, s: _edited(_block_sum(G, s), _shift_corner)),
    "kink-den": ("block_sum", lambda G, s: SymMatrix(2 * G.den, _block_sum(G, s).rows)),
    "kink-new-row": ("block_sum", lambda G, s: _edited(_block_sum(G, s), _couple_last)),
    "kink-opposite-sign": ("block_sum", lambda G, s: _block_sum(G, -s)),
    "unkink-shared-entry": ("strip_block", lambda G, s: _edited(_strip_block(G, s), _shift_corner)),
    "unkink-den": ("strip_block", lambda G, s: SymMatrix(2 * G.den, _strip_block(G, s).rows)),
    "unkink-lax": ("strip_block", _lax_strip),
}


def _tampered_moves(trace: Trace) -> list[tuple]:
    """The moves of ``trace``, then with every unkink's sign flipped, then
    with a shear before every unkink that couples the last coordinate to
    the first; the last two need a lax unkink kernel to get past the unkink."""
    flipped = tuple(Unkink(-m.sign) if isinstance(m, Unkink) else m for m in trace.moves)
    coupled, current = [], trace.start
    for move in trace.moves:
        if isinstance(move, Unkink) and current.n > 1:
            coupled.append(Congruence(IntMatrix.shear(current.n, {(0, current.n - 1): 1})))
        coupled.append(move)
        current = apply_move(current, move)
    return [trace.moves, flipped, tuple(coupled)]


class TestAuditOracle:
    """The audit equals a full elimination after every move, on valid
    traces and on traces through faulty kink and unkink kernels."""

    def _check(self, traces):
        for trace in traces:
            assert verify_trace(trace).valid
            for moves in _tampered_moves(trace):
                tampered = Trace(trace.start, moves, trace.end)
                assert verify_trace(tampered) == _full_elimination_report(tampered)
                for name, kernel in TAMPERED_KERNELS.values():
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(SymMatrix, name, kernel)
                        report = verify_trace(tampered)
                        assert report == _full_elimination_report(tampered)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_reducer_traces(self, seed):
        self._check(_reducer_traces(seed))

    def test_icct_chains_and_worked_examples(self):
        self._check(_example_traces())

    def test_faulty_kernels_are_caught(self):
        # every faulty kernel fails some trace it replays (the lax unkink
        # only a tampered one), so the comparisons above are not between
        # two reports of untouched replays
        trace = five_to_minus_five_trace()
        tampered = [Trace(trace.start, moves, trace.end) for moves in _tampered_moves(trace)]
        for label, (name, kernel) in TAMPERED_KERNELS.items():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(SymMatrix, name, kernel)
                reports = [verify_trace(t) for t in tampered]
            assert not all(report.valid for report in reports), label

    def test_eliminates_once_per_congruence(self, monkeypatch):
        # a kink or an unkink is audited from the step before, so a valid
        # trace is eliminated once for the start and once per congruence
        calls = []

        def counted(G):
            calls.append(G)
            return audit(G)

        audit = kinkeq.moves.inertia_and_abs_det
        monkeypatch.setattr(kinkeq.moves, "inertia_and_abs_det", counted)
        for trace in _reducer_traces(7) + _example_traces():
            calls.clear()
            assert verify_trace(trace).valid
            assert len(calls) == 1 + count_moves(trace.moves).congruences

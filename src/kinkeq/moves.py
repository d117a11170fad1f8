"""Stabilization moves on symmetric matrices and replayable certificates.

A move is one of:

* ``Congruence(P)`` -- G -> P G P^T for unimodular integer P,
* ``Kink(sign)``    -- G -> G (+) [sign], growing the matrix by one,
* ``Unkink(sign)``  -- strips a trailing [sign] block, shrinking by one.

A ``Trace`` records a start matrix, a move list, and a claimed end matrix;
``verify_trace`` replays it and audits the two quantities every valid move
preserves: nullity and |determinant|.  The start and every congruence are
audited by a full elimination.  A step whose matrix is the previous one
plus a block [+-1], or the previous one less such a block, as
``block_extension`` reads from the entries, is audited by the block-sum
rule instead: one sign more or less in the inertia, and the same |det|.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import InvalidTrace, KinkEqError, NotIntegerMatrix
from .exact import (
    Inertia,
    IntMatrix,
    SymMatrix,
    block_extension,
    congruence,
    inertia_and_abs_det,
    require_lift,
    require_sym_matrix,
    write_number,
)


@dataclass(frozen=True)
class Congruence:
    matrix: IntMatrix

    def __post_init__(self):
        # the type only: a trace may record any entries, and ``verify_trace``
        # reports one that is not an int as the failure of its step
        if not isinstance(self.matrix, IntMatrix):
            raise NotIntegerMatrix(
                f"a congruence matrix is an IntMatrix, got {type(self.matrix).__name__}"
            )


def _check_sign(kind: str, sign: int) -> None:
    if not isinstance(sign, int) or sign not in (1, -1):
        got = write_number(sign) if isinstance(sign, (int, Fraction)) else repr(sign)
        raise KinkEqError(f"{kind} sign must be the int +1 or -1, got {got}")


@dataclass(frozen=True)
class Kink:
    sign: int

    def __post_init__(self):
        _check_sign("kink", self.sign)


@dataclass(frozen=True)
class Unkink:
    sign: int

    def __post_init__(self):
        _check_sign("unkink", self.sign)


Move = Union[Congruence, Kink, Unkink]
_MOVE_KINDS = (Congruence, Kink, Unkink)


def _moves(moves: object, what: str) -> tuple[Move, ...]:
    """``moves`` as a tuple; anything but an iterable of moves is refused."""
    if isinstance(moves, Iterable):
        moves = tuple(moves)
        if all(isinstance(move, _MOVE_KINDS) for move in moves):
            return moves
    raise KinkEqError(f"{what} takes an iterable of Congruence, Kink and Unkink moves")


@dataclass(frozen=True)
class Trace:
    start: SymMatrix
    moves: tuple[Move, ...]
    end: SymMatrix

    def __post_init__(self):
        require_lift(self.start, "a trace's start")
        require_lift(self.end, "a trace's end")
        if not isinstance(self.moves, tuple) or not all(
            isinstance(move, _MOVE_KINDS) for move in self.moves
        ):
            raise KinkEqError("a trace's moves are a tuple of Congruence, Kink and Unkink")


def require_trace(trace: object, what: str) -> None:
    """The check on a ``Trace`` argument of the function ``what``, where it enters."""
    if not isinstance(trace, Trace):
        raise KinkEqError(f"{what} needs a Trace, got {type(trace).__name__}")


@dataclass(frozen=True)
class StepAudit:
    """Post-move snapshot used by the |det|/nullity audit: the inertia and
    |det| of the matrix after the step, whichever way ``verify_trace``
    took them."""

    index: int  # -1 for the start matrix
    kind: str
    size: int
    inertia: Inertia
    abs_det: Fraction


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    steps: tuple[StepAudit, ...]
    failed_step: int | None = None
    reason: str | None = None


def apply_move(G: SymMatrix, move: Move) -> SymMatrix:
    """Apply one move by its kernel in ``exact``, which checks it exactly."""
    require_sym_matrix(G, "apply_move")
    if isinstance(move, Congruence):
        return congruence(G, move.matrix)
    if isinstance(move, Kink):
        return G.block_sum(move.sign)
    if isinstance(move, Unkink):
        return G.strip_block(move.sign)
    raise KinkEqError(f"unknown move {move!r}")


def replay(start: SymMatrix, moves: Iterable[Move]) -> SymMatrix:
    """``start`` after ``moves``, each applied and checked by ``apply_move``."""
    require_sym_matrix(start, "replay")
    return functools.reduce(apply_move, _moves(moves, "replay"), start)


def _kind(move: Move) -> str:
    if isinstance(move, Congruence):
        return "congruence"
    if isinstance(move, Kink):
        return f"kink({move.sign:+d})"
    return f"unkink({move.sign:+d})"


def _audit(before: SymMatrix, audit: StepAudit, after: SymMatrix) -> tuple[Inertia, Fraction]:
    """Inertia and |det| of ``after``, given the ``audit`` of ``before``.

    When one of the two matrices is the other plus a block [s], as
    ``block_extension`` reads from their entries, the sign of s is added to
    or taken from the inertia and |det| stays; otherwise ``after`` is
    eliminated in full.
    """
    step, sign = 1, block_extension(before, after)
    if sign is None:
        step, sign = -1, block_extension(after, before)
        if sign is None:
            return inertia_and_abs_det(after)
    signs = audit.inertia
    if sign > 0:
        return Inertia(signs.n_plus + step, signs.n_minus, signs.n_zero), audit.abs_det
    return Inertia(signs.n_plus, signs.n_minus + step, signs.n_zero), audit.abs_det


def verify_trace(trace: Trace) -> VerificationReport:
    """Replay a trace, checking every move precondition and the end matrix.

    Never raises on a ``Trace``, since a Trace checks its fields when it is
    built; failures are reported with the first bad step index.  Each audit
    entry records inertia and |det| after the step, as ``_audit`` takes
    them from the replayed matrix and the step before: the start and every
    congruence by a full elimination, a step that adds or strips a block
    [+-1] by the block-sum rule.  Nullity and |det| are constant along
    valid traces, so the first step whose nullity or |det| differs from the
    start's fails, with both values in the reason.
    """
    require_trace(trace, "verify_trace")
    current = trace.start
    first = StepAudit(-1, "start", current.n, *inertia_and_abs_det(current))
    steps = [first]
    for i, move in enumerate(trace.moves):
        before = current
        try:
            current = apply_move(current, move)
        except KinkEqError as exc:
            return VerificationReport(
                False, tuple(steps), failed_step=i, reason=f"{type(exc).__name__}: {exc}"
            )
        step = StepAudit(i, _kind(move), current.n, *_audit(before, steps[-1], current))
        steps.append(step)
        if (step.inertia.n_zero, step.abs_det) != (first.inertia.n_zero, first.abs_det):
            return VerificationReport(
                False,
                tuple(steps),
                failed_step=i,
                reason=f"nullity {step.inertia.n_zero} and |det| {write_number(step.abs_det)}"
                f" after the step, against {first.inertia.n_zero} and"
                f" {write_number(first.abs_det)} at the start",
            )
    if current != trace.end:
        return VerificationReport(
            False,
            tuple(steps),
            failed_step=len(trace.moves),
            reason="replayed matrix differs from the recorded end matrix",
        )
    return VerificationReport(True, tuple(steps))


@dataclass(frozen=True)
class MoveStats:
    pos_kinks: int
    neg_kinks: int
    pos_unkinks: int
    neg_unkinks: int
    congruences: int


def count_moves(moves: Iterable[Move]) -> MoveStats:
    """Move counts by kind and sign; the moves are only counted, not replayed."""
    moves = _moves(moves, "count_moves")
    tally = Counter((type(move), getattr(move, "sign", None)) for move in moves)
    return MoveStats(
        pos_kinks=tally[Kink, 1],
        neg_kinks=tally[Kink, -1],
        pos_unkinks=tally[Unkink, 1],
        neg_unkinks=tally[Unkink, -1],
        congruences=tally[Congruence, None],
    )


def trace_stats(trace: Trace) -> MoveStats:
    """Exact move counts by kind; the trace must verify."""
    report = verify_trace(trace)
    if not report.valid:
        raise InvalidTrace(f"step {report.failed_step}: {report.reason}")
    return count_moves(trace.moves)

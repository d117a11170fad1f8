"""Command-line front end.

Exit codes: 0 success / valid certificate, 1 invalid certificate,
2 usage or parse error, or any other failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .cct import cct_search, icct_trace, reduce_binary_form, reduced_gram_factor
from .errors import InvalidTrace, KinkEqError, NotUnimodularForm
from .exact import SymMatrix, determinant, inertia, inertia_and_abs_det, write_number
from .formats import (
    parse_int_matrix,
    parse_matrix,
    parse_quadratic_form,
    parse_trace,
    read_number,
    serialize_int_matrix,
    serialize_matrix,
    serialize_trace,
)
from .goeritz import goeritz_matrix, parse_diagram
from .moves import count_moves, trace_stats, verify_trace
from .reducer import (
    NEG_DEFINITE,
    NEG_SEMIDEFINITE,
    POS_DEFINITE,
    POS_SEMIDEFINITE,
    four_squares,
    reduce,
)

_TARGET_NAMES = {
    "pos": POS_DEFINITE,
    "neg": NEG_DEFINITE,
    "pos-semi": POS_SEMIDEFINITE,
    "neg-semi": NEG_SEMIDEFINITE,
}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="kinkeq",
        description="Exact kink-equivalence computations on symmetric matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inertia", help="eigenvalue sign counts of a matrix file")
    p.add_argument("file")

    p = sub.add_parser("det", help="exact determinant of a matrix file")
    p.add_argument("file")

    p = sub.add_parser("reduce", help="reduce to a (semi)definite representative")
    p.add_argument("file")
    p.add_argument("--target", choices=sorted(_TARGET_NAMES), required=True)
    p.add_argument("--out", help="write the trace here instead of stdout")

    p = sub.add_parser("verify", help="replay and check a trace certificate")
    p.add_argument("file")

    p = sub.add_parser("stats", help="move counts of a valid trace")
    p.add_argument("file")

    p = sub.add_parser("foursquares", help="write K as a sum of four squares")
    p.add_argument("k")

    p = sub.add_parser("cct", help="Gram-factor operations")
    cct_sub = p.add_subparsers(dest="cct_command", required=True)
    q = cct_sub.add_parser("search", help="exhaustive search for C with CC^T = G")
    q.add_argument("file")
    q = cct_sub.add_parser("icct", help="trace from I + CC^T to -(I + C^T C)")
    q.add_argument("cfile")
    q = cct_sub.add_parser("reduce2", help="reduced form of a 2x2 positive-definite matrix")
    q.add_argument("file")

    p = sub.add_parser("goeritz", help="Goeritz matrix of a diagram file")
    p.add_argument("file")

    p = sub.add_parser("qform", help="Gram matrix of a quadratic form expression")
    p.add_argument("expr")

    p = sub.add_parser("report", help="arithmetic reports")
    rep_sub = p.add_subparsers(dest="report_command", required=True)
    q = rep_sub.add_parser("blowup", help="stabilization report for a unimodular form")
    q.add_argument("file")

    return parser


def blowup_report(G: SymMatrix) -> str:
    """Arithmetic stabilization report for a unimodular symmetric form.

    States how many stabilizations of each sign make the form congruent to
    a definite form plus identity blocks, and attaches the verifying traces
    produced by ``reduce`` for both targets.
    """
    sig, abs_det = inertia_and_abs_det(G) if G.is_integral() else (None, None)
    if abs_det != 1:
        raise NotUnimodularForm("report requires an integer matrix with determinant +1 or -1")
    n_plus, n_minus = sig.n_plus, sig.n_minus
    trace_neg = reduce(G, NEG_DEFINITE)
    trace_pos = reduce(G, POS_DEFINITE)
    neg_kinks = count_moves(trace_neg.moves).neg_kinks
    pos_kinks = count_moves(trace_pos.moves).pos_kinks
    lines = [
        "blow-up arithmetic report",
        f"size n = {G.n}, inertia (n+, n-, n0) = ({n_plus}, {n_minus}, {sig.n_zero}), "
        f"signature = {sig.signature}",
        "",
        f"claim 1: G (+) -I_{4 * n_plus} is congruent to (negative-definite) (+) I_{n_plus}",
        f"  witness: trace to a negative-definite matrix of size {trace_neg.end.n} "
        f"using {neg_kinks} negative kinks (bound {4 * n_plus}) and {n_plus} positive unkinks",
        f"claim 2: G (+) I_{4 * n_minus} is congruent to (positive-definite) (+) -I_{n_minus}",
        f"  witness: trace to a positive-definite matrix of size {trace_pos.end.n} "
        f"using {pos_kinks} positive kinks (bound {4 * n_minus}) and {n_minus} negative unkinks",
        "",
        "--- trace (target neg_definite) ---",
        serialize_trace(trace_neg).rstrip("\n"),
        "--- trace (target pos_definite) ---",
        serialize_trace(trace_pos).rstrip("\n"),
    ]
    return "\n".join(lines) + "\n"


def _run(args: argparse.Namespace) -> int:
    if args.command == "inertia":
        sig = inertia(parse_matrix(_read(args.file)))
        print(f"{sig.n_plus} {sig.n_minus} {sig.n_zero}")
    elif args.command == "det":
        print(write_number(determinant(parse_matrix(_read(args.file)))))
    elif args.command == "reduce":
        trace = reduce(parse_matrix(_read(args.file)), _TARGET_NAMES[args.target])
        text = serialize_trace(trace)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"end matrix (size {trace.end.n}):")
            sys.stdout.write(serialize_matrix(trace.end))
        else:
            sys.stdout.write(text)
    elif args.command == "verify":
        report = verify_trace(parse_trace(_read(args.file)))
        if report.valid:
            last = report.steps[-1]
            print(
                f"valid: {len(report.steps) - 1} moves, end size {last.size}, "
                f"|det| = {write_number(last.abs_det)}, nullity = {last.inertia.n_zero}"
            )
        else:
            print(f"INVALID at step {report.failed_step}: {report.reason}")
            return 1
    elif args.command == "stats":
        stats = trace_stats(parse_trace(_read(args.file)))
        print(
            f"pos_kinks {stats.pos_kinks} neg_kinks {stats.neg_kinks} "
            f"pos_unkinks {stats.pos_unkinks} neg_unkinks {stats.neg_unkinks} "
            f"congruences {stats.congruences}"
        )
    elif args.command == "foursquares":
        a, b, c, d = four_squares(read_number(args.k, None, True))
        print(f"{a} {b} {c} {d}")
    elif args.command == "cct":
        if args.cct_command == "search":
            factor = cct_search(parse_matrix(_read(args.file)))
            if factor is None:
                print("NONE")
            else:
                sys.stdout.write(serialize_int_matrix(factor.matrix))
        elif args.cct_command == "icct":
            trace = icct_trace(parse_int_matrix(_read(args.cfile)))
            sys.stdout.write(serialize_trace(trace))
        else:
            A = parse_matrix(_read(args.file))
            reduced, witness = reduce_binary_form(A)
            sys.stdout.write(serialize_matrix(reduced))
            sys.stdout.write(serialize_int_matrix(witness))
            factor = reduced_gram_factor(reduced, witness)
            sys.stdout.write(serialize_int_matrix(factor.matrix))
    elif args.command == "goeritz":
        sys.stdout.write(serialize_matrix(goeritz_matrix(parse_diagram(_read(args.file)))))
    elif args.command == "qform":
        sys.stdout.write(serialize_matrix(parse_quadratic_form(args.expr)))
    elif args.command == "report":
        sys.stdout.write(blowup_report(parse_matrix(_read(args.file))))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except InvalidTrace as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    except (KinkEqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect or an exhausted resource, never an invalid certificate
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

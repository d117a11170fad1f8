"""Command-line interface: subcommands, formats, exit codes."""

import re
from fractions import Fraction

import pytest

from kinkeq.cli import blowup_report, main
from kinkeq.errors import NotUnimodularForm
from kinkeq.formats import parse_trace, serialize_matrix, serialize_trace
from kinkeq import SymMatrix, inertia, verify_trace
from kinkeq.worked_examples import OBSTRUCTED_GRAM_MATRIX, five_to_minus_five_trace

from oracles import decimal_value


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_inertia(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 2\n5 3\n3 6\n")
    assert main(["inertia", path]) == 0
    assert capsys.readouterr().out.strip() == "2 0 0"


def test_det(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 2\n5 3\n3 6\n")
    assert main(["det", path]) == 0
    assert capsys.readouterr().out.strip() == "21"


def test_det_rational(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 1\n1/2\n")
    assert main(["det", path]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_reduce_stdout_verifies(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 1\n5\n")
    assert main(["reduce", path, "--target", "neg"]) == 0
    trace = parse_trace(capsys.readouterr().out)
    assert verify_trace(trace).valid
    assert trace.end == SymMatrix.from_rows([[-5]])


def test_reduce_out_file(matrix_file, tmp_path, capsys):
    path = matrix_file("g.sym", "sym 2\n0 0\n0 -2\n")
    out = str(tmp_path / "trace.txt")
    assert main(["reduce", path, "--target", "pos-semi", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        trace = parse_trace(fh.read())
    assert verify_trace(trace).valid
    assert "end matrix" in capsys.readouterr().out


def test_reduce_singular_definite_is_usage_error(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 1\n0\n")
    assert main(["reduce", path, "--target", "neg"]) == 2


def test_verify_valid(matrix_file, capsys):
    path = matrix_file("t.txt", serialize_trace(five_to_minus_five_trace()))
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out.startswith("valid")


def test_verify_invalid_exit_1(matrix_file, capsys):
    text = serialize_trace(five_to_minus_five_trace()).replace("end -5", "end -7")
    path = matrix_file("t.txt", text)
    assert main(["verify", path]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_verify_false_three_to_minus_three_exit_1(matrix_file, capsys):
    # [3] and [-3] are not kink-equivalent; the one-row P claims to be 4x4
    text = "trace\n3\n" + "kink -1\n" * 3 + "congr 1 1 1 2\nend -3\n"
    assert main(["verify", matrix_file("t.txt", text)]) == 1
    assert "SizeMismatch: P is 1x4, G is 4x4" in capsys.readouterr().out


def test_stats(matrix_file, capsys):
    path = matrix_file("t.txt", serialize_trace(five_to_minus_five_trace()))
    assert main(["stats", path]) == 0
    out = capsys.readouterr().out
    assert "neg_kinks 1" in out and "pos_unkinks 1" in out and "congruences 2" in out


def test_stats_invalid_exit_1(matrix_file, capsys):
    text = serialize_trace(five_to_minus_five_trace()).replace("end -5", "end -7")
    path = matrix_file("t.txt", text)
    assert main(["stats", path]) == 1


def test_foursquares(capsys):
    assert main(["foursquares", "7"]) == 0
    assert capsys.readouterr().out.strip() == "2 1 1 1"


def test_foursquares_negative_is_error(capsys):
    assert main(["foursquares", "-3"]) == 2


def test_cct_search_found(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 1\n2\n")
    assert main(["cct", "search", path]) == 0
    assert capsys.readouterr().out == "int 1 2\n1 1\n"


def test_cct_search_long_row(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 1\n1200\n")
    assert main(["cct", "search", path]) == 0
    assert capsys.readouterr().out == "int 1 4\n34 6 2 2\n"


def test_cct_search_none(matrix_file, capsys):
    path = matrix_file("g.sym", serialize_matrix(OBSTRUCTED_GRAM_MATRIX))
    assert main(["cct", "search", path]) == 0
    assert capsys.readouterr().out == "NONE\n"


def test_cct_icct(matrix_file, capsys):
    path = matrix_file("c.int", "int 1 1\n1\n")
    assert main(["cct", "icct", path]) == 0
    trace = parse_trace(capsys.readouterr().out)
    assert verify_trace(trace).valid


def test_cct_icct_rows_of_no_entries(matrix_file, capsys):
    path = matrix_file("c.int", "int 2 0\n\n\n")
    assert main(["cct", "icct", path]) == 0
    trace = parse_trace(capsys.readouterr().out)
    assert verify_trace(trace).valid
    assert trace.start == trace.end.neg().block_sum(1).block_sum(1)


def test_cct_reduce2(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 2\n5 3\n3 6\n")
    assert main(["cct", "reduce2", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sym 2\n5 2\n2 5\n")


def test_cct_reduce2_reduces_once(matrix_file, capsys, monkeypatch):
    import kinkeq.cct
    import kinkeq.cli

    original = kinkeq.cct.reduce_binary_form
    calls = []

    def counting(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(kinkeq.cli, "reduce_binary_form", counting)
    monkeypatch.setattr(kinkeq.cct, "reduce_binary_form", counting)
    path = matrix_file("g.sym", "sym 2\n5 3\n3 6\n")
    assert main(["cct", "reduce2", path]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "sym 2\n5 2\n2 5\n"
        "int 2 2\n1 0\n1 -1\n"
        "int 2 8\n1 1 1 1 1 0 0 0\n1 1 1 0 0 1 1 1\n"
    )


def test_goeritz(matrix_file, capsys):
    path = matrix_file(
        "d.txt", "regions 4\n0 1 +\n1 2 +\n0 2 +\n0 2 +\n2 3 +\n0 3 +\n0 3 +\n"
    )
    assert main(["goeritz", path]) == 0
    assert capsys.readouterr().out == "sym 3\n2 -1 0\n-1 4 -1\n0 -1 3\n"


def test_qform(capsys):
    assert main(["qform", "5*x1^2 + 6*x1*x2 + 6*x2^2"]) == 0
    assert capsys.readouterr().out == "sym 2\n5 3\n3 6\n"


def test_qform_error_exit_2(capsys):
    assert main(["qform", "y^2"]) == 2


def test_report_blowup(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 1\n1\n")
    assert main(["report", "blowup", path]) == 0
    assert "blow-up arithmetic report" in capsys.readouterr().out


def test_report_blowup_non_unimodular_exit_2(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 1\n2\n")
    assert main(["report", "blowup", path]) == 2


REPORT_BLOWUP_HYPERBOLIC = (
    "blow-up arithmetic report\n"
    "size n = 2, inertia (n+, n-, n0) = (1, 1, 0), signature = 0\n"
    "\n"
    "claim 1: G (+) -I_4 is congruent to (negative-definite) (+) I_1\n"
    "  witness: trace to a negative-definite matrix of size 2 "
    "using 1 negative kinks (bound 4) and 1 positive unkinks\n"
    "claim 2: G (+) I_4 is congruent to (positive-definite) (+) -I_1\n"
    "  witness: trace to a positive-definite matrix of size 2 "
    "using 1 positive kinks (bound 4) and 1 negative unkinks\n"
    "\n"
    "--- trace (target neg_definite) ---\n"
    "trace\n"
    "0 1;1 0\n"
    "kink -1\n"
    "congr 0 1 1;1 1 2;1 1 1\n"
    "unkink +1\n"
    "end -1 -1;-1 -2\n"
    "--- trace (target pos_definite) ---\n"
    "trace\n"
    "0 1;1 0\n"
    "kink +1\n"
    "congr 0 1 -1;1 -1 2;1 -1 1\n"
    "unkink -1\n"
    "end 1 -1;-1 2\n"
)


def test_report_blowup_golden(matrix_file, capsys):
    """The whole report on the hyperbolic plane, byte for byte."""
    path = matrix_file("h.sym", "sym 2\n0 1\n1 0\n")
    assert main(["report", "blowup", path]) == 0
    assert capsys.readouterr().out == REPORT_BLOWUP_HYPERBOLIC


class TestBlowupReport:
    def test_scalar(self):
        report = blowup_report(SymMatrix.from_rows([[1]]))
        assert "inertia (n+, n-, n0) = (1, 0, 0)" in report
        assert "-I_4" in report and "I_0" in report

    def test_indefinite_diag(self):
        report = blowup_report(SymMatrix.diagonal([1, -1]))
        assert "(1, 1, 0)" in report

    def test_hyperbolic(self):
        report = blowup_report(SymMatrix.from_rows([[0, 1], [1, 0]]))
        assert "(1, 1, 0)" in report and "signature = 0" in report

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularForm):
            blowup_report(SymMatrix.from_rows([[2]]))
        with pytest.raises(NotUnimodularForm):
            blowup_report(SymMatrix.from_rows([[Fraction(1, 2)]]))

    def test_embedded_traces_verify(self):
        report = blowup_report(SymMatrix.from_rows([[0, 1], [1, 0]]))
        sections = report.split("--- trace (target ")
        assert len(sections) == 3
        for section in sections[1:]:
            _, _, body = section.partition("---\n")
            trace = parse_trace(body)
            assert verify_trace(trace).valid
        neg_trace = parse_trace(sections[1].partition("---\n")[2])
        assert inertia(neg_trace.end).n_plus == 0


def test_parse_error_exit_2(matrix_file, capsys):
    path = matrix_file("g.sym", "sym 2\n1 2\n3 4\n")
    assert main(["inertia", path]) == 2


@pytest.mark.parametrize(
    "argv, text",
    [
        (["det"], "sym 1\n3/0\n"),
        (["verify"], "trace\n3/0\nend 3\n"),
        (["qform", "3/0*x1^2"], None),
    ],
)
def test_zero_denominator_exit_2(matrix_file, capsys, argv, text):
    if text is not None:
        argv = argv + [matrix_file("in.txt", text)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zero denominator" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, text",
    [
        (["det"], "sym 1\n" + "7" * 5000 + "\n"),
        (["verify"], "trace\n" + "7" * 5000 + "\nend 1\n"),
        (["qform", "x" + "1" * 5000 + "^2"], None),
    ],
    ids=["det", "verify", "qform"],
)
def test_number_past_int_conversion_limit_exit_2(matrix_file, capsys, argv, text):
    if text is not None:
        argv = argv + [matrix_file("in.txt", text)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too long" in err
    assert err.count("\n") == 1


# two 3000-digit entries, each readable; their product has 6000 digits
A = "1" + "0" * 2994 + "12345"
B = "3" * 3000


def test_det_past_int_conversion_limit(matrix_file, capsys):
    path = matrix_file("big.sym", f"sym 2\n{A} 0\n0 -{B}\n")
    assert main(["det", path]) == 0
    assert decimal_value(capsys.readouterr().out.strip()) == -int(A) * int(B)


def test_verify_past_int_conversion_limit(matrix_file, capsys):
    path = matrix_file("big.trace", f"trace\n{A} 0;0 {B}\nend {A} 0;0 {B}\n")
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out.strip()
    match = re.fullmatch(r"valid: 0 moves, end size 2, \|det\| = ([0-9]+), nullity = 0", out)
    assert match and decimal_value(match[1]) == int(A) * int(B)


# M of 2500 nines and X of 2200 sevens, each readable
M = "9" * 2500
X = "7" * 2200


@pytest.mark.parametrize(
    "text, reason, value",
    [
        # the shear by M makes the unkinked entry A*M^2 + 1, of 8000 digits
        (
            f"trace\n{A} 0;0 1\ncongr 1 0;{M} 1\nunkink +1\nend 1\n",
            r"1: UnkinkShapeViolation: trailing diagonal entry is ([0-9]+), expected 1",
            int(A) * int(M) ** 2 + 1,
        ),
        # the diagonal P = X*I has det(P) = X^2, of 4400 digits
        (
            f"trace\n1 0;0 1\ncongr {X} 0;0 {X}\nend 1 0;0 1\n",
            r"0: NotUnimodular: det\(P\) = ([0-9]+)",
            int(X) ** 2,
        ),
    ],
    ids=["unkink", "congruence"],
)
def test_verify_invalid_message_past_int_conversion_limit(matrix_file, capsys, text, reason, value):
    # the reason prints its number at any length, so the step is INVALID, not an error
    assert main(["verify", matrix_file("t.txt", text)]) == 1
    match = re.fullmatch(f"INVALID at step {reason}", capsys.readouterr().out.strip())
    assert match and decimal_value(match[1]) == value


def test_unexpected_exception_exit_2(matrix_file, capsys, monkeypatch):
    import kinkeq.cli

    def broken(G):
        raise RuntimeError("boom")

    monkeypatch.setattr(kinkeq.cli, "determinant", broken)
    assert main(["det", matrix_file("g.sym", "sym 1\n3\n")]) == 2
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"


def test_missing_file_exit_2(capsys):
    assert main(["inertia", "/nonexistent/file"]) == 2


def test_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_parser_reused_after_usage_error(matrix_file, capsys):
    # the parser is built once per process: a failed parse leaves nothing behind
    path = matrix_file("m.txt", "sym 2\n5 3\n3 6\n")
    assert main(["det"]) == 2
    assert main(["foursquares", "x"]) == 2
    capsys.readouterr()
    assert main(["det", path]) == 0
    assert capsys.readouterr().out == "21\n"
    assert main(["inertia", path]) == 0
    assert capsys.readouterr().out == "2 0 0\n"

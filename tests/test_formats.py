"""Text formats: matrices, traces and quadratic forms."""

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinkeq import (
    Congruence,
    IntMatrix,
    SymMatrix,
    Trace,
    goeritz_matrix,
    parse_diagram,
    verify_trace,
)
from kinkeq.cli import main
from kinkeq.errors import (
    BadRational,
    DegreeError,
    KinkEqError,
    NotIntegerMatrix,
    NotSymmetric,
    ParseError,
    UnknownVariable,
)
from kinkeq.exact import write_number
from kinkeq.formats import (
    _READ,
    _WRITE,
    parse_int_matrix,
    parse_matrix,
    parse_quadratic_form,
    parse_trace,
    read_number,
    read_rows,
    serialize_int_matrix,
    serialize_matrix,
    serialize_trace,
)
from kinkeq.worked_examples import (
    five_to_minus_five_trace,
    obstructed_matrix_reduction_trace,
)

from oracles import decimal_value, quadratic_value, random_sym_rational

# past CPython's default int string-conversion limit (4300 digits)
LONG = "7" * 5000


class TestMatrixFormat:
    def test_basic(self):
        assert parse_matrix("sym 2\n5 3\n3 6\n") == SymMatrix.from_rows([[5, 3], [3, 6]])

    def test_rational(self):
        assert parse_matrix("sym 1\n1/2\n") == SymMatrix.from_rows([[Fraction(1, 2)]])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            parse_matrix("sym 2\n1 2\n3 4\n")

    def test_rejects_bad_rational(self):
        with pytest.raises(BadRational) as exc:
            parse_matrix("sym 1\n0.5\n")
        assert exc.value.line == 2

    def test_rejects_zero_denominator(self):
        with pytest.raises(BadRational) as exc:
            parse_matrix("sym 1\n3/0\n")
        assert exc.value.line == 2

    def test_rejects_non_ascii_space(self):
        with pytest.raises(ParseError, match="non-ASCII space") as exc:
            parse_matrix("sym 2\n1\u00a00\n0 1\n")
        assert exc.value.line == 2

    def test_rejects_bad_header(self):
        with pytest.raises(ParseError):
            parse_matrix("matrix 2\n1 0\n0 1\n")
        with pytest.raises(ParseError):
            parse_matrix("")

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_matrix("sym 2\n1 0\n")

    def test_empty_matrix(self):
        assert parse_matrix("sym 0\n") == SymMatrix.empty()
        assert serialize_matrix(SymMatrix.empty()) == "sym 0\n"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        G = random_sym_rational(rng, rng.randint(0, 5), 9, 7)
        assert parse_matrix(serialize_matrix(G)) == G


class TestIntMatrixFormat:
    def test_round_trip(self):
        C = IntMatrix.from_rows([[1, -2, 0], [3, 4, 5]])
        assert parse_int_matrix(serialize_int_matrix(C)) == C

    def test_empty(self):
        C = IntMatrix.from_rows([], cols=0)
        assert parse_int_matrix(serialize_int_matrix(C)) == C

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (2, 0), (2, 3)])
    def test_round_trip_shapes(self, rows, cols):
        C = IntMatrix.from_rows([[i - j for j in range(cols)] for i in range(rows)], cols=cols)
        text = serialize_int_matrix(C)
        assert text == f"int {rows} {cols}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in C.entries
        )
        assert parse_int_matrix(text) == C

    def test_rows_of_no_entries_are_blank_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_int_matrix("int 2 0\n\n5\n")
        assert exc.value.line == 3
        with pytest.raises(ParseError):  # the row count must not pass the text
            parse_int_matrix("int 1000000000000 0\n\n")

    def test_rejects_fraction(self):
        with pytest.raises(ParseError):
            parse_int_matrix("int 1 1\n1/2\n")


class TestReadRows:
    """A row without "/" is read by ``int`` alone; it must give what the
    per-token reading gives, and refuse what it refuses."""

    @staticmethod
    def random_line(rng):
        rows = []
        for _ in range(rng.randint(1, 4)):
            tokens = [
                rng.choice(["", "+", "-"]) + "0" * rng.randint(0, 2) + str(rng.randrange(10**12))
                for _ in range(rng.randint(0, 6))
            ]
            gap = rng.choice([" ", "  ", "\t"])
            rows.append(rng.choice(["", " "]) + gap.join(tokens) + rng.choice(["", " "]))
        return ";".join(rows)

    def test_integer_line_equals_per_token_path(self):
        rng = random.Random(7)
        for _ in range(300):
            line = self.random_line(rng)
            rows = read_rows(line, None, False)
            assert rows == read_rows(line, None, True)
            assert rows == [[Fraction(t) for t in row.split()] for row in line.split(";")]
            assert all(type(x) is int for row in rows for x in row)

    def test_mixed_line(self):
        rows = read_rows("1/2 3; 4 -6/4;5 6", None, False)
        assert rows == [[Fraction(1, 2), 3], [4, Fraction(-3, 2)], [5, 6]]
        assert [[type(x) for x in row] for row in rows] == [
            [Fraction, int],
            [int, Fraction],
            [int, int],
        ]

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("1 2x", BadRational, "line 4: bad number '2x'"),
            ("1 _2", BadRational, "line 4: bad number '_2'"),
            ("1 \u0663", BadRational, "line 4: bad number '\u0663'"),
            ("1\u00a02", ParseError, "line 4: non-ASCII space in '1\\xa02'"),
            (LONG, BadRational, "line 4: number too long (5000 characters)"),
        ],
        ids=["letter", "underscore", "arabic-indic-digit", "no-break-space", "long"],
    )
    @pytest.mark.parametrize("integers", [False, True])
    def test_refusals(self, text, error, message, integers):
        with pytest.raises(ParseError) as exc:
            read_rows(text, 4, integers)
        assert type(exc.value) is error
        assert str(exc.value) == message


class TestTokenTables:
    """Small integers are read and written through the ``_READ`` and
    ``_WRITE`` tables; hit or miss, every token reads as ``int`` and
    ``Fraction`` read it, every number is written as ``str`` writes it,
    and every refusal is the one of the token's first fault."""

    EDGES = ["256", "-256", "257", "-257", "+256", "0256", "-0257"]
    LIMIT = "9" * 4300  # the longest token CPython's default limit reads

    @staticmethod
    def expected(token):
        """What ``read_rows`` gives or raises for the one-token ``token``."""
        if not token.isascii() or "_" in token:
            return BadRational, f"line 3: bad number {token!r}"
        try:
            value = int(token)
        except ValueError:
            return BadRational, f"line 3: number too long ({len(token)} characters)"
        assert value == Fraction(token)
        return value

    def test_tables_hold_their_own_conversions(self):
        assert all(type(_READ[t]) is int and str(_READ[t]) == t for t in _READ)
        assert all(type(v) is int and _WRITE[v] == str(v) for v in _WRITE)
        assert {"256", "-256"} <= _READ.keys() and not {"257", "-257"} & _READ.keys()
        assert {256, -256} <= _WRITE.keys() and not {257, -257} & _WRITE.keys()

    def check_token(self, token):
        expected = self.expected(token)
        for integers in (False, True):
            # the row path, and the token path of a row that holds a "/"
            for text, at in ((token, 0), (f"1/2 {token}", 1)):
                if integers and "/" in text:
                    continue
                if isinstance(expected, tuple):
                    with pytest.raises(ParseError) as exc:
                        read_rows(text, 3, integers)
                    assert (type(exc.value), str(exc.value)) == expected
                else:
                    value = read_rows(text, 3, integers)[0][at]
                    assert type(value) is int and value == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["", "+", "-"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=300),
    )
    def test_random_tokens_read_as_int(self, sign, zeros, value):
        self.check_token(f"{sign}{'0' * zeros}{value}")

    @pytest.mark.parametrize(
        "token",
        EDGES + ["-0", "+0", "00", LIMIT, "-" + LIMIT, "0" + LIMIT, "9" + LIMIT,
                 "\u0663", "1\u0663", "\uff11", "1_0", "_1", "-_1"],
        ids=EDGES + ["-0", "+0", "00", "at-limit", "signed-at-limit", "zero-past-limit",
                     "past-limit", "arabic-indic", "mixed-digits", "fullwidth", "1_0", "_1", "-_1"],
    )
    def test_fixed_tokens(self, token):
        self.check_token(token)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-300, max_value=300),
                st.integers(min_value=-(2**2100), max_value=2**2100),
            ),
            max_size=5,
        ),
        st.integers(min_value=1, max_value=600),
    )
    def test_writers_print_as_str_and_read_back(self, values, den):
        C = IntMatrix.from_rows([values], cols=len(values))
        text = serialize_int_matrix(C)
        assert text == f"int 1 {len(values)}\n" + " ".join(map(str, values)) + "\n"
        assert parse_int_matrix(text) == C
        G = SymMatrix.diagonal([Fraction(v, den) for v in values])
        text = serialize_matrix(G)
        assert text == f"sym {G.n}\n" + "".join(
            " ".join(str(Fraction(x, G.den)) for x in row) + "\n" for row in G.rows
        )
        assert parse_matrix(text) == G
        assert parse_trace(serialize_trace(Trace(G, (), G))) == Trace(G, (), G)

    @pytest.mark.parametrize("den", [1, 3])
    def test_rows_past_the_conversion_limit(self, den):
        # an entry past the limit sends its whole row to write_number
        big = 10**5000 + 7
        rows = [[257, big], [big, -256]]
        G = SymMatrix.from_rows([[Fraction(x, den) for x in row] for row in rows])
        for line, row in zip(serialize_matrix(G).splitlines()[1:], rows):
            tokens = [t.partition("/") for t in line.split(" ")]
            assert [Fraction(decimal_value(p), int(q or 1)) for p, _, q in tokens] == [
                Fraction(x, den) for x in row
            ]
            small = [t for t, x in zip(line.split(" "), row) if x != big]
            assert small == [str(Fraction(x, den)) for x in row if x != big]


class TestPastLimitOutput:
    """The writers print integers of any length; the readers still refuse
    tokens past 4300 digits."""

    BIG = 10**5000 + 7

    def test_matrix(self):
        text = serialize_matrix(SymMatrix.diagonal([self.BIG]))
        header, entry = text.splitlines()
        assert header == "sym 1" and decimal_value(entry) == self.BIG

    def test_trace_end(self):
        from kinkeq import Kink, Trace

        G = SymMatrix.diagonal([-self.BIG])
        trace = Trace(G, (Kink(1),), G.block_sum(1))
        assert verify_trace(trace).valid
        lines = serialize_trace(trace).splitlines()
        assert lines[0] == "trace" and lines[2] == "kink +1"
        assert decimal_value(lines[1]) == -self.BIG
        keyword, first, rest = lines[3].split(" ", 2)
        assert keyword == "end" and decimal_value(first) == -self.BIG
        assert rest == "0;0 1"

    def test_rational_entry(self):
        text = serialize_matrix(SymMatrix.diagonal([Fraction(self.BIG, 3), 1]))
        numerator, denominator = text.splitlines()[1].split(" ")[0].split("/")
        assert (decimal_value(numerator), denominator) == (self.BIG, "3")


class TestTraceFormat:
    @pytest.mark.parametrize(
        "trace", [five_to_minus_five_trace(), obstructed_matrix_reduction_trace()]
    )
    def test_round_trip(self, trace):
        text = serialize_trace(trace)
        assert parse_trace(text) == trace
        # a tab may follow a move keyword, as it may follow "sym" or "regions"
        lines = text.splitlines()
        tabbed = "\n".join(lines[:2] + [line.replace(" ", "\t", 1) for line in lines[2:]])
        assert "kink\t-1" in tabbed and "end\t" in tabbed
        assert parse_trace(tabbed) == trace

    def test_empty_matrices(self):
        from kinkeq import Kink, Trace, Unkink

        trace = Trace(
            SymMatrix.empty(), (Kink(1), Unkink(1)), SymMatrix.empty()
        )
        text = serialize_trace(trace)
        assert "empty" in text
        assert parse_trace(text) == trace
        assert verify_trace(trace).valid

    def test_rejects_missing_end(self):
        with pytest.raises(ParseError):
            parse_trace("trace\n5\nkink -1\n")
        with pytest.raises(ParseError, match="needs at least"):
            parse_trace("trace\n5\n")

    def test_rejects_bad_move(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("trace\n5\ntwist +1\nend 5\n")
        assert exc.value.line == 3

    def test_rejects_bad_sign(self):
        with pytest.raises(ParseError):
            parse_trace("trace\n5\nkink 2\nend 5\n")

    def test_rejects_zero_denominator(self):
        with pytest.raises(BadRational) as exc:
            parse_trace("trace\n5\nend 1/0\n")
        assert exc.value.line == 3


class TestQuadraticForm:
    def test_paper_translation(self):
        G = parse_quadratic_form("5*x1^2 + 6*x1*x2 + 6*x2^2")
        assert G == SymMatrix.from_rows([[5, 3], [3, 6]])

    def test_single_square(self):
        assert parse_quadratic_form("x1^2") == SymMatrix.from_rows([[1]])

    def test_odd_cross_term(self):
        G = parse_quadratic_form("x1*x2")
        assert G == SymMatrix.from_rows(
            [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
        )

    def test_rational_coefficient_and_gaps(self):
        G = parse_quadratic_form("1/2*x1^2 - x1*x2 + 2*x2^2")
        assert G == SymMatrix.from_rows(
            [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), 2]]
        )

    def test_rejects_zero_denominator(self):
        with pytest.raises(BadRational):
            parse_quadratic_form("3/0*x1^2")

    def test_repeated_variable_product(self):
        assert parse_quadratic_form("x1*x1") == SymMatrix.from_rows([[1]])

    def test_exponents(self):
        assert parse_quadratic_form("x1^1*x2") == parse_quadratic_form("x1*x2")
        assert parse_quadratic_form("x1^0*x2^2") == SymMatrix.diagonal([0, 1])
        assert parse_quadratic_form("3*x1^2*x2^0") == SymMatrix.from_rows([[3]])

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_quadratic_form("y^2")
        with pytest.raises(UnknownVariable):
            parse_quadratic_form("x0^2")

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            parse_quadratic_form("x1^2*x2")
        with pytest.raises(DegreeError):
            parse_quadratic_form("x1 + x2^2")
        with pytest.raises(DegreeError):
            parse_quadratic_form("x1^3")
        with pytest.raises(DegreeError):
            parse_quadratic_form("x1^0")

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_quadratic_form("")
        with pytest.raises(ParseError):
            parse_quadratic_form("x1^2 + +")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_evaluation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        coeffs = {}
        terms = []
        for i in range(1, n + 1):
            c = rng.randint(-5, 5)
            coeffs[(i, i)] = c
            terms.append(f"{c}*x{i}^2" if c >= 0 else f"-{-c}*x{i}^2")
            for j in range(i + 1, n + 1):
                c = rng.randint(-5, 5)
                coeffs[(i, j)] = c
                terms.append(f"{c}*x{i}*x{j}" if c >= 0 else f"-{-c}*x{i}*x{j}")
        G = parse_quadratic_form(" + ".join(terms).replace("+ -", "- "))
        for _ in range(5):
            v = [rng.randint(-4, 4) for _ in range(n)]
            direct = sum(
                coeffs[(i, j)] * v[i - 1] * v[j - 1]
                for (i, j) in coeffs
            )
            assert quadratic_value(G, v) == direct


@pytest.mark.parametrize(
    "parse, text, error",
    [
        (parse_matrix, f"sym 1\n{LONG}\n", BadRational),
        (parse_matrix, f"sym 1\n1/{LONG}\n", BadRational),
        (parse_int_matrix, f"int 1 1\n{LONG}\n", ParseError),
        (parse_trace, f"trace\n{LONG}\nend 1\n", BadRational),
        (parse_quadratic_form, f"{LONG}*x1^2", BadRational),
        (parse_quadratic_form, f"x{LONG}^2", BadRational),
        (parse_diagram, f"regions {LONG}\n", ParseError),
    ],
    ids=["matrix", "matrix-denominator", "int-matrix", "trace", "qform", "qform-index", "diagram"],
)
def test_rejects_numbers_past_the_int_conversion_limit(parse, text, error):
    with pytest.raises(error):
        parse(text)


def _zero_rows(count, width):
    return "".join(f"{' '.join(['0'] * width)}\n" for _ in range(count))


def _four_squares_cli(token):
    """The K that ``kinkeq foursquares`` read, as the sum of its squares."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        if main(["foursquares", token]) == 2:
            raise ParseError(f"exit 2 for {token!r}")
    return sum(int(x) ** 2 for x in out.getvalue().split())


# Every place a number is read: (id, integers only, run(token, n) -> the
# number read, tokens that the place refuses for its own reasons).  n is
# the token's value as int() would read it, for the text around it.
NUMBER_READERS = [
    ("sym-entry", False, lambda t, n: parse_matrix(f"sym 1\n{t}\n")[0, 0], ()),
    ("sym-header", True, lambda t, n: parse_matrix(f"sym {t}\n" + _zero_rows(n, n)).n, ()),
    ("int-entry", True, lambda t, n: parse_int_matrix(f"int 1 1\n{t}\n")[0, 0], ()),
    ("int-header", True, lambda t, n: parse_int_matrix(f"int {t} 1\n" + _zero_rows(n, 1)).rows, ()),
    ("trace-start", False, lambda t, n: parse_trace(f"trace\n{t}\nend 1\n").start[0, 0], ()),
    ("congr", True, lambda t, n: parse_trace(f"trace\n1\ncongr {t}\nend 1\n").moves[0].matrix[0, 0], ()),
    ("trace-end", False, lambda t, n: parse_trace(f"trace\n1\nend {t}\n").end[0, 0], ()),
    ("diagram-count", True, lambda t, n: parse_diagram(f"regions {t}\n").region_count, ("-0",)),
    ("diagram-label", True, lambda t, n: parse_diagram(f"regions 11\n{t} 1 +\n").crossings[0][0], ()),
    ("qform-coefficient", False, lambda t, n: parse_quadratic_form(f"{t}*x1^2")[0, 0], ()),
    # a sign starts a new term, so a signed index is no index
    ("qform-index", True, lambda t, n: parse_quadratic_form(f"x{t}^2").n, ("+7", "-0")),
    ("foursquares", True, lambda t, n: _four_squares_cli(t), ()),
]


@pytest.mark.parametrize("token", ["1_0", "٣", "+7", "-0", "007", "3/6"])
@pytest.mark.parametrize(
    "integers, run, refused", [r[1:] for r in NUMBER_READERS], ids=[r[0] for r in NUMBER_READERS]
)
def test_one_number_grammar(token, integers, run, refused):
    """ASCII digits only, no "_", and "p/q" only where rationals are allowed."""
    value = Fraction(token)  # lenient: reads "1_0" as 10 and "٣" as 3
    if token in ("1_0", "٣", *refused) or (integers and "/" in token):
        with pytest.raises(ParseError):
            run(token, int(value))
    else:
        assert run(token, int(value)) == value


FUZZ_SEEDS = [
    (parse_matrix, "sym 3\n2 -1 1/2\n-1 +٣ 0\n1/2 0 -4/3  # note\n"),
    (parse_int_matrix, "int 2 3\n1 0 -2\n0 +1 5\n"),
    (lambda text: verify_trace(parse_trace(text)), serialize_trace(five_to_minus_five_trace())),
    (lambda text: goeritz_matrix(parse_diagram(text)), "regions 4\n0 1 +\n1 2 -\n2 3 +\n0 3 +\n"),
    (parse_quadratic_form, "x1^2 + ٣*x1*x2 - 1/2*x2^2 + 2*x3^2"),
]
FUZZ_ALPHABET = list("0123456789/+-_.*^;# x\n٣") + [
    "sym", "int", "trace", "congr", "kink", "unkink", "end", "empty", "regions", "/0", "x2",
]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 4) :]
        elif op == 2:
            text = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i + 1 :]
        else:
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines)
    # A size read from the text (regions N, the largest xN) still allocates
    # N^2 cells before any check, so numbers stay at two characters.
    return re.sub(r"[\d_]{3,}", lambda m: m.group()[:2], text)


def test_mutated_inputs_raise_only_kinkeq_errors():
    rng = random.Random(4)
    for case in range(2000):
        run, seed = FUZZ_SEEDS[case % len(FUZZ_SEEDS)]
        text = _mutate(rng, seed)
        try:
            run(text)
        except KinkEqError:
            pass
        except Exception as exc:
            pytest.fail(f"case {case}, input {text!r}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_matrix(None),
        lambda: parse_int_matrix(None),
        lambda: parse_trace(b"trace"),
        lambda: parse_diagram(None),
        lambda: parse_quadratic_form(None),
        lambda: read_rows(None, None, True),
        lambda: read_number(None, None, True),
        lambda: serialize_matrix(None),
        lambda: serialize_int_matrix(None),
        lambda: serialize_trace("x"),
        lambda: write_number(None),
        lambda: serialize_matrix(SymMatrix(1, ((1.5,),))),
        lambda: serialize_matrix(SymMatrix(1, (("7",),))),
        lambda: serialize_matrix(SymMatrix(2, ((1.5,),))),
        lambda: serialize_matrix(SymMatrix(1, (([1],),))),
    ],
    ids=[
        "parse_matrix", "parse_int_matrix", "parse_trace-bytes", "parse_diagram",
        "parse_quadratic_form", "read_rows", "read_number", "serialize_matrix",
        "serialize_int_matrix", "serialize_trace-str", "write_number",
        "serialize_matrix-float", "serialize_matrix-str", "serialize_matrix-float-over-den",
        "serialize_matrix-unhashable",
    ],
)
def test_refuses_what_is_not_text_or_the_written_value(call):
    # the readers take text and the writers their own value, or raise a library
    # error; hand-built SymMatrix values that are not lifts are not written
    with pytest.raises(KinkEqError):
        call()


@pytest.mark.parametrize("entry", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_writers_refuse_int_matrices_of_other_entries(entry):
    # a bool or a float would hash equal to a key of the write table
    P = IntMatrix(1, 1, ((entry,),))
    with pytest.raises(NotIntegerMatrix, match="are not all int$"):
        serialize_int_matrix(P)
    G = SymMatrix.from_rows([[1]])
    with pytest.raises(NotIntegerMatrix, match="are not all int$"):
        serialize_trace(Trace(G, (Congruence(P),), G))

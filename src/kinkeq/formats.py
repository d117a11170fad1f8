"""Text formats: matrices, integer matrices, traces and quadratic forms.

All numbers are exact ("p" or "p/q" in ASCII digits, read by ``read_rows``
and written at any length) and output is deterministic, so every format
round-trips bit-exactly while its numbers are within the readers' limit.

Every number goes through one of two tables built once at import, since
almost every token of a Goeritz or certificate file is one of a few values
such as 0, -1 or 2.  ``_READ`` maps the decimal token of each int in
``_SMALL`` to its value, and ``_WRITE`` maps each such int to its token.
A token that is not a key is read by ``Fraction`` if it holds "/" and by
``int`` otherwise, and a number that is not a key is written by
``exact.write_number``; a table only skips the conversion, so each
direction has one path.  The writers print a symmetric matrix from its
lift: an entry x over den > 1 as x/g or x/g "/" den/g, g = gcd(x, den),
which is ``str(Fraction(x, den))`` without building the Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator

from .errors import (
    BadRational,
    DegreeError,
    NotSymmetric,
    ParseError,
    SizeMismatch,
    UnknownVariable,
)
from .exact import IntMatrix, SymMatrix, require_int_matrix, require_sym_matrix, write_number
from .moves import Congruence, Kink, Move, Trace, Unkink, require_trace

_NUMBER_RE = re.compile("[+-]?[0-9]+(/[0-9]+)?")


class _Table(dict):
    """A dict of precomputed conversions whose miss is ``miss(key)``, not stored."""

    def __init__(self, miss: Callable, pairs: Iterator[tuple]):
        super().__init__(pairs)
        self.miss = miss

    def __missing__(self, key):
        return self.miss(key)


_SMALL = range(-256, 257)
_READ = _Table(lambda t: Fraction(t) if "/" in t else int(t), ((str(v), v) for v in _SMALL))
_WRITE = _Table(write_number, ((v, str(v)) for v in _SMALL))  # number -> token


def _require_text(text: object) -> None:
    """The check that a reader was given a ``str``."""
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")


def read_rows(text: str, line: int | None, integers: bool) -> list[list[int | Fraction]]:
    """The rows of a table line, or of an inline matrix (rows split by ";",
    "empty" for none): ints, and Fractions for "p/q" unless ``integers``.

    On ASCII text without "_", ``int`` and ``Fraction`` accept exactly the
    tokens of ``_NUMBER_RE``, so the bad token is looked for only when a
    conversion fails.  Every row is read through ``_READ`` alone, one
    path whose miss reads a token by ``Fraction`` or ``int``."""
    _require_text(text)
    if text == "empty":
        return []
    if text.isascii() and "_" not in text and not (integers and "/" in text):
        try:
            return [list(map(_READ.__getitem__, row.split())) for row in text.split(";")]
        except (ValueError, ZeroDivisionError):
            pass
    raise _refusal(text, line, integers)


def read_number(text: str, line: int | None, integers: bool) -> int | Fraction:
    """The one number that ``text`` holds, read by ``read_rows``."""
    rows = read_rows(text, line, integers)
    if len(rows) != 1 or len(rows[0]) != 1:
        raise ParseError(f"expected one number, got {text!r}", line=line)
    return rows[0][0]


def _refusal(text: str, line: int | None, integers: bool) -> ParseError:
    """Why ``read_rows`` refuses ``text``: its first bad token, if any."""
    for token in text.replace(";", " ").split():
        if not _NUMBER_RE.fullmatch(token):
            return BadRational(f"bad number {token!r}", line=line)
        if integers and "/" in token:
            return ParseError(f"expected an integer, got {token!r}", line=line)
        try:
            Fraction(token)
        except ZeroDivisionError:
            return BadRational(f"zero denominator in {token!r}", line=line)
        except ValueError:  # past the interpreter's int string-conversion limit
            return BadRational(f"number too long ({len(token)} characters)", line=line)
    return ParseError(f"non-ASCII space in {text!r}", line=line)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, content) for each line that is not blank once
    its '#' comment and surrounding whitespace are stripped; lines count
    from 1."""
    _require_text(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_table(text: str, header: str, integers: bool) -> tuple[list[int], list[list]]:
    """Read the sizes named in ``header`` ("sym N" or "int R C") and the
    rows under it.

    The first size is the row count and the last the row length.  A row
    of no entries is written as a blank line, which ``content_lines``
    drops, so then no row lines are expected; the text must still hold a
    line per row, which keeps the row count bounded by its length.
    """
    lines = list(content_lines(text))
    if not lines:
        raise ParseError("empty matrix file")
    no, first = lines[0]
    parts = first.split()
    keyword, *names = header.split()
    if len(parts) != 1 + len(names) or parts[0] != keyword:
        raise ParseError(f"expected header {header!r}", line=no)
    sizes = [read_number(p, no, True) for p in parts[1:]]
    if min(sizes) < 0:
        raise ParseError("sizes must be nonnegative", line=no)
    rows: list[list] = []
    if sizes[-1] == 0:
        if len(lines) > 1:
            raise ParseError("a row of no entries is a blank line", line=lines[1][0])
        if len(text.splitlines()) - no < sizes[0]:
            raise ParseError(f"expected {sizes[0]} blank lines for rows of no entries")
        rows = [[] for _ in range(sizes[0])]
    elif len(lines) - 1 != sizes[0]:
        raise ParseError(f"expected {sizes[0]} rows, found {len(lines) - 1}")
    for no, line in lines[1:]:
        row = read_rows(line, no, integers)
        if len(row) != 1 or len(row[0]) != sizes[-1]:
            raise ParseError(f"expected one row of {sizes[-1]} entries", line=no)
        rows += row
    return sizes, rows


def _symmetric(rows: list[list], line: int | None) -> SymMatrix:
    try:
        return SymMatrix.from_rows(rows)
    except SizeMismatch as exc:
        raise NotSymmetric(str(exc), line=line)


def parse_matrix(text: str) -> SymMatrix:
    """Read the "sym N" format: header, then N rows of N rationals."""
    return _symmetric(_read_table(text, "sym N", False)[1], None)


def _write_ratio(x: int, den: int) -> str:
    """``str(Fraction(x, den))`` for den > 0: "p", or "p/q" in lowest terms."""
    g = gcd(x, den)
    return _WRITE[x // g] if g == den else f"{_WRITE[x // g]}/{_WRITE[den // g]}"


def _write_row(row, den: int) -> str:
    """The entries of a lift row over ``den``, as ``str`` of their
    Fractions prints them, through ``_WRITE`` alone: at any length, since
    a miss goes to ``write_number``.  An entry of a hand-built row that is
    not a number ``_WRITE`` takes raises ``BadRational``."""
    try:
        if den == 1:
            return " ".join(map(_WRITE.__getitem__, row))
        return " ".join([_write_ratio(x, den) for x in row])
    except TypeError:  # unhashable, or no gcd with den
        raise BadRational("a matrix row holds an entry that is not a number") from None


def _write_table(header: str, rows, den: int) -> str:
    """The header line, then one line per row of the lift ``rows`` over ``den``."""
    return "\n".join([header, *[_write_row(row, den) for row in rows]]) + "\n"


def serialize_matrix(G: SymMatrix) -> str:
    require_sym_matrix(G, "serialize_matrix")
    return _write_table(f"sym {G.n}", G.rows, G.den)


def parse_int_matrix(text: str) -> IntMatrix:
    """Read the "int R C" format for rectangular integer matrices."""
    (_, cols), rows = _read_table(text, "int R C", True)
    return IntMatrix.from_rows(rows, cols=cols)


def serialize_int_matrix(C: IntMatrix) -> str:
    require_int_matrix(C, "C")
    return _write_table(f"int {C.rows} {C.cols}", C.entries, 1)


def _write_inline(rows, den: int) -> str:
    """The rows of the lift ``rows`` over ``den`` joined by ";" on one
    line, or "empty" when there are none."""
    return ";".join([_write_row(row, den) for row in rows]) if rows else "empty"


def serialize_trace(trace: Trace) -> str:
    """One move per line: "congr rows", "kink s", "unkink s"."""
    require_trace(trace, "serialize_trace")
    lines = ["trace", _write_inline(trace.start.rows, trace.start.den)]
    for move in trace.moves:
        if isinstance(move, Congruence):
            require_int_matrix(move.matrix, "a congruence matrix")
            lines.append(f"congr {_write_inline(move.matrix.entries, 1)}")
        elif isinstance(move, Kink):
            lines.append(f"kink {move.sign:+d}")
        else:
            lines.append(f"unkink {move.sign:+d}")
    lines.append(f"end {_write_inline(trace.end.rows, trace.end.den)}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Trace:
    lines = list(content_lines(text))
    if len(lines) < 3:
        raise ParseError("trace file needs at least 'trace', a start matrix, and 'end'")
    no, first = lines[0]
    if first != "trace":
        raise ParseError("expected literal 'trace' on the first line", line=no)
    no, start_line = lines[1]
    start = _symmetric(read_rows(start_line, no, False), no)
    moves: list[Move] = []
    end = None
    for no, line in lines[2:]:
        if end is not None:
            raise ParseError("content after the 'end' line", line=no)
        keyword = line.split(None, 1)[0]
        rest = line[len(keyword):].strip()
        if keyword == "congr":
            try:
                moves.append(Congruence(IntMatrix.from_rows(read_rows(rest, no, True))))
            except SizeMismatch as exc:
                raise ParseError(str(exc), line=no)
        elif keyword in ("kink", "unkink"):
            if rest not in ("+1", "-1"):
                raise ParseError(f"{keyword} sign must be +1 or -1", line=no)
            sign = 1 if rest == "+1" else -1
            moves.append(Kink(sign) if keyword == "kink" else Unkink(sign))
        elif keyword == "end":
            end = _symmetric(read_rows(rest, no, False), no)
        else:
            raise ParseError(f"unknown move {keyword!r}", line=no)
    if end is None:
        raise ParseError("missing 'end' line")
    return Trace(start, tuple(moves), end)


_TERM_RE = re.compile(r"[+-]?[^+-]+")
_VAR_RE = re.compile(r"^x([^A-Za-z^]+)(?:\^([^A-Za-z^]+))?$")
_NAME_RE = re.compile(r"^[A-Za-z]\w*(\^\d+)?$")


def parse_quadratic_form(text: str) -> SymMatrix:
    """Gram matrix of a quadratic form in variables x1..xn.

    Terms are c*xi^2 and c*xi*xj with rational c; cross-term coefficients
    are halved, so an odd integer cross-term makes a half-integer entry.
    A factor xi^e adds e to its term's degree, which must be 2.
    """
    _require_text(text)
    s = "".join(text.split())
    if not s:
        raise ParseError("empty expression")
    terms = _TERM_RE.findall(s)
    if "".join(terms) != s:
        raise ParseError("malformed expression")
    entries: dict[tuple[int, int], int | Fraction] = {}
    n = 0
    for term in terms:
        coeff: int | Fraction = -1 if term[0] == "-" else 1
        powers: dict[int, int] = {}
        for factor in term.lstrip("+-").split("*"):
            m = _VAR_RE.match(factor)
            if m:
                idx = read_number(m.group(1), None, True)
                if idx < 1:
                    raise UnknownVariable(f"variables are numbered from x1, got {factor!r}")
                # terms are split at signs, so the exponent is unsigned
                power = read_number(m.group(2), None, True) if m.group(2) else 1
                if power:
                    powers[idx] = powers.get(idx, 0) + power
            elif _NAME_RE.match(factor):
                raise UnknownVariable(f"unknown variable {factor!r}")
            else:
                coeff *= read_number(factor, None, False)
        degree = sum(powers.values())
        if degree != 2:
            raise DegreeError(f"monomial {term!r} has degree {degree}, expected 2")
        vars_ = sorted(powers)
        i, j = vars_[0] - 1, vars_[-1] - 1
        if i != j:
            coeff = Fraction(coeff, 2)
        entries[i, j] = entries.get((i, j), 0) + coeff
        n = max(n, vars_[-1])
    rows = [[0] * n for _ in range(n)]
    for (i, j), c in entries.items():
        rows[i][j] = rows[j][i] = c
    return SymMatrix.from_rows(rows)


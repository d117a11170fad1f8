"""Exact matrices over the rationals and the congruence toolkit.

Everything here is pure and immutable: matrices are tuples of tuples of
``int``, so values can be shared freely across threads.  A symmetric
rational matrix G is stored as its integer lift: the least d > 0 with d*G
integral and the integer rows of d*G.  The 0x0 matrix is a legitimate
value throughout, with determinant 1 and inertia (0, 0, 0).

The moves act here.  ``SymMatrix.gram(P)`` is the one unchecked product:
the Gram matrix P (dG (+) -d I_m) P^T of P's rows, by ``_row_product``,
the one matrix product, which ``IntMatrix.matmul`` shares.  The checked
congruence ``congruence(G, P)`` is its type, size and determinant checks
followed by ``G.gram(P)``.  The kink ``SymMatrix.block_sum(sign)``
mirrors the unkink ``strip_block(sign)``: sign is the int +-1, den stays
and the trailing row is (0, ..., 0, sign * den).  ``_block_sum_rows``
builds every such padding, and ``block_extension(inner, outer)`` reads
back from the entries whether outer is inner plus such a block, so the
verifier audits a kink or an unkink without an elimination.

Next to the move kernels sit the reducer's two unchecked kernels, which
the verifier never calls: ``gram``, which gives each round its vector
move and integralization without checking the basis change it built
itself, and ``SymMatrix.unit_complement``, which splits off a unit
vector, giving each round its congruence Q and the form on the
complement without replaying the round's kinks, Q and unkink.

``determinant``, ``inertia`` and ``diagonalizing_congruence`` use
fraction-free (Bareiss) elimination on the lift, which skips two kinds of
zeros of a sparse matrix, such as a banded Goeritz matrix:

- Rows are rescaled lazily.  A row with a zero in the pivot column is not
  touched; its stamp, the pivot at which its values were last current,
  stays.  When the row is next used it is brought up to date by
  x * prev // stamp, fused into the Bareiss update.  The division is exact:
  the skipped factors p_k / p_(k-1) telescope to prev / stamp, and the
  current value is an integer minor.
- Each row keeps the index of its last nonzero column, its envelope.  An
  update stops at the larger of the row's and the pivot row's envelope, and
  since the trailing block stays symmetric only rows up to the pivot row's
  envelope can have a nonzero multiplier, so only those are visited.

Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22 (1968).  George & Liu, *Computer Solution of
Large Sparse Positive Definite Systems*, Prentice-Hall (1981), for
envelope elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count
from math import gcd, lcm
from operator import index
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadRational,
    InternalError,
    KinkEqError,
    NotIntegerMatrix,
    NotPrimitive,
    NotUnimodular,
    SizeMismatch,
    UnkinkShapeViolation,
    ZeroVector,
)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def write_number(x: int | Fraction) -> str:
    """``str(x)`` of any length: "p" or "p/q", the mirror of the readers in
    ``formats``, whose row writers come here past ``str``'s digit limit.
    x is read by ``_lift_rows``, which refuses what is not an int or a Fraction."""
    den, ((numerator,),) = _lift_rows([[x]])
    text = _write_long(numerator)
    return text if den == 1 else f"{text}/{_write_long(den)}"


def _write_long(x: int) -> str:
    """The decimal digits of x, split at a power of ten into halves until
    each is short enough for ``str`` (640 digits, the least limit CPython
    allows); the low half is zero-padded to its k digits."""
    if x < 0:
        return "-" + _write_long(-x)
    if x.bit_length() <= 2000:  # at most 603 digits
        return str(x)
    k = x.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(x, 10**k)
    return _write_long(high) + _write_long(low).zfill(k)


def _read_index(x: int) -> int:
    """A size or an index as an int, by ``operator.index``."""
    try:
        return index(x)
    except TypeError:
        raise NotIntegerMatrix(f"sizes and indices are integers, not {type(x).__name__}") from None


def _read_int_rows(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Rows of integer entries, each read by ``operator.index``; anything
    that is not rows of integers raises ``NotIntegerMatrix``."""
    try:
        return tuple(tuple(map(index, row)) for row in rows)
    except TypeError:
        raise NotIntegerMatrix("entries must be integers") from None


def _lift_rows(rows: Iterable[Iterable]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The least d > 0 with d * rows integral, and the integer rows of d * rows.

    All-``int`` rows are their own lift, with d = 1.  Any other entry (a
    Fraction, a bool, or a type refused with ``BadRational``, as are rows
    that are not iterable) is lifted from its numerator and denominator.
    """
    try:
        data = tuple(map(tuple, rows))
    except TypeError:
        raise BadRational("expected rows of int or Fraction entries") from None
    if set(map(type, chain.from_iterable(data))) <= {int}:
        return 1, data
    bad = [x for row in data for x in row if not isinstance(x, (int, Fraction))]
    if bad:
        raise BadRational(f"entries must be int or Fraction, got {type(bad[0]).__name__}")
    den = lcm(*{x.denominator for row in data for x in row})
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in data)


def require_int_matrix(P: object, what: str) -> None:
    """The check on an ``IntMatrix`` argument ``what``, where it enters: its
    type, and that every entry is an ``int`` (the raw constructor checks
    the shape only), by one type scan at C speed."""
    if not isinstance(P, IntMatrix):
        raise NotIntegerMatrix(f"{what} is an IntMatrix, got {type(P).__name__}")
    if not set(map(type, chain.from_iterable(P.entries))) <= {int}:
        raise NotIntegerMatrix(f"the entries of {what} are not all int")


def require_sym_matrix(G: object, what: str) -> None:
    """The check on a ``SymMatrix`` argument of the function ``what``, where G enters."""
    if not isinstance(G, SymMatrix):
        raise KinkEqError(f"{what} needs a SymMatrix, got {type(G).__name__}")


def require_lift(G: object, what: str) -> None:
    """The check that ``what`` is a ``SymMatrix`` whose fields form a lift,
    as every constructor and kernel here leaves them: ``den`` a positive
    int, ``rows`` a square, symmetric tuple of int tuples, and
    gcd(den, entries) = 1.  ``SymMatrix`` itself does not check this, so
    that a kernel's output costs nothing more."""
    require_sym_matrix(G, what)
    den, rows = G.den, G.rows
    try:
        lift = (
            type(den) is int
            and den > 0
            and type(rows) is tuple
            and tuple(zip(*rows)) == rows  # so the rows are tuples, square and symmetric
            and set(map(type, chain.from_iterable(rows))) <= {int}
            and (den == 1 or gcd(den, *chain.from_iterable(rows)) == 1)
        )
    except TypeError:  # a row that is not iterable
        lift = False
    if not lift:
        raise KinkEqError(
            f"{what} is not the lift of a symmetric matrix: den a positive int,"
            " rows a square symmetric tuple of int tuples, gcd(den, entries) = 1"
        )


def _block_sum_rows(rows: Sequence[tuple[int, ...]], v: int, m: int) -> list[tuple[int, ...]]:
    """The rows of the square ``rows`` (+) v I_m: each row padded with m
    zeros, then m rows (0, ..., 0, v, 0, ..., 0) with v on the diagonal."""
    n = len(rows)
    zero = (0,) * (n + m)
    pad = zero[:m]
    padded = [row + pad for row in rows]
    for j in range(n, n + m):
        padded.append(zero[:j] + (v,) + zero[j + 1 :])
    return padded


@dataclass(frozen=True)
class IntMatrix:
    """Rectangular integer matrix; no symmetry assumed.  ``entries`` must
    hold ``rows`` rows of ``cols`` entries (``SizeMismatch`` otherwise);
    every kernel that takes an IntMatrix checks that they are ints, by
    ``require_int_matrix``."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            shaped = len(self.entries) == self.rows and set(map(len, self.entries)) <= {self.cols}
        except TypeError:
            shaped = False
        if not shaped:
            raise SizeMismatch("the entries are not `rows` rows of `cols` entries each")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = _read_int_rows(rows)
        if cols is not None:
            cols = _read_index(cols)
            if cols < 0:
                raise SizeMismatch(f"{write_number(cols)} columns given, a matrix has at least 0")
        width = len(data[0]) if data else cols or 0
        if cols not in (None, width):
            raise SizeMismatch(f"{write_number(cols)} columns given, the rows have {width}")
        return cls(len(data), width, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.shear(n, {})

    @classmethod
    def shear(cls, n: int, entries: Mapping[tuple[int, int], int]) -> "IntMatrix":
        """The n x n identity with the entries {(i, j): v} set.

        Entries on one side of the diagonal give a shear of determinant 1;
        ``congruence`` checks any other pattern like every P.  An (i, j)
        outside the matrix, or a key that is not a pair, is refused with
        ``SizeMismatch``.
        """
        n = _read_index(n)
        try:
            items = entries.items()
        except AttributeError:
            raise NotIntegerMatrix(
                f"shear entries are a mapping {{(i, j): v}}, not {type(entries).__name__}"
            ) from None
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for key, v in items:
            try:
                i, j = map(_read_index, key)
            except (TypeError, ValueError):
                raise SizeMismatch("an entry is keyed by an index pair (i, j)") from None
            if not (0 <= i < n and 0 <= j < n):
                raise SizeMismatch(
                    f"entry ({write_number(i)}, {write_number(j)}) is outside"
                    f" the {write_number(n)}x{write_number(n)} matrix"
                )
            rows[i][j] = v
        return cls.from_rows(rows, cols=n)

    @classmethod
    def rotation(cls, n: int, k: int) -> "IntMatrix":
        """The permutation moving the first k of n coordinates to the back:
        row i is e_((i + k) mod n), so P G P^T puts those k coordinates last."""
        n, k = _read_index(n), _read_index(k)
        return cls.from_rows(
            [[1 if j == (i + k) % n else 0 for j in range(n)] for i in range(n)], cols=n
        )

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        require_int_matrix(self, "a factor")
        require_int_matrix(other, "a factor")
        if self.cols != other.rows:
            raise SizeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        product = _row_product(self.entries, other.entries, other.cols)
        return IntMatrix(self.rows, other.cols, product)


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric matrix over exact rationals, size n >= 0: ``den`` is the
    least d > 0 with d*G integral and ``rows`` the integer rows of d*G, so
    gcd(den, all entries) = 1 and equality is equality of the entries."""

    den: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "SymMatrix":
        """The matrix of int or Fraction entries ``rows``, read by
        ``_lift_rows``; the lift is then checked square and symmetric."""
        den, lift = _lift_rows(rows)
        n = len(lift)
        if any(len(row) != n for row in lift):
            raise SizeMismatch("matrix is not square")
        if tuple(zip(*lift)) != lift:
            i, j = next((i, j) for i in range(n) for j in range(i) if lift[i][j] != lift[j][i])
            raise SizeMismatch(f"entries ({i},{j}) and ({j},{i}) differ")
        return cls(den, lift)

    @classmethod
    def diagonal(cls, values: Iterable) -> "SymMatrix":
        """The diagonal matrix of int or Fraction ``values``, read by ``_lift_rows``."""
        den, (lift,) = _lift_rows([values])
        n = len(lift)
        return cls(den, tuple(tuple(lift[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def empty(cls) -> "SymMatrix":
        return cls(1, ())

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational entries, built on first use."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.rows[i][j], self.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def block_sum(self, sign: int) -> "SymMatrix":
        """The kink: add a trailing block [sign], sign the int +-1; undone by ``strip_block``."""
        if not isinstance(sign, int) or sign not in (1, -1):
            raise BadRational("a kink block is the int +1 or -1")
        # the added row is (0, ..., 0, +-den), so den stays least
        return SymMatrix(self.den, tuple(_block_sum_rows(self.rows, sign * self.den, 1)))

    def strip_block(self, sign: int) -> "SymMatrix":
        """The unkink: drop a trailing block [sign], sign +-1; undoes ``block_sum(sign)``."""
        if not isinstance(sign, int) or sign not in (1, -1):
            raise UnkinkShapeViolation("an unkink block is the int +1 or -1")
        if not self.rows:
            raise UnkinkShapeViolation("cannot unkink the empty matrix")
        last = self.rows[-1]
        if last[-1] != sign * self.den:
            raise UnkinkShapeViolation(
                f"trailing diagonal entry is {write_number(self[-1, -1])}, expected {sign}"
            )
        if any(last[:-1]):
            raise UnkinkShapeViolation("trailing row/column is not zero off the diagonal")
        # the dropped row is (0, ..., 0, +-den), so den stays least
        return SymMatrix(self.den, tuple(row[:-1] for row in self.rows[:-1]))

    def neg(self) -> "SymMatrix":
        return SymMatrix(self.den, tuple(tuple(-x for x in row) for row in self.rows))

    def unit_complement(
        self, basis: IntMatrix, squares: Sequence[int]
    ) -> tuple[IntMatrix, "SymMatrix"]:
        """Split u = (row 0 of basis, the t ``squares``) off F (+) -I_t, self
        being the Gram matrix of the basis rows under F; return the congruence
        Q of F (+) -I_t and the form on u^perp.

        The first row h must be integral with h_0 - sum s^2 = 1: <u, u> = 1.
        With x_j = <c_j, u>, which is (h_1, ..., h_(n-1), -s_1, ..., -s_t) for
        the rows c_j (j >= 1) of basis (+) I_t, Q has the rows c_j - x_j u of
        u^perp and then u.  With K = self (+) -I_t, their Gram matrix is the
        rank-one update K[1:, 1:] - x x^T, with the same den: what t kinks
        [-1], Q and the unkink [1] leave of F.
        """
        require_int_matrix(basis, "the basis")
        n, d = self.n, self.den
        if not n:
            raise InternalError("the empty matrix has no corner")
        if basis.rows != n or basis.cols != n:
            raise SizeMismatch(f"the basis is {basis.rows}x{basis.cols}, the matrix is {n}x{n}")
        (squares,) = _read_int_rows([squares])
        if any(a % d for a in self.rows[0]):
            raise InternalError(f"the first row is not integral over the den {write_number(d)}")
        h = [a // d for a in self.rows[0]]
        norm = h[0] - sum(s * s for s in squares)
        if norm != 1:
            raise InternalError(
                f"<u, u> is {write_number(norm)}, not 1, for the corner {write_number(h[0])}"
            )
        x, u = h[1:] + [-s for s in squares], basis.entries[0] + tuple(squares)
        c = _block_sum_rows(basis.entries, 1, len(squares))[1:]
        Q = [tuple(a - v * y for a, y in zip(row, u)) for row, v in zip(c, x)] + [u]
        kept = [row[1:] for row in _block_sum_rows(self.rows, -d, len(squares))[1:]]
        dx = [d * v for v in x]
        after = tuple(tuple(a - v * y for a, y in zip(r, dx)) if v else r for r, v in zip(kept, x))
        return IntMatrix(len(Q), len(Q), tuple(Q)), SymMatrix(d, after)

    def gram(self, P: IntMatrix) -> "SymMatrix":
        """The Gram matrix of P's rows under self (+) -I_m, m = P.cols - n,
        unchecked: for a unimodular P it is what m kinks [-1] and then
        ``Congruence(P)`` leave, and ``congruence`` checks exactly that.

        Works on the lift K = d (self (+) -I_m): P (P K)^T, which is P K P^T
        because K is symmetric, by two row products over the nonzero entries
        of P.  den stays least when P keeps the gcd of the entries, as a
        unimodular P does; for any other P it is made least again.
        """
        require_int_matrix(P, "P")
        n, d = self.n, self.den
        m = P.cols - n
        if m < 0:
            raise SizeMismatch(f"P has {P.cols} columns, fewer than the {n} of the matrix")
        lift = _block_sum_rows(self.rows, -d, m) if m else self.rows
        pk = _row_product(P.entries, lift, P.cols)
        rows = _row_product(P.entries, tuple(zip(*pk)), P.rows)
        g = gcd(d, *chain.from_iterable(rows)) if d > 1 else 1
        if g > 1:
            d, rows = d // g, tuple(tuple(x // g for x in row) for row in rows)
        return SymMatrix(d, rows)


def block_extension(inner: SymMatrix, outer: SymMatrix) -> int | None:
    """The sign s when outer is inner (+) [s], s = +-1, else None.

    Read from the entries alone, as ``block_sum`` and ``strip_block`` leave
    them: the same den, every row of inner equal to the start of outer's
    row, and a last row and column of outer that are zero but for +-den on
    the diagonal.  Then inertia(outer) is inertia(inner) plus the sign of
    s, and |det outer| = |det inner|.
    """
    d, rows = inner.den, inner.rows
    if outer.den != d or len(outer.rows) != len(rows) + 1:
        return None
    *head, last = outer.rows
    if last[-1] not in (d, -d) or any(last[:-1]):
        return None
    if any(row[-1] or row[:-1] != kept for row, kept in zip(head, rows)):
        return None
    return 1 if last[-1] > 0 else -1


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and zero eigenvalues."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus


def _det_int(entries: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Bareiss one-step algorithm: all intermediate values are exact integers
    (minors of the input), so there is no rational blow-up.  Only rows are
    swapped, so the rows below a pivot are not symmetric and every one is
    looked at.  Every row's end is n - 1: on the small congruence matrices
    P that come here, finding the last nonzero of each row costs more than
    the columns it would skip.
    """
    n = len(entries)
    if n == 0:
        return 1
    a = [list(row) for row in entries]
    stamps = [1] * n
    ends = [n - 1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    stamps[k], stamps[i] = stamps[i], stamps[k]
                    sign = -sign
                    break
            else:
                return 0
        _bareiss_step(a, k, prev, stamps, ends, n - 1)
        prev = a[k][k]
    return sign * a[n - 1][n - 1] * prev // stamps[n - 1]


def _catch_up(
    a: list[list[int]], i: int, lo: int, prev: int, stamps: list[int], ends: list[int]
) -> None:
    """Bring row i up to date with the last pivot ``prev`` from column lo
    on: x * prev // stamps[i], exact because the current value is an
    integer minor (see ``_bareiss_step``)."""
    stamp = stamps[i]
    if stamp != prev:
        row = a[i]
        for j in range(lo, ends[i] + 1):
            row[j] = row[j] * prev // stamp
        stamps[i] = prev


def _bareiss_step(
    a: list[list[int]], p: int, prev: int, stamps: list[int], ends: list[int], last: int
) -> None:
    """Eliminate below the pivot a[p][p] in place, fraction-free, on the
    rows p+1..last and every column after p.

    Rows are rescaled lazily.  Row i holds its current values times
    stamps[i] / prev, stamps[i] being the pivot at which it was last
    current, and is zero past column ends[i].  A row whose entry in column
    p is 0 is left as it is.  Any other row becomes
    (piv*a_i - a_ip*a_p) // stamps[i] up to the larger of ends[i] and
    ends[p]: with stale values y = x*s/prev the Bareiss update
    (piv*x - x_p*a_p)/prev equals (piv*y - y_p*a_p)/s, so the rescale is
    fused into it, and the division is exact because the result is an
    integer minor (Sylvester's identity).
    """
    if stamps[p] != prev:
        _catch_up(a, p, p, prev, stamps, ends)
    ap = a[p]
    piv = ap[p]
    end_p = ends[p]
    cols_p = range(p + 1, end_p + 1)
    for i in range(p + 1, last + 1):
        ai = a[i]
        f = ai[p]
        if f:
            stamp = stamps[i]
            stamps[i] = piv
            if ends[i] > end_p:
                cols = range(p + 1, ends[i] + 1)
            else:
                ends[i] = end_p
                cols = cols_p
            for j in cols:
                ai[j] = (ai[j] * piv - f * ap[j]) // stamp


def determinant(G: SymMatrix) -> Fraction:
    """Exact determinant: |det G| from ``inertia_and_abs_det``, negative
    exactly when G has an odd number of negative eigenvalues."""
    signs, abs_det = inertia_and_abs_det(G)
    return -abs_det if signs.n_minus % 2 else abs_det


def _pivot(m: list[list[int]], p: int, prev: int, stamps: list[int], ends: list[int]) -> bool:
    """Bring a nonzero entry to m[p][p], which is 0, by a congruence on
    indices >= p.

    Swaps in a later nonzero diagonal entry.  When the trailing diagonal is
    all zero but some m[i][j] is not, adds row/column j into i (the new
    m[i][i] is 2*m[i][j] != 0) and swaps it in, so elimination always
    terminates.  Row operations act on whole rows, carried columns
    included; column operations act on the square part of rows p and
    after, the earlier rows being final where they are read.  A swap
    exchanges the stamps and ends of its rows and widens the ends of the
    rows it moves a nonzero in; an add-into brings its two rows up to date
    first (see ``_bareiss_step``).  Returns False when the trailing block is
    zero.
    """
    n = len(m)

    def swap(i, j):  # i < j
        m[i], m[j] = m[j], m[i]
        stamps[i], stamps[j] = stamps[j], stamps[i]
        ends[i], ends[j] = ends[j], ends[i]
        for r in range(p, n):
            row = m[r]
            if row[i] or row[j]:
                row[i], row[j] = row[j], row[i]
                ends[r] = max(ends[r], j)

    pivot_row = next((q for q in range(p + 1, n) if m[q][q] != 0), None)
    if pivot_row is not None:
        swap(p, pivot_row)
        return True
    off = next(
        ((i, j) for i in range(p, n) for j in range(i + 1, min(ends[i] + 1, n)) if m[i][j] != 0),
        None,
    )
    if off is None:
        return False
    i, j = off
    _catch_up(m, i, p, prev, stamps, ends)
    _catch_up(m, j, p, prev, stamps, ends)
    m[i] = [x + y for x, y in zip(m[i], m[j])]
    ends[i] = max(ends[i], ends[j])
    for r in range(p, n):
        m[r][i] += m[r][j]
    if i != p:
        swap(p, i)
    return True


def _eliminate(a: list[list[int]]) -> list[int]:
    """Fraction-free symmetric elimination of the square part of ``a`` in
    place; returns the pivots, stopping early when the rest is zero.

    Bareiss updates keep every entry an integer minor; the congruence pivot
    moves of ``_pivot`` act on the trailing indices only, so the divisions
    stay exact.  Row p ends as prev_p times the row that Gaussian
    elimination over the rationals leaves, prev_p being the pivot before
    pivot p (1 for the first), so the eliminated diagonal entry is
    pivot_p / prev_p; the rows from an early stop on carry the last pivot.
    The trailing block stays symmetric, so only the rows up to the last
    nonzero of the pivot row in the square part can have a nonzero in the
    pivot column.
    """
    n = len(a)
    stamps = [1] * n
    # the index of each row's last nonzero entry, -1 for a zero row; a
    # dense row is answered by its last entry alone
    ends = [
        len(row) - 1
        if row[-1]
        else len(row) - next(compress(count(1), reversed(row)), len(row) + 1)
        for row in a
    ]
    pivots = []
    prev = 1
    for p in range(n):
        if not a[p][p] and not _pivot(a, p, prev, stamps, ends):
            for i in range(p, n):
                _catch_up(a, i, p, prev, stamps, ends)
            break
        _bareiss_step(a, p, prev, stamps, ends, ends[p] if ends[p] < n else n - 1)
        prev = a[p][p]
        pivots.append(prev)
    return pivots


def inertia(G: SymMatrix) -> Inertia:
    """Eigenvalue sign counts, by Sylvester's law applied to fraction-free
    symmetric elimination on the integer lift."""
    return inertia_and_abs_det(G)[0]


def inertia_and_abs_det(G: SymMatrix) -> tuple[Inertia, Fraction]:
    """Inertia and |det G| from one elimination of the lift d*G.

    The sign of each eliminated diagonal entry pivot/prev is read off the
    two integers.  The last pivot is det(d*G) up to sign, since the pivot
    moves are unimodular; when the elimination stops early G is singular.
    """
    require_sym_matrix(G, "inertia_and_abs_det")
    n = G.n
    pivots = _eliminate([list(row) for row in G.rows])
    prevs = [1, *pivots]
    n_plus = sum(1 for prev, piv in zip(prevs, pivots) if (piv > 0) == (prev > 0))
    n_minus = len(pivots) - n_plus
    abs_det = Fraction(abs(prevs[-1]), G.den**n) if len(pivots) == n else Fraction(0)
    return Inertia(n_plus, n_minus, n - n_plus - n_minus), abs_det


def diagonalizing_congruence(G: SymMatrix) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact diagonal D and rational L with L G L^T = diag(D).

    Row i of L is a witness direction: (row i) G (row i)^T = D[i].  Runs the
    elimination on [d*G | I]: row p divided by prev_p gives D_p (over d) on
    the diagonal and L_p in the carried half.
    """
    require_sym_matrix(G, "diagonalizing_congruence")
    n, d = G.n, G.den
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(G.rows)]
    pivots = _eliminate(a)
    prevs = [1, *pivots]
    scales = [prevs[min(p, len(pivots))] for p in range(n)]
    return (
        [Fraction(a[p][p], s * d) for p, s in enumerate(scales)],
        [[Fraction(x, s) for x in a[p][n:]] for p, s in enumerate(scales)],
    )


def _row_product(left: Sequence[Sequence[int]], right: Sequence[Sequence[int]], width: int):
    """The rows of left * right, whose rows have ``width`` entries: row i is
    the sum of p * right[k] over the nonzero entries p = left[i][k], so a
    sparse left factor costs only its nonzeros.  A first term with p = 1,
    as in the unit rows of a shear or a permutation, is right[k] itself."""
    zero = (0,) * width
    product = []
    for row in left:
        acc = zero
        for k, p in enumerate(row):
            if p:
                if acc is zero:
                    acc = right[k] if p == 1 else [p * y for y in right[k]]
                else:
                    acc = [x + p * y for x, y in zip(acc, right[k])]
        product.append(tuple(acc))
    return tuple(product)


def congruence(G: SymMatrix, P: IntMatrix) -> SymMatrix:
    """Return P G P^T for unimodular P of the same size as G: the checked
    move, which is its type checks (P an IntMatrix of int entries), size and
    determinant checks and then ``G.gram(P)``."""
    require_sym_matrix(G, "congruence")
    require_int_matrix(P, "P")
    if P.rows != P.cols or P.rows != G.n:
        raise SizeMismatch(f"P is {P.rows}x{P.cols}, G is {G.n}x{G.n}")
    det = _det_int(P.entries)
    if det not in (1, -1):
        raise NotUnimodular(f"det(P) = {write_number(det)}")
    return G.gram(P)


def extend_primitive(b: Sequence[int]) -> IntMatrix:
    """Extend a primitive integer vector to a unimodular matrix.

    Returns unimodular C with first row b.  Construction: from the identity,
    each extended-gcd step (lead, b_i) -> (g, 0), x lead + y b_i = g, acts
    on rows 0 and i: row 0 becomes (lead/g) row_0 + (b_i/g) row_i and row i
    becomes x row_i - y row_0, a determinant-1 step.
    """
    (b,) = _read_int_rows([b])
    n = len(b)
    if n == 0 or all(x == 0 for x in b):
        raise ZeroVector("cannot extend the zero vector")
    g = gcd(*b)
    if g != 1:
        raise NotPrimitive(f"gcd of entries is {write_number(g)}")

    c = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    lead = b[0]
    for i in range(1, n):
        if b[i] == 0:
            continue
        g, x, y = _egcd(lead, b[i])
        c0, ci = c[0], c[i]
        c[0] = [lead // g * u + b[i] // g * v for u, v in zip(c0, ci)]
        c[i] = [x * v - y * u for u, v in zip(c0, ci)]
        lead = g
    if lead == -1:
        c[0] = [-u for u in c[0]]
    elif lead != 1:
        raise InternalError(f"extended-gcd reduction ended at {lead}, not 1")
    return IntMatrix.from_rows(c, cols=n)


def primitive_scale(u: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    Lifts u by ``_lift_rows`` (the lcm of the denominators), then divides
    by the gcd of the resulting entries.  The scale factor is positive, so
    sign(b^T G b) matches sign(u^T G u) for every G.
    """
    _, (ints,) = _lift_rows([u])
    if not any(ints):
        raise ZeroVector("cannot normalize the zero vector")
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def require_integral(G: SymMatrix, what: str) -> None:
    """The check that the function ``what`` was given an integral ``SymMatrix``."""
    require_sym_matrix(G, what)
    if not G.is_integral():
        raise NotIntegerMatrix("matrix has non-integer entries")

"""Exact rational dense matrices: determinants, adjugates, and minor streams.

Everything here works over ``fractions.Fraction`` so that strict-sign tests
downstream never depend on a tolerance.  Matrices are immutable; indices in the
public API are 1-based (storage is row-major internally).

Each matrix scales row i once by the positive lcm d_i of its denominators
(``ExactMatrix.integer_rows``), which keeps every minor's sign; a minor of the
matrix is the scaled minor over the product of d_i on its rows
(:func:`row_scale`).  The condensation sweep :func:`_int_minor_levels` gives the
minors a level at a time, sizes ascending (each minor of size s >= 3 in O(1)
from the two levels below by Desnanot-Jacobi, or in O(s) from the level below
when its inner minor is 0); it holds its two levels below at every size,
refuses a level of more than ``MAX_LEVEL_MINORS`` minors, and condenses no
level above an all-zero one, whose minors are all 0.  Scans that read each
minor once (the minor definition, ``minors_up_to`` and the certificate of
``totneg generate``) read the sweep itself, and so do the TNP test-vector
sweeps; each complementarity sweep keeps the levels in a table of its own
(``lcp.MinorTable``), not on the matrix.  The contiguous TN sweeps
(:func:`_contiguous_int_minors`, :func:`solve_window`), ``det``,
``minor_det``, ``cofactor_minor`` and ``adjugate`` eliminate on their own,
independent of it.
"""

from __future__ import annotations

import decimal
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionError, ResourceLimitError

RationalLike = Fraction | int | str | float


def to_fraction(value: RationalLike) -> Fraction:
    """Parse a rational from Fraction/int/str ("p/q", "3", "0.25") or float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        # read the decimal literal, not the binary expansion
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {value!r} as a rational")


_INTEGER_RATIO = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")
#: A plain integer or ratio that ``int`` reads at any int/str digit limit:
#: 640 is the lowest limit ``sys.set_int_max_str_digits`` accepts.
_PLAIN_RATIO = re.compile(r"(-?[0-9]{1,640})(?:/([0-9]{1,640}))?")
_EXPONENT = re.compile(r"[eE][+-]?0*([\d_]*)\s*\Z")

#: Largest decimal exponent a rational literal may carry.  "1e5000000" is ten
#: bytes long but a five-million-digit integer, whose parsing and printing
#: alone take seconds; a literal of plain digits costs in proportion to its
#: length, so it is accepted at any length.
MAX_DECIMAL_EXPONENT = 10_000


def _int_str(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the interpreter's int/str digit limit; decimal has none
        return str(decimal.Decimal(n))


def format_fraction(x: Fraction) -> str:
    num = _int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal as ``Fraction`` does, and also read back
    integers and ratios longer than the interpreter's int/str digit limit,
    which :func:`format_fraction` may write.  Raises ValueError for a zero
    denominator, and for a decimal exponent above
    :data:`MAX_DECIMAL_EXPONENT` in magnitude."""
    plain = _PLAIN_RATIO.fullmatch(text)
    try:
        if plain is not None:
            return Fraction(int(plain[1]), int(plain[2])) if plain[2] else Fraction(int(plain[1]))
        return _parse_literal(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_literal(text: str) -> Fraction:
    """:func:`parse_rational` for a token other than a plain integer or ratio."""
    exponent = _EXPONENT.search(text)
    if exponent is not None:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {text!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ValueError:
        match = _INTEGER_RATIO.fullmatch(text)
        if match is None:
            raise
    den = int(decimal.Decimal(match[2] or 1))
    if den == 0:
        raise ZeroDivisionError  # Fraction would print the numerator, past the digit limit, into its message
    return Fraction(int(decimal.Decimal(match[1])), den)


def check_index_set(indices: Sequence[int], bound: int, what: str = "index set") -> tuple[int, ...]:
    """Validate a strictly increasing 1-based index set within [1, bound]."""
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise DimensionError(f"{what} must be nonempty")
    for a, b in zip(idx, idx[1:]):
        if a >= b:
            raise DimensionError(f"{what} must be strictly increasing, got {idx}")
    if idx[0] < 1 or idx[-1] > bound:
        raise DimensionError(f"{what} {idx} out of bounds [1, {bound}]")
    return idx


class MinorRecord(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable m x n matrix of exact rationals, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(f"matrix shape must be positive, got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries for {self.rows}x{self.cols}, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, Fraction):
                raise TypeError(f"entries must be Fractions (see from_rows / to_fraction), got {e!r}")

    @cached_property
    def integer_rows(self) -> tuple[list[list[int]], list[int]]:
        """The rows scaled to integers and their scales (:func:`_rows_as_scaled_ints`),
        built once and shared by every sweep of this matrix; read only."""
        return _rows_as_scaled_ints(self.row_list())

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "ExactMatrix":
        if not rows or not rows[0]:
            raise DimensionError("matrix needs at least one row and one column")
        n = len(rows[0])
        flat: list[Fraction] = []
        for r in rows:
            if len(r) != n:
                raise DimensionError("ragged rows")
            flat.extend(to_fraction(v) for v in r)
        return cls(len(rows), n, tuple(flat))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Fraction:
        """1-based entry access."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise DimensionError(f"entry ({i},{j}) out of bounds for {self.rows}x{self.cols}")
        return self.entries[(i - 1) * self.cols + (j - 1)]

    def row_list(self) -> list[list[Fraction]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def matvec(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(x) != self.cols:
            raise DimensionError(f"vector length {len(x)} does not match {self.cols} columns")
        c = self.cols
        return tuple(
            sum((self.entries[i * c + j] * x[j] for j in range(c)), Fraction(0))
            for i in range(self.rows)
        )

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise DimensionError("shape mismatch in addition")
        return ExactMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    @cached_property
    def _entry_signs(self) -> tuple[int | None, int | None]:
        """Row-major index of the first entry >= 0 and of the first entry > 0, or None; read once."""
        nums = [e.numerator for e in self.entries]
        return tuple(next((i for i, v in enumerate(nums) if v >= least), None) for least in (0, 1))

    def first_entry_violating(self, strict: bool) -> tuple[int, int, Fraction] | None:
        """First (i, j, value) with value >= 0 (strict) or value > 0 (non-strict)."""
        index = self._entry_signs[0 if strict else 1]
        return None if index is None else (index // self.cols + 1, index % self.cols + 1, self.entries[index])

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        for r in self.row_list():
            lines.append(" ".join(format_fraction(v) for v in r))
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return "\n".join(" ".join(format_fraction(v) for v in r) for r in self.row_list())


def submatrix(a: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> ExactMatrix:
    """Submatrix on 1-based, strictly increasing row/column index sets."""
    ridx = check_index_set(rows, a.rows, "row index set")
    cidx = check_index_set(cols, a.cols, "column index set")
    flat = tuple(a.entries[(i - 1) * a.cols + (j - 1)] for i in ridx for j in cidx)
    return ExactMatrix(len(ridx), len(cidx), flat)


def _rows_as_scaled_ints(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row: (integer rows, per-row scale d_i > 0),
    where d_i is the lcm of row i's denominators and row i times d_i is integer."""
    out: list[list[int]] = []
    scales: list[int] = []
    for r in rows:
        lcm = math.lcm(*(x.denominator for x in r))
        scales.append(lcm)
        out.append([x.numerator * (lcm // x.denominator) for x in r])
    return out, scales


def _eliminate(m: list[list[int]]) -> int:
    """Bareiss fraction-free forward elimination of the n integer rows of m on
    their first n columns, in place; columns past n are carried along.

    Rows are swapped to find a nonzero pivot; afterwards row i holds, in every
    column j >= i, the minor on the first i + 1 rows of the permuted matrix and
    the columns 0..i-1, j.  Returns the sign of the row permutation, or 0 as
    soon as a pivot column is zero below the diagonal (the leading block is
    singular).
    """
    n = len(m)
    width = len(m[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            rik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pk - rik * row_k[j]) // prev
        prev = pk
    return sign


def _det_int(m: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix (mutates m)."""
    sign = _eliminate(m)
    return sign * m[-1][-1] if sign else 0


def _int_minor(rows: Sequence[Sequence[int]], cols: Sequence[int]) -> int:
    """The minor of the integer rows on the columns cols (as many as rows),
    a Bareiss determinant from size 3 on; rows are left unchanged."""
    if len(cols) < 2:
        return rows[0][cols[0]] if cols else 1  # the size-0 minor is 1
    if len(cols) == 2:
        j, l = cols
        return rows[0][j] * rows[1][l] - rows[0][l] * rows[1][j]
    return _det_int([[r[j] for j in cols] for r in rows])


def det_of_rows(rows: list[list[Fraction]] | list[list[int]]) -> Fraction | int:
    """Exact determinant of a small square matrix given as row lists; rows of
    ints are eliminated as they are and give the same value, as an int."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if all(type(x) is int for r in rows for x in r):
        return _det_int([r[:] for r in rows])
    ints, scales = _rows_as_scaled_ints(rows)
    return Fraction(_det_int(ints), math.prod(scales))


def det(a: ExactMatrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not a.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    return det_of_rows(a.row_list())


def minor_det(a: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    """Determinant of the (rows, cols) submatrix, 1-based index sets."""
    ridx = check_index_set(rows, a.rows, "row index set")
    cidx = check_index_set(cols, a.cols, "column index set")
    if len(ridx) != len(cidx):
        raise DimensionError("minor needs equally many rows and columns")
    sel = [[a.entries[(i - 1) * a.cols + (j - 1)] for j in cidx] for i in ridx]
    return det_of_rows(sel)


def cofactor_minor(a: ExactMatrix, i: int, j: int) -> Fraction:
    """Determinant after deleting row i and column j (1-based, unsigned).

    For a 1x1 matrix this returns -1: the empty-matrix determinant is set to -1
    by convention so that the LCP single-vector construction covers entries.
    """
    if not a.is_square:
        raise DimensionError("cofactor minors need a square matrix")
    n = a.rows
    if not (1 <= i <= n and 1 <= j <= n):
        raise DimensionError(f"({i},{j}) out of bounds for size {n}")
    if n == 1:
        return Fraction(-1)
    rows = [r for r in range(1, n + 1) if r != i]
    cols = [c for c in range(1, n + 1) if c != j]
    return minor_det(a, rows, cols)


def adjugate(a: ExactMatrix) -> ExactMatrix:
    """Adjugate matrix; satisfies a @ adj(a) = det(a) * I.  adj of 1x1 is [[1]]."""
    if not a.is_square:
        raise DimensionError("adjugate needs a square matrix")
    n = a.rows
    if n == 1:
        return ExactMatrix(1, 1, (Fraction(1),))
    rows = a.row_list()
    flat: list[Fraction] = []
    for i in range(n):
        for j in range(n):
            sel = [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
            m = det_of_rows(sel)
            flat.append(m if (i + j) % 2 == 0 else -m)
    return ExactMatrix(n, n, tuple(flat))


def check_order(a: ExactMatrix, k: int) -> None:
    """Reject an order outside [1, min(m, n)]."""
    if not 1 <= k <= min(a.rows, a.cols):
        raise ValueError(f"order {k} out of range [1, {min(a.rows, a.cols)}]")


def _one_based(idx: Sequence[int]) -> tuple[int, ...]:
    return tuple(i + 1 for i in idx)


def row_scale(scales: Sequence[int], rows0: Iterable[int]) -> int:
    """Product of the row scales on rows0: a scaled minor's denominator factor."""
    return math.prod(map(scales.__getitem__, rows0))


#: One window of a sweep: (rows0, cols0, minor of the scaled rows).
MinorWindow = tuple[tuple[int, ...], tuple[int, ...], int]

#: One window of a test-vector sweep: (rows0, cols0, minor, adjugate numerators).
SweptWindow = tuple[tuple[int, ...], tuple[int, ...], int, Sequence[int]]

#: An index set, its bit mask, and the masks of the sets without one of its
#: indices, in the set's order.
IndexSet = tuple[tuple[int, ...], int, tuple[int, ...]]


@lru_cache(maxsize=256)
def index_sets(n: int, r: int, contiguous: bool = False) -> tuple[IndexSet, ...]:
    """The r-subsets of range(n), lexicographic (or only its runs of r
    consecutive indices), as :data:`IndexSet`; built once per (n, r).

    A window sweep reads the row sets outer and the column sets inner, so its
    windows come in lexicographic (row set, column set) order.
    """
    runs = (range(i, i + r) for i in range(n - r + 1))
    out = []
    for idx in map(tuple, runs) if contiguous else itertools.combinations(range(n), r):
        bits = [1 << i for i in idx]
        mask = sum(bits)
        out.append((idx, mask, tuple(mask ^ b for b in bits)))
    return tuple(out)


#: Most minors one level of the condensation sweep may hold: C(12, 6)^2, the
#: middle level of a 12 x 12 matrix.  The all-window sweeps and generation stop
#: at 12 rows and columns and hull members have m + n <= 24, so no capped caller
#: reaches a larger level; one is refused before it is built.
MAX_LEVEL_MINORS = math.comb(12, 6) ** 2


@lru_cache(maxsize=256)
def _condensation_sets(n: int, s: int) -> tuple[tuple[tuple[int, ...], int, int, int, tuple[int, ...]], ...]:
    """The s-subsets of range(n), s >= 2, lexicographic, each with the positions
    of the subset without its first index and without its last among the
    lexicographic (s-1)-subsets, of the subset without both among the
    (s-2)-subsets, and of the subset without each index in turn among the
    (s-1)-subsets; built once per (n, s)."""
    lower = {c: i for i, c in enumerate(itertools.combinations(range(n), s - 1))}
    inner = {c: i for i, c in enumerate(itertools.combinations(range(n), s - 2))}
    deletions = ((c, tuple(lower[c[:q] + c[q + 1 :]] for q in range(s))) for c in itertools.combinations(range(n), s))
    return tuple((c, d[0], d[-1], inner[c[1:-1]], d) for c, d in deletions)


def _condensed_rows(
    ints: Sequence[Sequence[int]], s: int, lower: Sequence[Sequence[int]], inner: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The size-s minors of the integer rows, one list per row set (row sets and,
    within a list, column sets lexicographic), from the size-(s-1) and size-(s-2)
    levels by the Desnanot-Jacobi identity; a minor whose inner minor is 0 is its
    first-row expansion over the level below."""
    col_sets = _condensation_sets(len(ints[0]), s)
    out = []
    for rows, r_first, r_last, r_inner, _ in _condensation_sets(len(ints), s):
        top, bottom, mid = lower[r_first], lower[r_last], inner[r_inner]
        minors = []
        for cols, c_first, c_last, c_inner, deletions in col_sets:
            d = mid[c_inner]
            if d:
                minors.append((top[c_first] * bottom[c_last] - top[c_last] * bottom[c_first]) // d)
            else:
                terms = [ints[rows[0]][c] * top[p] for c, p in zip(cols, deletions)]
                minors.append(sum(terms[::2]) - sum(terms[1::2]))
        out.append(minors)
    return out


def _int_minor_levels(ints: Sequence[Sequence[int]], k: int) -> Iterator[Sequence[Sequence[int]]]:
    """The minors of sizes 1..k of the integer rows, one level per size: each
    level is one list per row set, row sets lexicographic, holding the minors on
    every column set, lexicographic.

    Size 1 is the rows themselves.  A minor M(R, C) of size s >= 2 is
    (M(R-r0, C-c0) M(R-r1, C-c1) - M(R-r0, C-c1) M(R-r1, C-c0)) / M(R-r0-r1, C-c0-c1)
    with r0, r1 the first and last rows of R and c0, c1 the first and last
    columns of C (Desnanot-Jacobi; the size-0 minor is 1), an exact quotient;
    when the inner minor is 0 it is sum_q (-1)^q a(r0, c_q) M(R-r0, C-c_q), so
    no minor is eliminated.  The sweep keeps the two levels below the one it
    builds, and refuses a level of more than ``MAX_LEVEL_MINORS`` minors before
    building it.

    Once a level is all 0 the rank is below its size, so every larger minor is
    0 too (expand it along a row over minors of that size).  Each later level
    is then zeros, not condensed: one list of zeros that every row set shares,
    so readers must not change a level.
    """
    m, n = len(ints), len(ints[0])
    inner: Sequence[Sequence[int]] = [[1]]
    lower: Sequence[Sequence[int]] = ints
    yield ints
    zero = not any(map(any, ints))
    for s in range(2, k + 1):
        count = math.comb(m, s) * math.comb(n, s)
        if count > MAX_LEVEL_MINORS:
            raise ResourceLimitError(f"{count} minors of size {s} exceed the {MAX_LEVEL_MINORS} one level may hold")
        if zero:
            lower = [[0] * math.comb(n, s)] * math.comb(m, s)
        else:
            inner, lower = lower, _condensed_rows(ints, s, lower, inner)
            zero = not any(map(any, lower))
        yield lower


def minors_up_to(a: ExactMatrix, k: int) -> Iterator[MinorRecord]:
    """All minors of size 1..k, sizes ascending, index sets lexicographic.

    The minors come from :func:`_int_minor_levels` on the matrix's scaled rows
    (``ExactMatrix.integer_rows``), each over the product of its rows' scales.
    It builds no minor table, but the complementarity sweeps' table
    (``lcp.MinorTable``) reads the same sweep, so the tests check both against
    a per-minor Fraction reference.
    """
    check_order(a, k)
    ints, scales = a.integer_rows
    for size, level in enumerate(_int_minor_levels(ints, k), 1):
        col_sets = [_one_based(cidx) for cidx in itertools.combinations(range(a.cols), size)]
        for ridx, values in zip(itertools.combinations(range(a.rows), size), level):
            scale = row_scale(scales, ridx)
            rows1 = _one_based(ridx)
            for cols1, value in zip(col_sets, values):
                yield MinorRecord(rows1, cols1, Fraction(value, scale))


def _contiguous_int_minors(a: ExactMatrix, sizes: Iterable[int]) -> Iterator[MinorWindow]:
    """``(rows0, cols0, minor)`` for every contiguous window of the sizes, window
    starts lexicographic: the minor of the scaled rows, one :func:`_int_minor`
    per window, independent of the minor table and of the condensation."""
    ints, _ = a.integer_rows
    for r in sizes:
        col_runs = index_sets(a.cols, r, True)
        for rows0, _, _ in index_sets(a.rows, r, True):
            rows = [ints[i] for i in rows0]
            for cols0, _, _ in col_runs:
                yield rows0, cols0, _int_minor(rows, cols0)


def contiguous_minors_up_to(a: ExactMatrix, k: int) -> Iterator[MinorRecord]:
    """Minors on consecutive row/column windows, sizes 1..k, window starts
    lexicographic: :func:`_contiguous_int_minors` over the row scales."""
    check_order(a, k)
    scales = a.integer_rows[1]
    for rows0, cols0, value in _contiguous_int_minors(a, range(1, k + 1)):
        yield MinorRecord(_one_based(rows0), _one_based(cols0), Fraction(value, row_scale(scales, rows0)))


def solve_window(a: ExactMatrix, rows0: Sequence[int], cols0: Sequence[int], coeffs: Sequence[int]) -> tuple[int, list[int]]:
    """``(M, N)`` for the window S on rows0 and cols0, storing nothing: M its
    minor on the scaled rows, and N the integers with adj(S) @ (coeffs / L) =
    N / (L * scale(rows0)) for every L > 0.

    With T the scaled window and D its row scales, N = adj(T) @ D c.
    Eliminating [T | D c] leaves det(P T) as the last pivot, P the row swaps;
    back substitution of P T x = P D c, scaled by det(P T), gives det(P T) x =
    sign(P) N, each entry an exact quotient by the pivot of its row: O(r^3).
    A singular window, where that says nothing of N, sums its own deletion
    minors, N_i = sum_j (-1)^(i+j) c_j d_(R_j) M(R - R_j, C - C_i).
    """
    ints, scales = a.integer_rows
    n = len(rows0)
    m = [[ints[i][j] for j in cols0] + [scales[i] * c] for i, c in zip(rows0, coeffs)]
    sign = _eliminate(m)
    pivot = m[-1][n - 1] if sign else 0
    if not pivot:
        rows = [ints[i] for i in rows0]
        weighted = [(j, (-1) ** j * scales[i] * c) for j, (i, c) in enumerate(zip(rows0, coeffs)) if c]
        return 0, [
            (-1) ** i * sum(w * _int_minor(rows[:j] + rows[j + 1 :], cols0[:i] + cols0[i + 1 :]) for j, w in weighted)
            for i in range(n)
        ]
    out = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        total = pivot * row[n] - sum(row[j] * out[j] for j in range(i + 1, n))
        out[i] = total // row[i]
    return sign * pivot, out if sign > 0 else [-v for v in out]


def parse_matrix(text: str) -> ExactMatrix:
    """Parse the shared text format: a header line "m n", then exactly m rows of n rationals."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    return _parse_matrix_lines(lines)


def _parse_matrix_lines(lines: list[str]) -> ExactMatrix:
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"expected header 'm n', got {lines[0]!r}")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad header {lines[0]!r}") from exc
    if m < 1 or n < 1:
        raise ValueError(f"matrix shape must be positive, got {m}x{n}")
    if len(lines) != 1 + m:
        raise ValueError(f"expected {m} data rows, found {len(lines) - 1}")
    flat: list[Fraction] = []
    for ln in lines[1 : 1 + m]:
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"expected {n} entries per row, got {len(toks)} in {ln!r}")
        try:
            flat.extend([parse_rational(t) for t in toks])
        except ValueError as exc:
            raise ValueError(f"bad rational in row {ln!r}: {exc}") from exc
    return ExactMatrix(m, n, tuple(flat))


def parse_matrix_pair(text: str) -> tuple[ExactMatrix, ExactMatrix]:
    """Parse two matrices separated by a blank line (the hull input format)."""
    blocks: list[list[str]] = [[]]
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    blocks = [b for b in blocks if b]
    if len(blocks) != 2:
        raise ValueError(f"hull input needs exactly two matrix blocks, found {len(blocks)}")
    return _parse_matrix_lines(blocks[0]), _parse_matrix_lines(blocks[1])


def parse_lcp_input(text: str) -> tuple[ExactMatrix, tuple[Fraction, ...]]:
    """Parse a matrix followed by a "q:" line carrying n rationals (or by "q:"
    and a line of them), and nothing after them."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    q_at = next((i for i, ln in enumerate(lines) if ln.startswith("q:")), None)
    if q_at is None:
        raise ValueError("LCP input needs a 'q:' line")
    a = _parse_matrix_lines(lines[:q_at])
    toks = lines[q_at][2:].split()
    end = q_at + 1
    if not toks and end < len(lines):
        toks = lines[end].split()
        end += 1
    if end < len(lines):
        raise ValueError(f"expected no line after the q values, found {len(lines) - end}")
    if len(toks) != a.rows:
        raise ValueError(f"expected {a.rows} entries for q, got {len(toks)}")
    try:
        q = tuple(parse_rational(t) for t in toks)
    except ValueError as exc:
        raise ValueError(f"bad rational in q: {exc}") from exc
    if not a.is_square:
        raise ValueError("LCP needs a square matrix")
    return a, q

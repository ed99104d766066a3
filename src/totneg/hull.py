"""Entrywise interval hulls of matrix pairs and their class certification.

The hull of (A, B) is the set of matrices whose (i, j) entry lies between
a_ij and b_ij.  Checkerboard sign words select distinguished members: two of
them decide total negativity of the whole hull, and the full sign-word family
decides total non-positivity.  The two checkerboard members do not decide
it, but one member per window does: its alternating member carries the
window's largest minor over the hull, so total non-positivity is decided one
minor per window, sizes ascending (see :func:`_some_member_has_a_positive_minor`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .checks import (
    TN,
    TNP,
    ClassQuery,
    Violation,
    check_by_contiguous_minors,
    check_by_minor_definition,
)
from .errors import DimensionError, InvariantError, ResourceLimitError
from .matrix import ExactMatrix, _rows_as_scaled_ints, check_order, det_of_rows
from .signs import alternating_signature

SignWord = tuple[int, ...]

#: Hard cap on m + n for the exhaustive 2^(m+n) sign-word sweep.
MAX_SWEEP_EXPONENT = 24


def _check_sign_word(z: Sequence[int], length: int, what: str) -> SignWord:
    word = tuple(int(v) for v in z)
    if len(word) != length:
        raise DimensionError(f"{what} must have length {length}, got {len(word)}")
    if any(v not in (1, -1) for v in word):
        raise ValueError(f"{what} must consist of +1/-1 entries")
    return word


@dataclass(frozen=True)
class IntervalHull:
    """Ordered pair (A, B) of equal-shape matrices spanning an entrywise hull."""

    a: ExactMatrix
    b: ExactMatrix

    def __post_init__(self) -> None:
        if self.a.shape != self.b.shape:
            raise DimensionError("hull endpoints must have equal shapes")

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @cached_property
    def bounds(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """The entrywise extremes (lo, hi) = (min(A, B), max(A, B)), row-major."""
        pairs = [(x, y) if x <= y else (y, x) for x, y in zip(self.a.entries, self.b.entries)]
        return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


@dataclass(frozen=True)
class HullVerdict:
    holds: bool
    method: str
    failing_sign_words: tuple[SignWord, SignWord] | None = None
    witness: Violation | None = None

    def __post_init__(self) -> None:
        if not self.holds and (self.failing_sign_words is None or self.witness is None):
            raise ValueError("a failing hull verdict needs the sign words and a violation")


def i_matrix(h: IntervalHull, z: Sequence[int], zt: Sequence[int]) -> ExactMatrix:
    """The hull member (A+B)/2 - D_z |A-B|/2 D_zt for sign words z, zt.

    Its (i, j) entry is min(a_ij, b_ij) where z_i zt_j = +1 and
    max(a_ij, b_ij) where z_i zt_j = -1.
    """
    m, n = h.shape
    zw = _check_sign_word(z, m, "row sign word")
    ztw = _check_sign_word(zt, n, "column sign word")
    lo, hi = h.bounds
    flat = tuple((lo if zi == zj else hi)[i * n + j] for i, zi in enumerate(zw) for j, zj in enumerate(ztw))
    return ExactMatrix(m, n, flat)


def c_plus_minus(h: IntervalHull) -> tuple[ExactMatrix, ExactMatrix]:
    """The two checkerboard members testing hull-wide total negativity."""
    m, n = h.shape
    d_m = alternating_signature(m)
    d_n = alternating_signature(n)
    c_plus = i_matrix(h, d_m, d_n)
    c_minus = i_matrix(h, d_m, tuple(-v for v in d_n))
    return c_plus, c_minus


def hull_is_totally_negative(h: IntervalHull, k: int) -> HullVerdict:
    """The entire hull is totally negative of order k iff both checkerboard members are."""
    check_order(h.a, k)
    m, n = h.shape
    d_m = alternating_signature(m)
    d_n = alternating_signature(n)
    for zt in (d_n, tuple(-v for v in d_n)):
        member = i_matrix(h, d_m, zt)
        verdict = check_by_contiguous_minors(member, ClassQuery(TN, k))
        if not verdict.holds:
            return HullVerdict(False, "hull_tn", (d_m, zt), verdict.witness)
    return HullVerdict(True, "hull_tn")


def _gray_words(m: int, n: int):
    """Deterministic Gray-code enumeration of all (z, zt) sign-word pairs."""
    total = m + n
    for idx in range(1 << total):
        g = idx ^ (idx >> 1)
        bits = [1 if (g >> p) & 1 == 0 else -1 for p in range(total)]
        yield tuple(bits[:m]), tuple(bits[m:])


def _some_member_has_a_positive_minor(h: IntervalHull, k: int) -> bool:
    """Whether some hull member has a positive minor of size at most k.

    A size-1 minor is largest at max(A, B).  For a window of size r >= 2, a
    minor is affine in each entry, with the signed complementary minor as
    coefficient.  Once every member is TNP of order r - 1 (checked one size
    down), the coefficient at window position (p, q) is 0 or has the sign
    -(-1)^(p+q) on the whole hull.  Moving entries one at a time to
    max(a_ij, b_ij) where p + q is odd and to min(a_ij, b_ij) where it is even
    never lowers the minor, so the window's largest minor over the hull is at
    that alternating member, and one minor per window decides.
    """
    m, n = h.shape
    lo, hi = h.bounds
    if any(v > 0 for v in hi):
        return True
    # row i of (lo | hi) times the lcm of its denominators: a positive row scale keeps every minor's sign
    rows, _ = _rows_as_scaled_ints([lo[i * n : (i + 1) * n] + hi[i * n : (i + 1) * n] for i in range(m)])
    for size in range(2, k + 1):
        # each column set's columns in (lo | hi), on window rows p even and p odd
        col_sets = [
            ([j + n * (q % 2) for q, j in enumerate(cols)], [j + n * (1 - q % 2) for q, j in enumerate(cols)])
            for cols in itertools.combinations(range(n), size)
        ]
        for row_set in itertools.combinations(range(m), size):
            for cols in col_sets:
                window = [[rows[i][c] for c in cols[p % 2]] for p, i in enumerate(row_set)]
                if det_of_rows(window) > 0:
                    return True
    return False


def hull_is_totally_nonpositive(h: IntervalHull, k: int) -> HullVerdict:
    """The hull is totally non-positive of order k iff every sign-word member is.

    The decision reads one minor per window (see
    :func:`_some_member_has_a_positive_minor`); only a failing hull is then
    swept member by member, in Gray-code order, to name the first failing
    sign-word pair and its minor-definition witness.
    """
    check_order(h.a, k)
    m, n = h.shape
    if m + n > MAX_SWEEP_EXPONENT:
        raise ResourceLimitError(
            f"sign-word sweep needs 2^{m + n} members; cap is 2^{MAX_SWEEP_EXPONENT}"
        )
    if not _some_member_has_a_positive_minor(h, k):
        return HullVerdict(True, "hull_tnp")
    for z, zt in _gray_words(m, n):
        member = i_matrix(h, z, zt)
        verdict = check_by_minor_definition(member, ClassQuery(TNP, k))
        if not verdict.holds:
            return HullVerdict(False, "hull_tnp", (z, zt), verdict.witness)
    raise InvariantError(f"a sign-word member has a positive minor of size at most {k}, yet no member fails")

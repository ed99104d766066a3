"""Certification of total negativity / total non-positivity of order k.

Each decision procedure returns a :class:`Verdict` whose witness, when the
verdict is negative, can be re-checked from the matrix alone: an offending
minor, a vector whose sign pattern is reversed, or a vector whose variation
count grows.  Preconditions on the matrix sign (entrywise negative for the
strict class, entrywise non-positive for the weak one) are folded into the
verdict as size-1 minor witnesses rather than raised, so callers always get a
certificate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .errors import DimensionError, ResourceLimitError
from .matrix import (  # noqa: F401 - adjugate and minors_up_to stay bound here for the benchmark's tracer
    ExactMatrix,
    RationalLike,
    MinorWindow,
    SweptWindow,
    _condensation_sets,
    _contiguous_int_minors,
    _int_minor_levels,
    _one_based,
    _rows_as_scaled_ints,
    adjugate,
    check_order,
    det,
    index_sets,
    minors_up_to,
    row_scale,
    solve_window,
    submatrix,
    to_fraction,
)
from .signs import SignProfile, is_mixed_orthant, sign_profile

TN = "tn"
TNP = "tnp"
MatrixClass = Literal["tn", "tnp"]

#: Hard cap on the largest matrix dimension for sweeps over all square
#: submatrices (their count grows exponentially).  Beyond it we refuse.
MAX_ALL_SUBMATRIX_DIM = 12


class ViolationKind(str, Enum):
    NONNEGATIVE_MINOR = "nonnegative_minor"
    POSITIVE_MINOR = "positive_minor"
    SIGN_REVERSAL = "sign_reversal"
    VARIATION_INCREASE = "variation_increase"
    EQUALITY_SIGN_CLAUSE = "equality_sign_clause"
    LCP_SOLUTION_MISMATCH = "lcp_solution_mismatch"


@dataclass(frozen=True)
class Violation:
    """A re-checkable certificate that a class membership fails.

    ``rows``/``cols`` are 1-based index sets naming the submatrix involved;
    ``vector`` carries the test vector for reversal/variation witnesses and
    ``detail`` the offending minor value where applicable.
    """

    kind: ViolationKind
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    vector: tuple[Fraction, ...] | None = None
    detail: Fraction | None = None

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    method: str
    witness: Violation | None = None

    def __post_init__(self) -> None:
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict requires a witness")


@dataclass(frozen=True)
class ClassQuery:
    matrix_class: MatrixClass
    order: int

    def __post_init__(self) -> None:
        if self.matrix_class not in (TN, TNP):
            raise ValueError(f"unknown matrix class {self.matrix_class!r}")
        if self.order < 1:
            raise ValueError("order must be at least 1")


@dataclass(frozen=True)
class AlphaChoice:
    """Magnitudes and a global sign for the alternating test coefficients.

    The realized coefficient vector of length r is
    ``global_sign * (a_1, -a_2, ..., (-1)^(r-1) a_r)`` with the magnitudes
    cycled to length r.
    """

    magnitudes: tuple[Fraction, ...]
    global_sign: int = 1

    def __post_init__(self) -> None:
        if not self.magnitudes:
            raise ValueError("alpha needs at least one magnitude")
        if any(m < 0 for m in self.magnitudes):
            raise ValueError("alpha magnitudes must be non-negative")
        if not any(self.magnitudes):
            raise ValueError("alpha magnitudes must not all be zero")
        if self.global_sign not in (1, -1):
            raise ValueError("global sign must be +1 or -1")

    @classmethod
    def of(cls, magnitudes: Sequence[RationalLike], global_sign: int = 1) -> "AlphaChoice":
        return cls(tuple(to_fraction(m) for m in magnitudes), global_sign)

    @property
    def strictly_positive(self) -> bool:
        return all(m > 0 for m in self.magnitudes)

    def realized(self, r: int) -> tuple[Fraction, ...]:
        mags = [self.magnitudes[i % len(self.magnitudes)] for i in range(r)]
        if not any(mags):
            raise ValueError(f"alpha pattern collapses to the zero vector at size {r}")
        return tuple(self.global_sign * (m if i % 2 == 0 else -m) for i, m in enumerate(mags))


DEFAULT_ALPHA = AlphaChoice((Fraction(1),), 1)


def _minor_kind(strict: bool) -> ViolationKind:
    return ViolationKind.NONNEGATIVE_MINOR if strict else ViolationKind.POSITIVE_MINOR


def _entry_violation(a: ExactMatrix, strict: bool) -> Violation | None:
    """The first entry (size-1 minor) of the wrong sign, in row-major order."""
    hit = a.first_entry_violating(strict)
    return None if hit is None else Violation(_minor_kind(strict), hit[:1], hit[1:2], detail=hit[2])


def _level_minors(
    a: ExactMatrix, k: int, least: int, levels: Iterable[Sequence[Sequence[int]]] | None = None
) -> Iterator[MinorWindow]:
    """Every window of size 2..k with its minor, read off the condensation sweep
    (:func:`_int_minor_levels`, or ``levels`` when given) a row set at a time,
    with no minor table; a row set whose minors are all below ``least`` is skipped."""
    for r, level in enumerate(levels or _int_minor_levels(a.integer_rows[0], k), 1):
        col_sets = index_sets(a.cols, r, False)
        for (rows0, _, _), values in zip(index_sets(a.rows, r, False), level):
            if r > 1 and max(values) >= least:
                yield from ((rows0, cols0, v) for (cols0, _, _), v in zip(col_sets, values))


def _minor_sweep(a: ExactMatrix, windows: Iterable[MinorWindow], strict: bool) -> Violation | None:
    """The first of the windows whose minor breaks the class; a Fraction is built for the witness only."""
    least = 0 if strict else 1  # the least integer minor that breaks the class
    for rows0, cols0, v in windows:
        if v >= least:
            detail = Fraction(v, row_scale(a.integer_rows[1], rows0))
            return Violation(_minor_kind(strict), _one_based(rows0), _one_based(cols0), detail=detail)
    return None


#: Judges one window from the signs of x = adj(S) @ alpha and of S x = det(S) alpha
#: (integers and the sign pattern of S x in the sweeps, the recorded Fractions in
#: ``verify_vector_witness``); returns the violation kind, or None.
Judge = Callable[[Sequence[int], Sequence[int]], ViolationKind | None]


def _contiguous_solves(a: ExactMatrix, r: int, coeffs: Sequence[int]) -> Iterator[SweptWindow]:
    """Each contiguous window's minor and adjugate numerators from one solve on
    the scaled rows (:func:`solve_window`), with no minor table."""
    col_runs = index_sets(a.cols, r, True)
    for rows0, _, _ in index_sets(a.rows, r, True):
        for cols0, _, _ in col_runs:
            yield rows0, cols0, *solve_window(a, rows0, cols0, coeffs)


@lru_cache(maxsize=256)
def _signed_deletions(n: int, r: int) -> tuple[tuple[tuple[int, ...], itemgetter], ...]:
    """(C, pick) for each r-subset C of range(n), r >= 2, lexicographic, where
    pick(G + [-g for g in G]) = ((-1)^l G(C - C_l))_l for G indexed by the
    (r-1)-subsets; built once per (n, r)."""
    half = math.comb(n, r - 1)
    signed = ((c, [p + half * (l % 2) for l, p in enumerate(d)]) for c, *_, d in _condensation_sets(n, r))
    return tuple((c, itemgetter(*positions)) for c, positions in signed)


def _level_solves(
    a: ExactMatrix, r: int, coeffs: Sequence[int], lower: Sequence[Sequence[int]], level: Sequence[Sequence[int]]
) -> Iterator[SweptWindow]:
    """Every window of size r >= 2 whose minor is not 0, lexicographic, with its
    minor (its entry in ``level``, level r of the scaled rows) and adjugate
    numerators N, from ``lower``, level r - 1: for the row set R, G(C') =
    sum_j (-1)^j c_j d_(R_j) M(R - R_j, C') is summed once for every C' of size
    r - 1, and each column window C has N_l = (-1)^l G(C - C_l), at the
    deletion positions :func:`_condensation_sets` lists.  A row set whose
    minors are all 0 is skipped before its G is summed."""
    scales = a.integer_rows[1]
    picks = _signed_deletions(a.cols, r)
    for (rows0, *_, rdels), values in zip(_condensation_sets(a.rows, r), level):
        if not any(values):
            continue
        weights = [-c * scales[i] if j % 2 else c * scales[i] for j, (i, c) in enumerate(zip(rows0, coeffs))]
        g = [sum(map(mul, weights, column)) for column in zip(*[lower[p] for p in rdels])]
        signed = g + [-v for v in g]
        for (cols0, pick), det in zip(picks, values):
            if det:
                yield rows0, cols0, det, pick(signed)


def _first_failure(judges: Sequence[Judge]) -> Judge:
    """One judge for several: the kind the first failing one finds, else None;
    a single judge is itself, so a one-method sweep calls it directly."""
    if len(judges) == 1:
        return judges[0]

    def judge(x: Sequence[int], y: Sequence[int]) -> ViolationKind | None:
        for j in judges:
            kind = j(x, y)
            if kind is not None:
                return kind
        return None

    return judge


def _test_vector_sweep(
    a: ExactMatrix, k: int, alpha: AlphaChoice, judges: Sequence[Judge], contiguous: bool
) -> list[tuple[Violation | None, float]]:
    """Judge the single test vector adj(S) @ alpha on every contiguous window
    (or every window) S of size 2..k, for all the judges in one pass: each
    judge's first violation (None when it has none) with the ``perf_counter``
    reading at which it was decided.  A judge retires at its first violation,
    and the sweep stops when none is left.

    With alpha = c / L over integers c, x = N / (L * scale(S)) where N are the
    window's adjugate numerators, and S x = det(S) alpha has the signs of c, -c
    or 0 by the sign of minor(S).  Both denominators are positive, so the judges
    see the right signs; the Fraction vector is built for a witness only.

    A contiguous window gets minor(S) and N from one solve on the scaled rows;
    the sweep over all windows, the TNP one, streams them off two adjacent
    condensation levels (:func:`_level_solves`).  Neither builds a minor table.
    The stream skips every window whose minor is 0, where S x = 0 and neither
    weak test can fail, and stops at the first all-zero level.
    """
    found: dict[Judge, tuple[Violation, float]] = {}
    live = list(judges)
    judge = _first_failure(live)
    if not contiguous:
        levels = _int_minor_levels(a.integer_rows[0], k)
        lower = next(levels)
    for r in range(2, k + 1):
        (coeffs,), (lcm,) = _rows_as_scaled_ints([alpha.realized(r)])  # alpha = coeffs / lcm
        images = ([0] * r, coeffs, [-c for c in coeffs])  # sign patterns of S x, indexed by sign(det)
        if contiguous:
            windows = _contiguous_solves(a, r, coeffs)
        else:
            level = next(levels)
            if not any(map(any, level)):
                break
            windows = _level_solves(a, r, coeffs, lower, level)
            lower = level
        for rows0, cols0, det, x in windows:
            y = images[(det > 0) - (det < 0)]
            if judge(x, y) is None:
                continue
            decided = time.perf_counter()
            denominator = lcm * row_scale(a.integer_rows[1], rows0)
            vector = tuple(Fraction(v, denominator) for v in x)
            for j in live:  # every judge that fails here retires here
                kind = j(x, y)
                if kind is not None:
                    found[j] = Violation(kind, _one_based(rows0), _one_based(cols0), vector=vector), decided
            live = [j for j in live if j not in found]
            if not live:
                return [found[j] for j in judges]
            judge = _first_failure(live)
    end = time.perf_counter()
    return [found.get(j, (None, end)) for j in judges]


def check_by_minor_definition(
    a: ExactMatrix, query: ClassQuery, levels: Iterable[Sequence[Sequence[int]]] | None = None
) -> Verdict:
    """Decide the class by enumerating every minor of size at most the order.

    ``levels``, when given, is the condensation sweep of the scaled rows to
    order ``query.order`` that the scan reads in place of a sweep of its own;
    generation passes one that also digests each level for the certificate."""
    check_order(a, query.order)
    strict = query.matrix_class == TN
    least = 0 if strict else 1
    bad = _entry_violation(a, strict) or _minor_sweep(a, _level_minors(a, query.order, least, levels), strict)
    return Verdict(bad is None, "minor_definition", bad)


def check_by_contiguous_minors(a: ExactMatrix, query: ClassQuery) -> Verdict:
    """Decide total negativity from contiguous minors only.

    The contiguous reduction is an equivalence for the strictly negative class;
    for the non-positive class it is merely necessary, so that mode delegates
    to the full minor enumeration instead of claiming an equivalence.  Each
    window is eliminated on its own (:func:`_contiguous_int_minors`), apart from
    the minor table, so this check is independent of the condensation.
    """
    check_order(a, query.order)
    if query.matrix_class == TNP:
        return check_by_minor_definition(a, query)
    bad = _entry_violation(a, True) or _minor_sweep(a, _contiguous_int_minors(a, range(2, query.order + 1)), True)
    return Verdict(bad is None, "contiguous_minors", bad)


def sign_non_reversal(a: ExactMatrix, x: Sequence[Fraction], strict: bool) -> tuple[bool, int | None]:
    """Does a coordinate keep its sign through multiplication by ``a``?

    Strict: some i has x_i (Ax)_i > 0.  Non-strict: some i has x_i != 0 and
    x_i (Ax)_i >= 0.  Returns the smallest such 1-based coordinate.
    """
    if not a.is_square:
        raise DimensionError("sign non-reversal needs a square matrix")
    if len(x) != a.cols:
        raise DimensionError("vector length does not match matrix size")
    if all(v == 0 for v in x):
        raise ValueError("sign non-reversal is undefined for the zero vector")
    i = _kept_coordinate(x, a.matvec(x), strict)
    return i is not None, i


def _kept_coordinate(x: Sequence[RationalLike], y: Sequence[RationalLike], strict: bool) -> int | None:
    """Smallest 1-based i with x_i y_i > 0 (strict) or x_i != 0, x_i y_i >= 0; else None."""
    for i, (xi, yi) in enumerate(zip(x, y)):
        if xi * yi > 0 if strict else xi != 0 and xi * yi >= 0:
            return i + 1
    return None


def _tn_snr_judge(x: Sequence[int], y: Sequence[int]) -> ViolationKind | None:
    if not any(x) or _kept_coordinate(x, y, strict=True) is None:
        return ViolationKind.SIGN_REVERSAL
    return None


def _tnp_snr_judge(x: Sequence[int], y: Sequence[int]) -> ViolationKind | None:
    # nothing to test at the zero vector
    if any(x) and _kept_coordinate(x, y, strict=False) is None:
        return ViolationKind.SIGN_REVERSAL
    return None


def _tn_equality_clause_holds(profile_in: SignProfile, profile_out: SignProfile) -> bool:
    """The end signs of Ax at the maximum are forced and agree with x's first / last nonzero coordinate."""
    for sset, ref in (
        (profile_out.first_signs_at_max, profile_in.first_nonzero_sign),
        (profile_out.last_signs_at_max, profile_in.last_nonzero_sign),
    ):
        if len(sset) != 1 or ref is None or next(iter(sset)) != ref:
            return False
    return True


def vd_check(a: ExactMatrix, x: Sequence[Fraction]) -> tuple[bool, SignProfile, SignProfile]:
    """Variation-diminution test of one vector with mixed signs.

    Satisfied iff s_plus(Ax) <= s_minus(x), and in the equality case with
    Ax != 0 the end signs of Ax at the maximum are forced and agree with the
    first / last nonzero coordinate of x.
    """
    if len(x) != a.cols:
        raise DimensionError("vector length does not match column count")
    if not is_mixed_orthant(x):
        raise ValueError("variation test vector must have both positive and negative coordinates")
    return _variation_verdict(x, a.matvec(x))


def _variation_verdict(x: Sequence[RationalLike], y: Sequence[RationalLike]) -> tuple[bool, SignProfile, SignProfile]:
    """The variation test of x against its image y; only their signs matter."""
    profile_in = sign_profile(x)
    profile_out = sign_profile(y)
    if profile_out.s_plus < profile_in.s_minus:
        return True, profile_in, profile_out
    if profile_out.s_plus > profile_in.s_minus:
        return False, profile_in, profile_out
    if all(v == 0 for v in y):
        return True, profile_in, profile_out
    ok = _tn_equality_clause_holds(profile_in, profile_out)
    return ok, profile_in, profile_out


def _tn_vd_judge(x: Sequence[int], y: Sequence[int]) -> ViolationKind | None:
    if not is_mixed_orthant(x):
        # degenerate adjugate: cannot happen while all smaller
        # contiguous minors are negative, so this already certifies failure
        return ViolationKind.VARIATION_INCREASE
    ok, profile_in, profile_out = _variation_verdict(x, y)
    if ok:
        return None
    if profile_out.s_plus > profile_in.s_minus:
        return ViolationKind.VARIATION_INCREASE
    return ViolationKind.EQUALITY_SIGN_CLAUSE


def _tnp_vd_failure(x: Sequence[RationalLike], y: Sequence[RationalLike]) -> ViolationKind | None:
    """Weak-variation test of x against its image y: s_minus(y) <= s_minus(x)
    plus the end-sign clause; only their signs matter."""
    smx, first_x, last_x = _weak_signs(x)
    smy, first_y, last_y = _weak_signs(y)
    if smy > smx:
        return ViolationKind.VARIATION_INCREASE
    if smy < smx or first_y is None:
        return None
    if (first_x, last_x) != (first_y, last_y):
        return ViolationKind.EQUALITY_SIGN_CLAUSE
    return None


def _weak_signs(v: Sequence[RationalLike]) -> tuple[int, bool | None, bool | None]:
    """One pass over v: (s_minus(v), whether its first and its last nonzero
    coordinate are positive), with None for both ends when v = 0."""
    changes = 0
    first = last = None
    for e in v:
        if e:
            positive = e > 0
            if last is None:
                first = positive
            elif positive is not last:
                changes += 1
            last = positive
    return changes, first, last


def _tnp_vd_judge(x: Sequence[int], y: Sequence[int]) -> ViolationKind | None:
    return _tnp_vd_failure(x, y) if any(x) else None


#: Each single-vector procedure, keyed by the method name of its verdict: the
#: class it decides, whether it sweeps the contiguous windows only, and its judge.
SINGLE_VECTOR: dict[str, tuple[MatrixClass, bool, Judge]] = {
    "snr_single_vector": (TN, True, _tn_snr_judge),
    "vd_single_vector": (TN, True, _tn_vd_judge),
    "tnp_snr_single_vector": (TNP, False, _tnp_snr_judge),
    "tnp_vd_single_vector": (TNP, False, _tnp_vd_judge),
}


def check_all_window_dims(a: ExactMatrix) -> None:
    """Refuse a sweep over every square submatrix of a matrix with a dimension
    beyond ``MAX_ALL_SUBMATRIX_DIM``: their count grows exponentially."""
    if max(a.rows, a.cols) > MAX_ALL_SUBMATRIX_DIM:
        raise ResourceLimitError(f"all-submatrix sweep refused for dimensions beyond {MAX_ALL_SUBMATRIX_DIM}")


def check_alpha(alpha: AlphaChoice | None, cls: MatrixClass, k: int) -> None:
    """Refuse test coefficients that the class's sweeps up to order k cannot use
    (None stands for the default, which every class can).  The magnitudes
    cycle, so a pattern that collapses at some size collapses at size 2."""
    if alpha is None or k < 2:
        return
    if cls == TNP and not alpha.strictly_positive:
        raise ValueError("the single-vector non-positive test needs strictly positive alpha magnitudes")
    alpha.realized(2)


def _single_vector_check(
    a: ExactMatrix, k: int | None, alpha: AlphaChoice | None, methods: Sequence[str]
) -> list[tuple[Verdict, float]]:
    """The single-vector procedures ``methods``, all of one class, at order k
    (full order when None), from one sweep: the dimension refusal of the
    all-window sweeps, the entry precondition, then every judge on each window's
    test vector.  Each verdict comes with the ``perf_counter`` reading at which
    it was decided."""
    cls, contiguous, _ = SINGLE_VECTOR[methods[0]]
    if k is None:
        k = min(a.rows, a.cols)
    check_order(a, k)
    check_alpha(alpha, cls, k)
    if not contiguous:
        check_all_window_dims(a)
    bad = _entry_violation(a, strict=cls == TN)
    if bad is None and k > 1:
        judges = [SINGLE_VECTOR[m][2] for m in methods]
        found = _test_vector_sweep(a, k, alpha or DEFAULT_ALPHA, judges, contiguous)
    else:
        found = [(bad, time.perf_counter())] * len(methods)
    return [(Verdict(v is None, m, v), t) for m, (v, t) in zip(methods, found)]


def check_tn_snr_single_vector(
    a: ExactMatrix, k: int, alpha: AlphaChoice | None = None
) -> Verdict:
    """Single-test-vector sign non-reversal decision for total negativity of order k.

    Checks that the matrix is entrywise negative, then that each contiguous
    square submatrix of size 2..k does not reverse the sign of
    adj(submatrix) @ alpha.  At k = 1 this degenerates to the entry check.
    """
    return _single_vector_check(a, k, alpha, ("snr_single_vector",))[0][0]


def check_tn_vd_single_vector(
    a: ExactMatrix,
    alpha: AlphaChoice | None = None,
    k: int | None = None,
) -> Verdict:
    """Single-test-vector variation-diminution decision for total negativity.

    With the default ``k = min(m, n)`` this decides full total negativity;
    passing a smaller k restricts the sweep to contiguous submatrices of size
    at most k and decides total negativity of that order.
    """
    return _single_vector_check(a, k, alpha, ("vd_single_vector",))[0][0]


def check_tnp_snr(
    a: ExactMatrix,
    k: int,
    alpha: AlphaChoice | None = None,
) -> Verdict:
    """Non-strict sign non-reversal decision for total non-positivity of order k.

    Sweeps every square submatrix of size 2..k (not only contiguous ones) and
    tests the vector adj(submatrix) @ alpha, where alpha must have strictly
    positive magnitudes.
    """
    return _single_vector_check(a, k, alpha, ("tnp_snr_single_vector",))[0][0]


def check_tnp_vd(
    a: ExactMatrix,
    alpha: AlphaChoice | None = None,
    k: int | None = None,
) -> Verdict:
    """Weak variation-diminution decision for total non-positivity.

    Sweeps all square submatrices of sizes 2..k with the vector
    adj(submatrix) @ alpha and decides total non-positivity of order k (full
    order by default).
    """
    return _single_vector_check(a, k, alpha, ("tnp_vd_single_vector",))[0][0]


def verify_vector_witness(a: ExactMatrix, method: str, v: Violation) -> str | None:
    """Re-check a test-vector witness of the single-vector procedure ``method``
    on ``a``: None when it verifies, else what is wrong.

    The judge must give the recorded kind on (x, S x), S the witness window.  A
    determinant d of S that breaks the class is a witness by itself; otherwise
    x = adj(S) alpha' for alpha' = S x / d, which must be test coefficients the
    class admits.  On every such x, each window of size 2 or more of a matrix
    in the class passes the judge.
    """
    if method not in SINGLE_VECTOR or v.vector is None or len(v.rows) < 2:
        return "a test vector witness needs a single-vector method, a vector and a window of size 2 or more"
    cls, _, judge = SINGLE_VECTOR[method]
    s = submatrix(a, v.rows, v.cols)
    y = s.matvec(v.vector)
    kind = judge(v.vector, y)
    if kind is not v.kind:
        return f"the judge finds {kind.value if kind else 'no violation'}, not {v.kind.value}"
    d = det(s)
    if d >= 0 if cls == TN else d > 0:
        return None
    if d == 0 or not any(y):
        return "vector is not the test vector of a nonsingular window"
    alpha = tuple(t / d for t in y)
    mags = tuple(abs(t) for t in alpha)
    if not any(AlphaChoice(mags, g).realized(len(mags)) == alpha for g in (1, -1)):
        return "S x / det(S) does not alternate in sign"
    if cls == TNP and not all(mags):
        return "S x / det(S) has a zero coordinate, which the non-positive test does not admit"
    return None

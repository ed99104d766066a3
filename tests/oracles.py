"""Reference oracles for the tests, independent of the library's fast paths,
and the sampled sign-reversal, variation and complementarity sweeps that only
the tests run."""

import contextlib
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal, Sequence

import pytest
from hypothesis import strategies as st

from totneg import (
    TN,
    AlphaChoice,
    ClassQuery,
    Verdict,
    Violation,
    ViolationKind,
    DimensionError,
    ExactMatrix,
    LCPInstance,
    LCPSolutionSet,
    ResourceLimitError,
    SolutionFamily,
    TnpLcpReport,
    TnpLcpStatus,
    adjugate,
    check_by_minor_definition,
    s_minus,
    sign_non_reversal,
    solve_lcp,
)
from totneg.checks import MAX_ALL_SUBMATRIX_DIM, _entry_violation, _level_solves, _tnp_vd_failure, vd_check
from totneg.errors import InvariantError
from totneg.generate import (
    GeneratedInstance,
    Rows,
    _sub_rows,
    _tn_square_rows,
    generate_tnp,
)
from totneg.hull import IntervalHull, i_matrix
from totneg.lcp import _FM_CONSTRAINT_CAP, MinorTable, Point, _compare_candidates, _support_solutions
from totneg.matrix import (
    MinorRecord,
    _int_minor_levels,
    _one_based,
    check_order,
    cofactor_minor,
    det_of_rows,
    to_fraction,
)

Window = tuple[tuple[int, ...], tuple[int, ...]]


def contiguous_windows(m: int, n: int, r: int) -> Iterator[Window]:
    """The (rows, cols) pairs of consecutive r-runs, 0-based, window starts lexicographic."""
    return itertools.product(
        [tuple(range(i, i + r)) for i in range(m - r + 1)],
        [tuple(range(j, j + r)) for j in range(n - r + 1)],
    )


def masks(rows0: Sequence[int], cols0: Sequence[int]) -> tuple[int, int]:
    """The bit masks of a window's 0-based index sets, as ``MinorTable.minor_of_masks`` takes them."""
    return sum(1 << i for i in rows0), sum(1 << j for j in cols0)


def all_windows(m: int, n: int, r: int) -> Iterator[Window]:
    """Every (rows, cols) pair of r-subsets of an m x n matrix, 0-based, lexicographic."""
    return itertools.product(itertools.combinations(range(m), r), itertools.combinations(range(n), r))


def take(a: ExactMatrix, rows0: Sequence[int], cols0: Sequence[int]) -> ExactMatrix:
    """Submatrix on 0-based index sets, unchecked (the sweeps' fast path of :func:`submatrix`)."""
    flat = tuple(a.entries[i * a.cols + j] for i in rows0 for j in cols0)
    return ExactMatrix(len(rows0), len(cols0), flat)


def identity(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))


def transpose(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.cols, a.rows, tuple(a.entries[i * a.cols + j] for j in range(a.cols) for i in range(a.rows)))


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise DimensionError("inner dimensions do not match")
    rows, cols = a.row_list(), transpose(b).row_list()
    flat = tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for row in rows for col in cols)
    return ExactMatrix(a.rows, b.cols, flat)


def scale(a: ExactMatrix, factor) -> ExactMatrix:
    f = to_fraction(factor)
    return ExactMatrix(a.rows, a.cols, tuple(f * e for e in a.entries))


def is_entrywise_negative(a: ExactMatrix) -> bool:
    return all(e < 0 for e in a.entries)


def first_entry_violating(a: ExactMatrix, strict: bool) -> tuple[int, int, Fraction] | None:
    """First (i, j, value) with value >= 0 (strict) or value > 0 (non-strict): a
    row-major scan comparing each entry as a Fraction, against which the signs
    ``ExactMatrix.first_entry_violating`` reads once per matrix are tested."""
    for i in range(a.rows):
        for j in range(a.cols):
            v = a.entries[i * a.cols + j]
            if (v >= 0) if strict else (v > 0):
                return (i + 1, j + 1, v)
    return None


def is_entrywise_nonpositive(a: ExactMatrix) -> bool:
    return all(e <= 0 for e in a.entries)


def hull_contains(h: IntervalHull, c: ExactMatrix) -> bool:
    """Exact entrywise membership of c in the hull."""
    if c.shape != h.shape:
        return False
    lo, hi = h.bounds
    return all(x <= v <= y for x, v, y in zip(lo, c.entries, hi))


def table_value(table: MinorTable, rows0: Sequence[int], cols0: Sequence[int]) -> Fraction:
    """The (rows0, cols0) minor of the table's matrix itself."""
    return Fraction(table.minor_of_masks(*masks(rows0, cols0)), table.scale(rows0))


def adjugate_numerators(table: MinorTable, rows0: Sequence[int], cols0: Sequence[int], coeffs: Sequence[int]) -> list[int]:
    """Integers N with adj(S) @ (coeffs / L) = N / (L * scale(rows0)) for every L > 0,
    S the (rows0, cols0) submatrix, of size at least 2, read window by window
    from the table's deletion minors.

    Entry i of adj(S) @ c is sum_j (-1)^(i+j) c_j M_ji, and the deletion minor
    M_ji = minor(R minus R_j, C minus C_i) * d_(R_j) / scale(R).
    """
    rmask, cmask = masks(rows0, cols0)
    weighted = [
        (rmask ^ (1 << row), (-1) ** j * c * table.scale((row,)))
        for j, (row, c) in enumerate(zip(rows0, coeffs))
        if c
    ]
    return [
        (-1) ** i * sum(w * table.minor_of_masks(rm, cmask ^ (1 << col)) for rm, w in weighted)
        for i, col in enumerate(cols0)
    ]


@contextlib.contextmanager
def built_tables() -> Iterator[list[tuple[ExactMatrix, MinorTable]]]:
    """The (matrix, table) of every ``lcp.MinorTable`` built inside the block,
    in the order they are built; empty when the block builds none."""
    built: list[tuple[ExactMatrix, MinorTable]] = []
    real = MinorTable.__init__

    def counting(table: MinorTable, a: ExactMatrix) -> None:
        real(table, a)
        built.append((a, table))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MinorTable, "__init__", counting)
        yield built


def stored_minors(table: MinorTable) -> int:
    """How many minors the table keeps."""
    return len(table._values)


def levels_drawn(table: MinorTable) -> int:
    """The largest size whose level the table has drawn from its sweep and
    stored whole (0: none)."""
    return table._whole


def streamed_windows(a: ExactMatrix, k: int, coeffs: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...], int, list[int]]]:
    """(rows0, cols0, minor, N) of every window that the TNP test-vector stream
    (``checks._level_solves``) yields at sizes 2..k with the coefficients
    coeffs[:r] at size r, fed two adjacent condensation levels at a time as
    the sweep feeds it."""
    levels = _int_minor_levels(a.integer_rows[0], k)
    lower = next(levels)
    out = []
    for r, level in enumerate(levels, 2):
        out += [(rows0, cols0, minor, list(x)) for rows0, cols0, minor, x in _level_solves(a, r, coeffs[:r], lower, level)]
        lower = level
    return out


def adjugate_by_cofactors(s: ExactMatrix) -> list[list[Fraction]]:
    """adj(S) of a square S of size 2 or more: entry (i, j) is (-1)^(i+j) times
    the cofactor expansion of S without row j and column i."""
    n = s.rows
    rest = [[k for k in range(n) if k != i] for i in range(n)]
    return [[(-1) ** (i + j) * det_by_cofactor_expansion(take(s, rest[j], rest[i])) for j in range(n)] for i in range(n)]


def reference_streamed_windows(a: ExactMatrix, k: int, coeffs: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...], int, list[int]]]:
    """:func:`streamed_windows` from Fractions, window by window: each window S
    of size r in 2..k with det(S) != 0, lexicographic, as (rows0, cols0,
    det(S) scale(R), adj(S) coeffs[:r] scale(R)), scale(R) the product of the
    lcm of each row's denominators; a non-integer value cannot equal the stream's."""
    row_scales = [math.lcm(*(v.denominator for v in row)) for row in a.row_list()]
    out = []
    for r in range(2, k + 1):
        for rows0, cols0 in all_windows(a.rows, a.cols, r):
            s = take(a, rows0, cols0)
            d = det_by_cofactor_expansion(s)
            if d:
                factor = math.prod(row_scales[i] for i in rows0)
                adj = adjugate_by_cofactors(s)
                out.append((rows0, cols0, d * factor, [sum(map(operator.mul, row, coeffs[:r])) * factor for row in adj]))
    return out


def reference_minors_up_to(a: ExactMatrix, k: int) -> Iterator[MinorRecord]:
    """``minors_up_to`` with every minor a Fraction ``det_of_rows`` of its own
    entries: sizes ascending, index sets lexicographic."""
    check_order(a, k)
    rows = a.row_list()
    for size in range(1, k + 1):
        for ridx in itertools.combinations(range(a.rows), size):
            sel_rows = [rows[i] for i in ridx]
            for cidx in itertools.combinations(range(a.cols), size):
                val = det_of_rows([[r[j] for j in cidx] for r in sel_rows])
                yield MinorRecord(_one_based(ridx), _one_based(cidx), val)


def reference_contiguous_minors_up_to(a: ExactMatrix, k: int) -> Iterator[MinorRecord]:
    """``contiguous_minors_up_to`` with every minor a Fraction ``det_of_rows``
    of its own entries, window starts lexicographic."""
    check_order(a, k)
    rows = a.row_list()
    for size in range(1, k + 1):
        for ridx, cidx in contiguous_windows(a.rows, a.cols, size):
            val = det_of_rows([[rows[i][j] for j in cidx] for i in ridx])
            yield MinorRecord(_one_based(ridx), _one_based(cidx), val)


def det_by_cofactor_expansion(a: ExactMatrix) -> Fraction:
    """Reference determinant by first-row cofactor expansion."""
    if not a.is_square:
        raise DimensionError("determinant needs a square matrix")

    def rec(rows: list[list[Fraction]]) -> Fraction:
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(n):
            if rows[0][j] == 0:
                continue
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * rec(minor)
            total += term if j % 2 == 0 else -term
        return total

    return rec(a.row_list())


def _changes(signs):
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def profile_by_enumeration(x):
    """Brute force over all +/-1 assignments to zero entries: (s_plus, first signs, last signs) at the maximum."""
    n = len(x)
    zero_pos = [i for i, v in enumerate(x) if v == 0]
    best = -1
    firsts, lasts = set(), set()
    for assign in itertools.product((1, -1), repeat=len(zero_pos)):
        signs = []
        it = iter(assign)
        for v in x:
            signs.append(next(it) if v == 0 else (1 if v > 0 else -1))
        c = _changes(signs)
        if c > best:
            best = c
            firsts, lasts = {signs[0]}, {signs[-1]}
        elif c == best:
            firsts.add(signs[0])
            lasts.add(signs[-1])
    splus = n if all(v == 0 for v in x) else best
    return splus, frozenset(firsts), frozenset(lasts)


def check_splus_sminus_duality(x: Sequence[Fraction]) -> bool:
    """The identity s_plus(x) + s_minus(x~) = n - 1 for nonzero x, where x~ flips
    the sign of every even-position coordinate.

    The library computes s_plus by this identity, so s_plus is taken from the
    enumeration here.
    """
    n = len(x)
    if n == 0 or all(v == 0 for v in x):
        raise ValueError("the identity requires a nonzero vector")
    flipped = [v if i % 2 == 0 else -v for i, v in enumerate(x)]
    return profile_by_enumeration(x)[0] + s_minus(flipped) == n - 1


# The complementarity reference: the per-support step on Fractions, Gauss-Jordan
# then the exact segment or ray of a one-dimensional kernel or Fourier-Motzkin,
# independent of the library's integer step.


def _solve_linear(
    mat: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction] | None, list[list[Fraction]]]:
    """Exact solve of mat x = rhs; returns (particular, kernel basis), or (None, [])."""
    m = len(mat)
    n = len(mat[0]) if mat else 0
    aug = [list(mat[i]) + [rhs[i]] for i in range(m)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None, []
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = aug[i][n]
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -aug[i][fc]
        kernel.append(v)
    return particular, kernel


# A linear constraint sum(coeffs * t) >= rhs over the kernel parameters.
Constraint = tuple[tuple[Fraction, ...], Fraction]


def _fm_eliminate(cons: list[Constraint], var: int) -> list[Constraint]:
    pos = [c for c in cons if c[0][var] > 0]
    neg = [c for c in cons if c[0][var] < 0]
    out = [c for c in cons if c[0][var] == 0]
    for (pa, pr) in pos:
        for (na, nr) in neg:
            fp, fn = -na[var], pa[var]
            coeffs = tuple(fp * a + fn * b for a, b in zip(pa, na))
            out.append((coeffs, fp * pr + fn * nr))
            if len(out) > _FM_CONSTRAINT_CAP:
                raise ResourceLimitError("Fourier-Motzkin constraint blow-up")
    return out


def _fm_consistent(cons: list[Constraint]) -> bool:
    return all(c[1] <= 0 for c in cons if not any(c[0]))


def _fm_bounds_single(cons: list[Constraint], var: int) -> tuple[Fraction | None, Fraction | None, bool]:
    """Bounds on t_var from constraints mentioning only t_var; (lo, hi, consistent)."""
    lo: Fraction | None = None
    hi: Fraction | None = None
    for coeffs, rhs in cons:
        c = coeffs[var]
        if c == 0:
            if rhs > 0:
                return None, None, False
            continue
        bound = rhs / c
        if c > 0:
            lo = bound if lo is None or bound > lo else lo
        else:
            hi = bound if hi is None or bound < hi else hi
    if lo is not None and hi is not None and lo > hi:
        return lo, hi, False
    return lo, hi, True


def _fm_project(cons: list[Constraint], dim: int, keep: int) -> tuple[Fraction | None, Fraction | None, bool]:
    cur = cons
    for v in range(dim):
        if v != keep:
            cur = _fm_eliminate(cur, v)
    if not _fm_consistent(cur):
        return None, None, False
    only = [c for c in cur if c[0][keep] != 0]
    return _fm_bounds_single(only, keep)


def _fm_feasible_point(cons: list[Constraint], dim: int) -> list[Fraction] | None:
    """A feasible point of {t : cons}, or None, by elimination + back-substitution.

    Stage i has variables 0..dim-1-i alive; values are chosen for variable v
    from stage dim-1-v after substituting the variables already fixed.
    """
    stages = [cons]
    for v in range(dim - 1, 0, -1):
        stages.append(_fm_eliminate(stages[-1], v))
    if not _fm_consistent(stages[-1]):
        return None
    point = [Fraction(0)] * dim
    for v in range(dim):
        reduced: list[Constraint] = []
        for coeffs, rhs in stages[dim - 1 - v]:
            rest = sum((coeffs[w] * point[w] for w in range(v)), Fraction(0))
            reduced.append(((coeffs[v],), rhs - rest))
        lo, hi, ok = _fm_bounds_single(reduced, 0)
        if not ok:
            return None
        if lo is None and hi is None:
            point[v] = Fraction(0)
        elif lo is None:
            point[v] = hi - 1
        elif hi is None:
            point[v] = lo + 1
        else:
            point[v] = (lo + hi) / 2
    return point


def support_solutions_on_fractions(
    rows: Sequence[Sequence[Fraction]], q: Sequence[Fraction], support: tuple[int, ...]
) -> tuple[list[tuple[Fraction, ...]], list[SolutionFamily]]:
    """The reference per-support step on Fractions: the solutions of LCP(rows, q) on one support S: the points and families
    of x >= 0 with x zero off S, A_SS x_S = -q_S and slack A x + q >= 0 off S.

    A singular A_SS with a consistent system gives a segment or ray (one-dimensional
    kernel, its anchor and finite end also listed as points) or, for larger
    kernels, a Fourier-Motzkin point that is either isolated or stands for a family.
    """
    n = len(rows)
    size = len(support)
    points: list[tuple[Fraction, ...]] = []
    families: list[SolutionFamily] = []

    def feasible(x: Sequence[Fraction]) -> bool:
        if any(v < 0 for v in x):
            return False
        # x is zero off the support
        y = [sum((row[j] * x[j] for j in support), qv) for row, qv in zip(rows, q)]
        if any(v < 0 for v in y):
            return False
        if sum(x[j] * y[j] for j in support) != 0:
            raise InvariantError(f"support solution {x} is not complementary")
        return True

    def embed(xs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        full = [Fraction(0)] * n
        for pos, val in zip(support, xs):
            full[pos] = val
        return tuple(full)

    particular, kernel = _solve_linear([[rows[i][j] for j in support] for i in support], [-q[i] for i in support])
    if particular is None:
        return points, families
    if not kernel:
        x = embed(particular)
        if feasible(x):
            points.append(x)
        return points, families
    d = len(kernel)
    # feasibility constraints on the kernel parameters t:
    #   x_S(t) >= 0 and y_i(t) >= 0 off the support
    cons: list[Constraint] = []
    for l in range(size):
        coeffs = tuple(kernel[w][l] for w in range(d))
        cons.append((coeffs, -particular[l]))
    for i in range(n):
        if i in support:
            continue
        base = sum((rows[i][support[l]] * particular[l] for l in range(size)), Fraction(0)) + q[i]
        coeffs = tuple(
            sum((rows[i][support[l]] * kernel[w][l] for l in range(size)), Fraction(0))
            for w in range(d)
        )
        cons.append((coeffs, -base))
    if d == 1:
        lo, hi, ok = _fm_bounds_single(cons, 0)
        if not ok:
            return points, families
        if lo is not None and hi is not None and lo == hi:
            x = embed([particular[l] + lo * kernel[0][l] for l in range(size)])
            if feasible(x):
                points.append(x)
            return points, families
        t0 = lo if lo is not None else (hi if hi is not None else Fraction(0))
        anchor = embed([particular[l] + t0 * kernel[0][l] for l in range(size)])
        if not feasible(anchor):
            raise InvariantError(f"family anchor {anchor} on support {support} is infeasible")
        shift = lambda b: None if b is None else b - t0  # noqa: E731
        families.append(
            SolutionFamily(
                support=tuple(i + 1 for i in support),
                particular=anchor,
                directions=(embed(kernel[0]),),
                t_range=(shift(lo), shift(hi)),
            )
        )
        points.append(anchor)
        if lo is not None and hi is not None:
            other = embed([particular[l] + hi * kernel[0][l] for l in range(size)])
            if not feasible(other):
                raise InvariantError(f"family end {other} on support {support} is infeasible")
            points.append(other)
        return points, families
    point = _fm_feasible_point(cons, d)
    if point is None:
        return points, families
    x = embed([particular[l] + sum(point[w] * kernel[w][l] for w in range(d)) for l in range(size)])
    if not feasible(x):
        raise InvariantError(f"Fourier-Motzkin point {x} on support {support} is infeasible")
    points.append(x)
    for w in range(d):
        lo, hi, ok = _fm_project(cons, d, w)
        if not ok:  # the region is nonempty, so every projection is too
            raise InvariantError(f"empty projection of a nonempty region on support {support}")
        if lo is None or hi is None or lo != hi:
            families.append(
                SolutionFamily(
                    support=tuple(i + 1 for i in support),
                    particular=x,
                    directions=tuple(embed(kv) for kv in kernel),
                    t_range=None,
                )
            )
            break
    return points, families


def solve_lcp_on_fractions(inst: LCPInstance) -> LCPSolutionSet:
    """Reference enumeration: the Fraction step on every support of the instance."""
    n = inst.matrix.rows
    rows = inst.matrix.row_list()
    found: dict[tuple[Fraction, ...], None] = {}
    families: list[SolutionFamily] = []
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            points, fams = support_solutions_on_fractions(rows, inst.q, support)
            found.update(dict.fromkeys(points))
            families.extend(fams)
    return LCPSolutionSet(solutions=tuple(sorted(found)), families=tuple(families))


def single_vector_x(sub, weights=None):
    """The test vector of a window from Bareiss deletion minors: sum_i w_i M_ij
    at odd positions j, zeros elsewhere (a 1x1 window has M_11 = -1)."""
    weights = weights or {1: Fraction(1)}
    r = sub.rows
    return tuple(
        sum((w * cofactor_minor(sub, i, j) for i, w in weights.items() if i <= r), Fraction(0)) if j % 2 else Fraction(0)
        for j in range(1, r + 1)
    )


def solver_tnp_sufficient_check(a, k):
    """The TNP check with every window's solution set from the Fraction oracle."""
    check_order(a, k)
    saw_family = None
    for r in range(1, k + 1):
        for rows0, cols0 in all_windows(a.rows, a.cols, r):
            sub = take(a, rows0, cols0)
            q = sub.matvec(single_vector_x(sub))
            rows1, cols1 = tuple(i + 1 for i in rows0), tuple(j + 1 for j in cols0)
            if any(v < 0 for v in q):
                return TnpLcpReport(
                    TnpLcpStatus.VIOLATION, rows1, cols1, q,
                    note="zero vector is not a solution of the prescribed instance",
                )
            sols = solve_lcp_on_fractions(LCPInstance(sub, q))
            if not sols.is_finite:
                saw_family = saw_family or (rows1, cols1)
                continue
            nonzero = [v for v in sols.solutions if any(v)]
            for u, v in itertools.combinations(nonzero, 2):
                if sub.matvec(u) != sub.matvec(v):
                    return TnpLcpReport(
                        TnpLcpStatus.VIOLATION, rows1, cols1, q, (u, v),
                        note="two nonzero solutions with different images",
                    )
    if saw_family is not None:
        return TnpLcpReport(
            TnpLcpStatus.INCONCLUSIVE, *saw_family,
            note="infinite solution family prevents exhaustive verification of the image condition",
        )
    return TnpLcpReport(TnpLcpStatus.SUFFICIENT)


def reference_minor_definition(a: ExactMatrix, k: int) -> Verdict:
    """The TNP minor definition from ``reference_minors_up_to``: the first minor above 0."""
    bad = next((rec for rec in reference_minors_up_to(a, k) if rec.value > 0), None)
    witness = None if bad is None else Violation(ViolationKind.POSITIVE_MINOR, bad.rows, bad.cols, detail=bad.value)
    return Verdict(bad is None, "minor_definition", witness)


def _weak_ends(v: Sequence[Fraction]) -> tuple[int, tuple[bool, bool] | None]:
    """s-(v) and the signs (positive?) of v's first and last nonzero entries, None for v = 0."""
    signs = [e > 0 for e in v if e]
    return sum(p != q for p, q in zip(signs, signs[1:])), (signs[0], signs[-1]) if signs else None


def reference_tnp_single_vector(a: ExactMatrix, k: int, alpha: AlphaChoice, method: str) -> Verdict:
    """The TNP single-vector test on Fractions, every window judged: the first
    positive entry, then every window S of size 2..k in lexicographic order,
    singular ones included, with x = adj(S) alpha and S x a product.  Weak sign
    non-reversal fails where x != 0 and no x_i != 0 has x_i (S x)_i >= 0; weak
    variation where x != 0 and s-(S x) > s-(x), or they are equal, S x != 0 and
    the end signs differ."""
    entry = first_entry_violating(a, strict=False)
    if entry is not None:
        return Verdict(False, method, Violation(ViolationKind.POSITIVE_MINOR, entry[:1], entry[1:2], detail=entry[2]))
    for r in range(2, k + 1):
        coeffs = alpha.realized(r)
        for rows0, cols0 in all_windows(a.rows, a.cols, r):
            s = take(a, rows0, cols0)
            x = adjugate(s).matvec(coeffs)
            y = s.matvec(x)
            if not any(x):
                continue
            if method == "tnp_snr_single_vector":
                kind = None if any(xi and xi * yi >= 0 for xi, yi in zip(x, y)) else ViolationKind.SIGN_REVERSAL
            else:
                (sx, ends_x), (sy, ends_y) = _weak_ends(x), _weak_ends(y)
                kind = ViolationKind.VARIATION_INCREASE if sy > sx else None
                if sy == sx and ends_y is not None and ends_y != ends_x:
                    kind = ViolationKind.EQUALITY_SIGN_CLAUSE
            if kind is not None:
                return Verdict(False, method, Violation(kind, _one_based(rows0), _one_based(cols0), vector=x))
    return Verdict(True, method)


@st.composite
def rank_deficient_nonpositive(draw) -> ExactMatrix:
    """2x2 to 4x5 matrices with no positive entry and less than full rank:
    rank one (-u v^T with u, v >= 0), or one with a zero row or column, or
    with a row or column repeated up to a positive factor; then every row over
    a positive scale of its own."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    magnitude = st.sampled_from((0, 1, 2, 3, Fraction(5, 2), Fraction(7, 3)))
    kind = draw(st.sampled_from(("rank one", "zero row", "zero column", "repeated row", "repeated column")))
    if kind == "rank one":
        u, v = [draw(magnitude) for _ in range(m)], [draw(magnitude) for _ in range(n)]
        rows = [[-Fraction(ui * vj) for vj in v] for ui in u]
    else:
        rows = [[-Fraction(draw(magnitude)) for _ in range(n)] for _ in range(m)]
        i, j = draw(st.permutations(range(m if kind.endswith("row") else n)))[:2]
        factor = draw(st.sampled_from((1, 2, Fraction(1, 2), Fraction(3, 5)))) if kind.startswith("repeated") else 0
        if kind.endswith("row"):
            rows[i] = [factor * e for e in rows[j]]
        else:
            for row in rows:
                row[i] = factor * row[j]
    scales = [draw(st.sampled_from((1, 2, Fraction(1, 3), Fraction(7, 2)))) for _ in range(m)]
    return ExactMatrix.from_rows([[e * d for e in row] for row, d in zip(rows, scales)])


def reference_support_candidates(
    table: MinorTable, rows0: Sequence[int], cols0: Sequence[int], xs: Sequence[int], qs: Sequence[int]
) -> Iterator[Point | None]:
    """The library's previous support enumerator, kept as the reference for
    ``lcp._support_candidates``: the same stream, built support by support with
    ``itertools.combinations``, the support's masks and each term's sign from
    scratch.

    The feasible solutions of LCP(A_w, A_w x) on the nonempty supports of the
    window w = (rows0, cols0), sizes ascending, from X = L x and the Q of
    ``lcp._scaled_image``.

    With T the table's minor on the window rows/columns at the given positions
    and d = T(S, S) != 0, Cramer's rule and the Schur complement give

        z_l d = -X_l d - sum_{j not in S} X_j s_lj T(S, S - l + j)   (l in S),
        w_i d = sum_{j not in S} X_j s'_ij T(S + i, S + j)            (i not in S),

    where s_lj is -1 to the number of S strictly between l and j, and s'_ij is
    -1 to the number of S above i plus the number above j.  Each minor is
    expanded along its row that is not among its column positions, and d along
    a row where X is nonzero, so it reads only minors that the supports one
    smaller have read; no submatrix, no Fractions.  A support with a zero
    principal minor goes to ``lcp._support_solutions`` on the table's scaled
    rows of the window and Q, whose points are candidates as they are; at its
    first solution family this yields None and stops, since the family already
    decides the window.
    """
    r = len(rows0)
    rbit = [1 << i for i in rows0]
    cbit = [1 << j for j in cols0]
    live = [j for j in range(r) if xs[j]]
    minor = table.minor_of_masks
    window = None  # the table's scaled rows of the window, read at the first zero principal minor
    for size in range(1, r + 1):
        for support in itertools.combinations(range(r), size):
            smask = rm = cm = 0
            along = 0
            for p in support:
                smask |= 1 << p
                rm |= rbit[p]
                cm |= cbit[p]
                if xs[p]:
                    along = rbit[p]
            d = minor(rm, cm, along)
            if d == 0:
                if window is None:
                    window = table.scaled_rows(rows0, cols0)
                points, families = _support_solutions(window, qs, support)
                if families:
                    yield None
                    return
                yield from points
                continue
            outside = [j for j in live if not smask >> j & 1]
            zs = [0] * r
            for l in support:
                total = -xs[l] * d
                cl = cm ^ cbit[l]
                for j in outside:
                    term = xs[j] * minor(rm, cl | cbit[j], rbit[l])
                    lo, hi = (l, j) if l < j else (j, l)
                    between = smask >> (lo + 1) & ((1 << (hi - lo - 1)) - 1)
                    total = total + term if between.bit_count() % 2 else total - term
                zs[l] = total if d > 0 else -total
            if any(v < 0 for v in zs):
                continue
            ws = [0] * r
            for i in range(r):
                if smask >> i & 1:
                    continue
                total = 0
                ri = rm | rbit[i]
                above = (smask >> i).bit_count()
                for j in outside:
                    term = xs[j] * minor(ri, cm | cbit[j], rbit[i])
                    total = total - term if (above + (smask >> j).bit_count()) % 2 else total + term
                ws[i] = total if d > 0 else -total
                if ws[i] < 0:
                    break
            else:
                yield abs(d), zs, ws


def reference_pair_with_distinct_images(candidates: list[Point]) -> tuple[Point, Point] | None:
    """The library's previous pair finder, kept as the reference for
    ``lcp._pair_with_distinct_images``; it always sorts.

    The first pair, in the sorted order ``solve_lcp`` lists solutions in, whose
    images under A_w differ: the least solution u and the least v whose image is not u's.

    Images differ exactly where slacks do, and slack i is W_i / d over a common positive factor.
    """
    if not candidates:
        return None
    key = functools.cmp_to_key(_compare_candidates)
    u = min(candidates, key=key)
    du, _, wu = u
    others = [c for c in candidates if any(w * du != v * c[0] for w, v in zip(c[2], wu))]
    return (u, min(others, key=key)) if others else None


@dataclass(frozen=True)
class PositiveQSweep:
    always_two: bool
    counterexample_q: tuple[Fraction, ...] | None
    solutions: LCPSolutionSet | None
    trials: int
    seed: int


def _random_positive_q(rng: random.Random, n: int, allow_zero: bool = False) -> tuple[Fraction, ...]:
    vals = []
    for _ in range(n):
        if allow_zero and rng.random() < 0.3:
            vals.append(Fraction(0))
        else:
            vals.append(Fraction(rng.randint(1, 100), rng.randint(1, 100)))
    return tuple(vals)


def count_solutions_for_positive_q(
    a: ExactMatrix, trials: int, seed: int
) -> PositiveQSweep:
    """Sample strictly positive q and report the first one without exactly two solutions."""
    if not a.is_square:
        raise DimensionError("needs a square matrix")
    if trials < 1:
        raise ValueError("at least one trial required")
    if not is_entrywise_negative(a):
        raise ValueError("the two-solution sweep applies to entrywise negative matrices")
    rng = random.Random(seed)
    for _ in range(trials):
        q = _random_positive_q(rng, a.rows)
        sols = solve_lcp(LCPInstance(a, q))
        if sols.count() != 2:
            return PositiveQSweep(False, q, sols, trials, seed)
    return PositiveQSweep(True, None, None, trials, seed)


def _alternating_positions(r: int, odd: bool) -> tuple[int, ...]:
    """0-based positions required strictly positive: odd=(0,2,4,..), else (1,3,..)."""
    return tuple(i for i in range(r) if (i % 2 == 0) == odd)


def _matches_pattern(v: Sequence[Fraction], positive: Sequence[int]) -> bool:
    pos = set(positive)
    return all((v[i] > 0) if i in pos else (v[i] == 0) for i in range(len(v)))


def _family_member_matching(
    fam: SolutionFamily, positive: Sequence[int]
) -> tuple[Fraction, ...] | None:
    """An exact member of a 1-dim family matching the sign pattern, if any."""
    if fam.dimension != 1 or fam.t_range is None:
        return None
    p = fam.particular
    k = fam.directions[0]
    lo, hi = fam.t_range
    pos = set(positive)
    forced: Fraction | None = None
    for i in range(len(p)):
        if i in pos:
            continue
        if k[i] == 0:
            if p[i] != 0:
                return None
        else:
            t = -p[i] / k[i]
            if forced is None:
                forced = t
            elif forced != t:
                return None
    if forced is not None:
        if (lo is not None and forced < lo) or (hi is not None and forced > hi):
            return None
        member = fam.member(forced)
        return member if _matches_pattern(member, positive) else None
    # free parameter: solve the strict inequalities p_i + t k_i > 0 on [lo, hi]
    s_lo: tuple[Fraction, bool] | None = (lo, False) if lo is not None else None
    s_hi: tuple[Fraction, bool] | None = (hi, False) if hi is not None else None
    for i in pos:
        if k[i] == 0:
            if p[i] <= 0:
                return None
        else:
            bound = -p[i] / k[i]
            if k[i] > 0:
                if s_lo is None or bound > s_lo[0] or (bound == s_lo[0] and not s_lo[1]):
                    s_lo = (bound, True)
            else:
                if s_hi is None or bound < s_hi[0] or (bound == s_hi[0] and not s_hi[1]):
                    s_hi = (bound, True)
    if s_lo is None and s_hi is None:
        t = Fraction(0)
    elif s_lo is None:
        t = s_hi[0] - 1
    elif s_hi is None:
        t = s_lo[0] + 1
    else:
        if s_lo[0] > s_hi[0]:
            return None
        if s_lo[0] == s_hi[0]:
            if s_lo[1] or s_hi[1]:
                return None
            t = s_lo[0]
        else:
            t = (s_lo[0] + s_hi[0]) / 2
    member = fam.member(t)
    return member if _matches_pattern(member, positive) else None


def _pattern_members(sols: LCPSolutionSet, r: int, odd: bool) -> list[tuple[Fraction, ...]]:
    positive = _alternating_positions(r, odd)
    out = [v for v in sols.solutions if _matches_pattern(v, positive)]
    for fam in sols.families:
        member = _family_member_matching(fam, positive)
        if member is not None and member not in out:
            out.append(member)
    return out


def has_forbidden_pattern_pair(sols: LCPSolutionSet, r: int) -> bool:
    """True iff the set holds one (+,0,+,0,..) vector and one (0,+,0,+,..) vector."""
    if r < 2:
        raise ValueError("the pattern pair needs size at least 2")
    return bool(_pattern_members(sols, r, odd=True)) and bool(_pattern_members(sols, r, odd=False))


def tnp_lcp_sampled_q(a: ExactMatrix, k: int, trials: int = 24, seed: int = 0) -> TnpLcpReport:
    """Falsifier of the TNP complementarity condition: samples nonnegative q and
    searches for two alternating-support solutions with different images; it
    can never certify."""
    check_order(a, k)
    hit = a.first_entry_violating(strict=False)
    if hit is not None:
        return TnpLcpReport(
            TnpLcpStatus.VIOLATION,
            rows=(hit[0],),
            cols=(hit[1],),
            note="positive entry",
        )
    rng = random.Random(seed)
    for r in range(2, k + 1):
        for rows0, cols0 in all_windows(a.rows, a.cols, r):
            sub = take(a, rows0, cols0)
            for _ in range(trials):
                q = _random_positive_q(rng, r, allow_zero=True)
                sols = solve_lcp(LCPInstance(sub, q))
                z1s = _pattern_members(sols, r, odd=True)
                z2s = _pattern_members(sols, r, odd=False)
                for z1 in z1s:
                    img1 = sub.matvec(z1)
                    for z2 in z2s:
                        if sub.matvec(z2) != img1:
                            return TnpLcpReport(
                                TnpLcpStatus.VIOLATION,
                                rows=tuple(i + 1 for i in rows0),
                                cols=tuple(j + 1 for j in cols0),
                                q=q,
                                witness_pair=(z1, z2),
                                note="alternating-support solutions with different images",
                            )
    return TnpLcpReport(
        TnpLcpStatus.INCONCLUSIVE,
        note="no violation in the sampled instances; the condition quantifies over all q",
    )


def _family_representatives(fam: SolutionFamily) -> list[tuple[Fraction, ...]]:
    if fam.dimension != 1 or fam.t_range is None:
        return [fam.particular]
    lo, hi = fam.t_range
    ts: list[Fraction] = []
    if lo is not None:
        ts.append(lo)
    if hi is not None:
        ts.append(hi)
    if lo is not None and hi is not None:
        ts.append((lo + hi) / 2)
    elif lo is not None:
        ts.append(lo + 1)
    elif hi is not None:
        ts.append(hi - 1)
    else:
        ts.extend((Fraction(0), Fraction(1)))
    out = []
    for t in ts:
        member = fam.member(t)
        if member not in out:
            out.append(member)
    return out


def _support(v: Sequence[Fraction]) -> frozenset[int]:
    return frozenset(i for i, x in enumerate(v) if x != 0)


def _has_consecutive_positive(v: Sequence[Fraction]) -> bool:
    return any(a > 0 and b > 0 for a, b in zip(v, v[1:]))

def disjoint_support_pair_check(a: ExactMatrix, trials: int, seed: int) -> bool:
    """For a matrix totally negative of order n-1: no q > 0 yields two nonzero
    solutions with disjoint supports, one containing two consecutive positives.

    Returns True when no such pair shows up across the sampled instances.
    Raises ValueError when the matrix does not satisfy the precondition.
    """
    if not a.is_square or a.rows < 2:
        raise ValueError("needs a square matrix of size at least 2")
    pre = check_by_minor_definition(a, ClassQuery(TN, a.rows - 1))
    if not pre.holds:
        raise ValueError("matrix is not totally negative of order n-1")
    rng = random.Random(seed)
    for _ in range(trials):
        q = _random_positive_q(rng, a.rows)
        sols = solve_lcp(LCPInstance(a, q))
        candidates = [v for v in sols.solutions if any(v)]
        for fam in sols.families:
            for member in _family_representatives(fam):
                if any(member) and member not in candidates:
                    candidates.append(member)
        for u, v in itertools.combinations(candidates, 2):
            if _support(u) & _support(v):
                continue
            if _has_consecutive_positive(u) or _has_consecutive_positive(v):
                return False
    return True


def _random_positive(rng: random.Random, num_max: int = 20, den_max: int = 8) -> Fraction:
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def _sample_mixed_vector(rng: random.Random, r: int, allow_zeros: bool = True) -> tuple[Fraction, ...]:
    """Random vector with at least one positive and one negative coordinate."""
    while True:
        vec = []
        for _ in range(r):
            if allow_zeros and rng.random() < 0.15:
                vec.append(Fraction(0))
            else:
                vec.append(_random_positive(rng) * rng.choice((1, -1)))
        if any(v > 0 for v in vec) and any(v < 0 for v in vec):
            return tuple(vec)


def _sample_alternating_vector(rng: random.Random, r: int) -> tuple[Fraction, ...]:
    lead = rng.choice((1, -1))
    return tuple(_random_positive(rng) * (lead if i % 2 == 0 else -lead) for i in range(r))


def _mixed_sign_patterns(r: int) -> list[tuple[Fraction, ...]]:
    out = []
    for bits in itertools.product((1, -1), repeat=r):
        if any(b > 0 for b in bits) and any(b < 0 for b in bits):
            out.append(tuple(Fraction(b) for b in bits))
    return out


def _alternating_patterns(r: int) -> list[tuple[Fraction, ...]]:
    plus = tuple(Fraction(1 if i % 2 == 0 else -1) for i in range(r))
    return [plus, tuple(-v for v in plus)]


def _reversal(method: str, rows0, cols0, x) -> Verdict:
    return Verdict(
        False, method, Violation(ViolationKind.SIGN_REVERSAL, _one_based(rows0), _one_based(cols0), vector=tuple(x))
    )


def check_tn_snr_all_vectors(
    a: ExactMatrix,
    k: int,
    mode: Literal["all_submatrices_pn", "contiguous_alt"] = "contiguous_alt",
    trials: int = 32,
    seed: int = 0,
    max_dim: int = MAX_ALL_SUBMATRIX_DIM,
) -> Verdict:
    """Randomized falsifier for the sign non-reversal characterizations.

    Exhausts the +/-1 patterns of the relevant orthant family and additionally
    samples ``trials`` rational vectors per submatrix.  A True verdict only
    means no reversal was found; the decision procedure is the single-vector
    test.
    """
    if k < 2:
        raise ValueError("sign non-reversal sweeps need order k >= 2")
    check_order(a, k)
    method = f"snr_falsifier_{mode}"
    bad = _entry_violation(a, strict=True)
    if bad is not None:
        return Verdict(False, method, bad)
    rng = random.Random(seed)
    if mode == "all_submatrices_pn" and max(a.rows, a.cols) > max_dim:
        raise ResourceLimitError(f"all-submatrix sweep refused for dimensions beyond {max_dim}")
    for r in range(2, k + 1):
        if mode == "all_submatrices_pn":
            windows = all_windows(a.rows, a.cols, r)
            patterns = _mixed_sign_patterns(r)
            sampler = _sample_mixed_vector
        else:
            windows = contiguous_windows(a.rows, a.cols, r)
            patterns = _alternating_patterns(r)
            sampler = _sample_alternating_vector
        for rows0, cols0 in windows:
            sub = take(a, rows0, cols0)
            for x in itertools.chain(patterns, (sampler(rng, r) for _ in range(trials))):
                if not sign_non_reversal(sub, x, strict=True)[0]:
                    return _reversal(method, rows0, cols0, x)
    return Verdict(True, method)


def check_tnp_snr_sampled(
    a: ExactMatrix,
    k: int,
    mode: Literal["all_pn", "all_alt"],
    trials: int = 32,
    seed: int = 0,
    max_dim: int = MAX_ALL_SUBMATRIX_DIM,
) -> Verdict:
    """Non-strict sign non-reversal falsifier for total non-positivity of order k:
    on every square submatrix of size 2..k, the +/-1 patterns of the mixed
    (``all_pn``) or alternating (``all_alt``) orthants and ``trials`` sampled
    vectors of the same family."""
    check_order(a, k)
    method = f"tnp_snr_{mode}"
    bad = _entry_violation(a, strict=False)
    if bad is not None:
        return Verdict(False, method, bad)
    if k == 1:
        return Verdict(True, method)
    if max(a.rows, a.cols) > max_dim:
        raise ResourceLimitError(f"all-submatrix sweep refused for dimensions beyond {max_dim}")
    rng = random.Random(seed)
    for r in range(2, k + 1):
        patterns = _mixed_sign_patterns(r) if mode == "all_pn" else _alternating_patterns(r)
        sampler = _sample_mixed_vector if mode == "all_pn" else _sample_alternating_vector
        for rows0, cols0 in all_windows(a.rows, a.cols, r):
            sub = take(a, rows0, cols0)
            for x in patterns + [sampler(rng, r) for _ in range(trials)]:
                if not sign_non_reversal(sub, x, strict=False)[0]:
                    return _reversal(method, rows0, cols0, x)
    return Verdict(True, method)


def check_tnp_vd_sampled(a: ExactMatrix, trials: int = 64, seed: int = 0) -> Verdict:
    """Weak variation-diminution falsifier for total non-positivity: the mixed
    +/-1 patterns (up to 10 columns) and ``trials`` sampled mixed-sign vectors
    against the whole matrix."""
    method = "tnp_vd_all_pn"
    bad = _entry_violation(a, strict=False)
    if bad is not None:
        return Verdict(False, method, bad)
    rng = random.Random(seed)
    n = a.cols
    patterns = _mixed_sign_patterns(n) if n <= 10 else []
    rows1, cols1 = _one_based(range(a.rows)), _one_based(range(a.cols))
    for x in patterns + [_sample_mixed_vector(rng, n) for _ in range(trials)]:
        kind = _tnp_vd_failure(x, a.matvec(x))
        if kind is not None:
            return Verdict(False, method, Violation(kind, rows1, cols1, vector=tuple(x)))
    return Verdict(True, method)


def sample_member(h: IntervalHull, seed: int) -> ExactMatrix:
    """A deterministic hull member with independent rational mixing weights."""
    rng = random.Random(seed)
    m, n = h.shape
    flat = []
    for a, b in zip(h.a.entries, h.b.entries):
        den = rng.randint(1, 16)
        p = rng.randint(0, den)  # the weight t = p / den; t * a + (1 - t) * b as one Fraction
        a_n, a_d, b_n, b_d = a.numerator, a.denominator, b.numerator, b.denominator
        flat.append(Fraction(p * a_n * b_d + (den - p) * b_n * a_d, den * a_d * b_d))
    return ExactMatrix(m, n, tuple(flat))


def rohn_inequality_check(h: IntervalHull, c: ExactMatrix, x: Sequence[Fraction]) -> bool:
    """Coordinatewise comparison against the sign-matched diagonal member.

    With z_i = +1 where x_i >= 0 and -1 otherwise, every hull member C obeys
    x_i (C x)_i >= x_i (I_{z,z} x)_i; the check returns whether that holds here
    (it should always be True, and is used as a property test).
    """
    m, n = h.shape
    if m != n:
        raise DimensionError("the comparison needs square matrices")
    if len(x) != n:
        raise DimensionError("vector length does not match")
    if not hull_contains(h, c):
        raise ValueError("matrix is not a member of the hull")
    z = tuple(1 if v >= 0 else -1 for v in x)
    t = i_matrix(h, z, z)
    cx = c.matvec(x)
    tx = t.matvec(x)
    return all(xi * ci >= xi * ti for xi, ci, ti in zip(x, cx, tx))


def generate_n_matrix(n: int, seed: int, budget: int = 4000) -> GeneratedInstance:
    """Entrywise negative with all principal minors negative (not necessarily all minors)."""
    rng = random.Random(seed)
    for attempt in range(1, budget + 1):
        rows = _tn_square_rows(n, rng)
        if rows is None:
            continue
        scale = rng.choice((Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)))
        perturbed = [
            [x * (1 + scale * Fraction(rng.randint(-8, 8), 9)) for x in row] for row in rows
        ]
        a = ExactMatrix.from_rows(perturbed)
        if not is_entrywise_negative(a):
            continue
        if max(abs(e) for e in a.entries) > 10**8:
            continue
        ok = True
        for size in range(1, n + 1):
            for idx in itertools.combinations(range(n), size):
                if det_of_rows(_sub_rows(perturbed, idx, idx)) >= 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return GeneratedInstance(a, "n_matrix", n, seed, attempt)
    raise ResourceLimitError(f"no principal-minor-negative instance found in {budget} attempts")


def _minor_linear_coeff(rows: Rows, ridx: Sequence[int], cidx: Sequence[int], i: int, j: int) -> Fraction:
    """d det(window) / d entry(i,j) for (i,j) inside the window."""
    pi, pj = ridx.index(i), cidx.index(j)
    if len(ridx) == 1:
        return Fraction(1)
    rest = _sub_rows(rows, [r for r in ridx if r != i], [c for c in cidx if c != j])
    sign = 1 if (pi + pj) % 2 == 0 else -1
    return sign * det_of_rows(rest)


def generate_tn_of_order(
    size: int, order: int, seed: int, positive_det: bool = False, budget: int = 400
) -> GeneratedInstance | None:
    """A size x size matrix totally negative of the given order.

    With ``positive_det`` the determinant is walked up through zero by exact
    single-entry moves that keep every minor of size <= order negative.
    Returns None when the search budget runs out (the caller records the gap).
    """
    if not 1 <= order <= size:
        raise ValueError("order out of range")
    rng = random.Random(seed)
    for attempt in range(1, budget + 1):
        rows = _tn_square_rows(size, rng)
        if rows is None:
            continue
        if not positive_det:
            a = ExactMatrix.from_rows(rows)
            if check_by_minor_definition(a, ClassQuery(TN, order)).holds:
                return GeneratedInstance(a, TN, order, seed, attempt)
            continue
        walked = _walk_det_positive(rows, order, rng)
        if walked is None:
            continue
        a = ExactMatrix.from_rows(walked)
        if det_of_rows(walked) > 0 and check_by_minor_definition(a, ClassQuery(TN, order)).holds:
            return GeneratedInstance(a, TN, order, seed, attempt)
    return None


def _walk_det_positive(rows: Rows, order: int, rng: random.Random, max_steps: int = 300) -> Rows | None:
    """Greedy exact walk raising the determinant while keeping small minors negative."""
    n = len(rows)
    cur = [r[:] for r in rows]
    for _ in range(max_steps):
        d = det_of_rows([r[:] for r in cur])
        if d > 0:
            return cur
        i, j = rng.randrange(n), rng.randrange(n)
        x0 = cur[i][j]
        full = tuple(range(n))
        slope = _minor_linear_coeff(cur, full, full, i, j)
        if slope == 0:
            continue
        lo: Fraction | None = None
        hi: Fraction | None = None
        for s in range(1, order + 1):
            for ridx in itertools.combinations(range(n), s):
                if i not in ridx:
                    continue
                for cidx in itertools.combinations(range(n), s):
                    if j not in cidx:
                        continue
                    w = det_of_rows(_sub_rows(cur, ridx, cidx))
                    c = _minor_linear_coeff(cur, ridx, cidx, i, j)
                    if c == 0:
                        if w >= 0:
                            return None
                        continue
                    bound = x0 - w / c  # minor hits zero here
                    if c > 0:
                        hi = bound if hi is None or bound < hi else hi
                    else:
                        lo = bound if lo is None or bound > lo else lo
        if lo is not None and hi is not None and lo >= hi:
            continue
        if slope > 0:
            wall = hi
            x1 = x0 + (wall - x0) * Fraction(3, 4) if wall is not None else x0 + 1 + abs(x0)
        else:
            wall = lo
            x1 = x0 + (wall - x0) * Fraction(3, 4) if wall is not None else x0 - 1 - abs(x0)
        if x1 == x0:
            continue
        cur[i][j] = x1
    return None


@dataclass(frozen=True)
class OrthantSuiteReport:
    size: int
    samples: int
    violations: tuple[str, ...]
    strict_pool: int
    positive_det_pool: int
    weak_pool: int

    @property
    def positive_det_found(self) -> bool:
        return self.positive_det_pool > 0


def _sample_blockwise_mixed(rng: random.Random, r: int) -> tuple[Fraction, ...]:
    """All-nonzero mixed-sign vector that is NOT alternating (needs r >= 3)."""
    while True:
        signs = [rng.choice((1, -1)) for _ in range(r)]
        mixed = any(s > 0 for s in signs) and any(s < 0 for s in signs)
        has_repeat = any(a == b for a, b in zip(signs, signs[1:]))
        if mixed and has_repeat:
            return tuple(
                Fraction(rng.randint(1, 20), rng.randint(1, 8)) * s for s in signs
            )


def orthant_impossibility_suite(r: int, trials: int, seed: int) -> OrthantSuiteReport:
    """Non-alternating all-nonzero mixed vectors cannot witness a failure.

    For matrices totally negative of order r-1 (both determinant signs when
    found), strict sign non-reversal and the variation bound with its equality
    clause must hold at every such vector; the non-strict analogues must hold
    for the weak class.  Returns the (expected-empty) violation list.
    """
    if r < 3:
        raise ValueError("the orthant suite needs size at least 3")
    rng = random.Random(seed)
    strict_pool: list[ExactMatrix] = []
    positive_det = 0
    for idx in range(4):
        inst = generate_tn_of_order(r, r - 1, seed=seed * 7 + idx)
        if inst is not None:
            strict_pool.append(inst.matrix)
    for idx in range(4):
        inst = generate_tn_of_order(r, r - 1, seed=seed * 13 + idx, positive_det=True)
        if inst is not None:
            strict_pool.append(inst.matrix)
            positive_det += 1
    weak_pool: list[ExactMatrix] = []
    for idx in range(4):
        inst = generate_tnp((r, r), r - 1, seed=seed * 29 + idx)
        weak_pool.append(inst.matrix)
    if not strict_pool or not weak_pool:
        raise ResourceLimitError("instance pools could not be generated")
    violations: list[str] = []
    samples = 0
    for t in range(trials):
        x = _sample_blockwise_mixed(rng, r)
        a = strict_pool[t % len(strict_pool)]
        samples += 2  # one strict-class and one weak-class (matrix, x) pair
        ok, _ = sign_non_reversal(a, x, strict=True)
        if not ok:
            violations.append(f"strict reversal at x={x} for:\n{a}")
        satisfied, _, _ = vd_check(a, x)
        if not satisfied:
            violations.append(f"variation clause failed at x={x} for:\n{a}")
        w = weak_pool[t % len(weak_pool)]
        ok, _ = sign_non_reversal(w, x, strict=False)
        if not ok:
            violations.append(f"non-strict reversal at x={x} for:\n{w}")
        if _tnp_vd_failure(x, w.matvec(x)) is not None:
            violations.append(f"weak variation clause failed at x={x} for:\n{w}")
        if len(violations) > 8:
            break
    return OrthantSuiteReport(
        size=r,
        samples=samples,
        violations=tuple(violations),
        strict_pool=len(strict_pool),
        positive_det_pool=positive_det,
        weak_pool=len(weak_pool),
    )

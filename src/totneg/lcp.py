"""Exact linear complementarity: enumeration solver and class characterizations.

Every support S is solved by one integer step (:func:`_support_solutions`):
fraction-free Gauss-Jordan on the integer rows [T_SS | -Q_S] gives the exact
particular solution and kernel of T_SS u_S = -Q_S, which is intersected with
the feasibility region.  One-dimensional kernels give an exact segment / ray
description; higher-dimensional ones are decided by Fourier-Motzkin
elimination on integer constraints and reported as under-described families.
Bounds are kept as integer pairs and compared by cross-multiplication, so the
step builds no Fraction.

``solve_lcp`` scales each row of [A | q] to integers once and runs the step on
every support, building Fractions only for the solution set it returns.  The
single-vector checks ask of each window w only whether LCP(A_w, A_w x) has a
prescribed solution set.  A 1x1 window [t] has x = -1 and q = -t, so its
solutions are exactly 0 and 1 when t < 0, form the family of LCP(0, 0) when
t = 0, and exclude 0 when t > 0: one row-major pass over the entries settles
every 1x1 window.  The TNP condition decides its 2x2 windows in closed form
from four scaled entries (:func:`_two_by_two_windows`), since such a window has
only three supports.  From size 2 on for the TN checks, and from size 3 on for
the TNP condition, both sweeps read one window generator (:func:`_lcp_windows`),
each with its own per-window judge.  It reads row sets outer and column sets
inner, builds the keys of every set of window positions once per row set and
per column set, and hands each window the lazy stream of its supports, solved
on integers looked up in a minor table that the sweep builds and owns
(:class:`MinorTable`, :func:`_support_candidates`; only this module reads its
keys); a judge stops it as soon as the answer is known.  When the table keeps
every level up to the window size, a support's slacks are tested first, since
most supports fail there, and it is rejected at its first negative value.  The
supports that hold every position where x is nonzero all give -x, which the
stream yields once; neither judge counts solutions.  A support with a zero
principal minor, which may hold a solution family, goes to the same step on the
table's scaled rows, and the first family ends its window.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .checks import MAX_ALL_SUBMATRIX_DIM, Verdict, Violation, ViolationKind, check_all_window_dims
from .errors import DimensionError, InvariantError, ResourceLimitError
from .matrix import (
    ExactMatrix,
    IndexSet,
    RationalLike,
    _int_minor,
    _int_minor_levels,
    _one_based,
    _rows_as_scaled_ints,
    check_order,
    index_sets,
    row_scale,
    to_fraction,
)

_FM_CONSTRAINT_CAP = 4096

#: Largest complementarity problem whose 2^n supports are enumerated; larger
#: ones are refused with ResourceLimitError, by ``solve_lcp`` and by the
#: single-vector checks' table path alike.
MAX_LCP_SIZE = 20


def _check_lcp_size(n: int) -> None:
    if n > MAX_LCP_SIZE:
        raise ResourceLimitError(f"support enumeration refused beyond size {MAX_LCP_SIZE}")


@dataclass(frozen=True)
class LCPInstance:
    matrix: ExactMatrix
    q: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.matrix.is_square:
            raise DimensionError("LCP needs a square matrix")
        if len(self.q) != self.matrix.rows:
            raise DimensionError("q length does not match matrix size")

    @classmethod
    def of(cls, matrix: ExactMatrix, q: Sequence[RationalLike]) -> "LCPInstance":
        return cls(matrix, tuple(to_fraction(v) for v in q))


@dataclass(frozen=True)
class SolutionFamily:
    """A connected piece of solutions on one support.

    Members are ``particular + t * direction`` for t in ``t_range`` when the
    kernel is one-dimensional (None bound = unbounded side; ``particular`` is
    itself a solution at t = 0).  For higher-dimensional kernels ``t_range``
    is None and ``directions`` only under-describes the piece.
    """

    support: tuple[int, ...]
    particular: tuple[Fraction, ...]
    directions: tuple[tuple[Fraction, ...], ...]
    t_range: tuple[Fraction | None, Fraction | None] | None

    @property
    def dimension(self) -> int:
        return len(self.directions)

    def member(self, t: Fraction) -> tuple[Fraction, ...]:
        if self.dimension != 1:
            raise ValueError("member() needs a one-dimensional family")
        d = self.directions[0]
        return tuple(p + t * v for p, v in zip(self.particular, d))


@dataclass(frozen=True)
class LCPSolutionSet:
    """Isolated solutions (deduplicated, sorted) plus any infinite families."""

    solutions: tuple[tuple[Fraction, ...], ...]
    families: tuple[SolutionFamily, ...]

    @property
    def is_finite(self) -> bool:
        return not self.families

    @property
    def kind(self) -> str:
        return "finite" if self.is_finite else "infinite"

    def count(self) -> int | None:
        """Number of solutions, or None when infinite."""
        return len(self.solutions) if self.is_finite else None


# A solution of an integer complementarity problem LCP(T, Q) on one support:
# (d, Z, W) with d > 0, the point u = Z / d and W = T Z + d Q, d times its slack.
# Read on a window's LCP(A_w, A_w x), with T the table's scaled rows of the
# window and Q the scaled image of X = L x (:func:`_scaled_image`), u is L z for
# the solution z = Z / (d L), and the slack w = A_w z + A_w x has entry i equal
# to W_i / (d L s_i), s_i the scale of the window's row i in the minor table.
Point = tuple[int, list[int], list[int]]

# A solution family on one support, on integers: (anchor, D, K, t_range).  Its
# members are the anchor plus sum_w t_w K_w / D; t_range is the range of a
# one-dimensional family's t, each side a Bound or None when unbounded, and is
# None for larger kernels, whose K only under-describes the family.
Bound = tuple[int, int]  # num / den with den > 0
Family = tuple[Point, int, list[list[int]], tuple[Bound | None, Bound | None] | None]

# A linear constraint sum(coeffs * t) >= rhs over the kernel parameters.
Constraint = tuple[tuple[int, ...], int]


def _fm_eliminate(cons: list[Constraint], var: int) -> list[Constraint]:
    pos = [c for c in cons if c[0][var] > 0]
    neg = [c for c in cons if c[0][var] < 0]
    out = [c for c in cons if c[0][var] == 0]
    for (pa, pr) in pos:
        for (na, nr) in neg:
            fp, fn = -na[var], pa[var]
            coeffs = tuple(fp * a + fn * b for a, b in zip(pa, na))
            rhs = fp * pr + fn * nr
            g = math.gcd(*coeffs, rhs)
            if g > 1:
                coeffs, rhs = tuple(v // g for v in coeffs), rhs // g
            out.append((coeffs, rhs))
            if len(out) > _FM_CONSTRAINT_CAP:
                raise ResourceLimitError("Fourier-Motzkin constraint blow-up")
    return out


def _fm_consistent(cons: list[Constraint]) -> bool:
    return all(c[1] <= 0 for c in cons if not any(c[0]))


def _same(b1: Bound, b2: Bound) -> bool:
    return b1[0] * b2[1] == b2[0] * b1[1]


def _fm_bounds_single(cons: list[Constraint], var: int) -> tuple[Bound | None, Bound | None, bool]:
    """Bounds on t_var from constraints mentioning only t_var; (lo, hi, consistent).

    Each bound rhs / c is kept as a Bound and compared by cross-multiplication.
    """
    lo: Bound | None = None
    hi: Bound | None = None
    for coeffs, rhs in cons:
        c = coeffs[var]
        if c == 0:
            if rhs > 0:
                return None, None, False
        elif c > 0:
            if lo is None or rhs * lo[1] > lo[0] * c:
                lo = (rhs, c)
        elif hi is None or rhs * hi[1] > hi[0] * c:
            hi = (-rhs, -c)
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return lo, hi, False
    return lo, hi, True


def _fm_project(cons: list[Constraint], dim: int, keep: int) -> tuple[Bound | None, Bound | None, bool]:
    cur = cons
    for v in range(dim):
        if v != keep:
            cur = _fm_eliminate(cur, v)
    if not _fm_consistent(cur):
        return None, None, False
    only = [c for c in cur if c[0][keep] != 0]
    return _fm_bounds_single(only, keep)


def _fm_feasible_point(cons: list[Constraint], dim: int) -> tuple[list[int], int] | None:
    """A feasible point N / B (B > 0) of {t : cons}, or None, by elimination +
    back-substitution.

    Stage i has variables 0..dim-1-i alive; values are chosen for variable v
    from stage dim-1-v after substituting the variables already fixed, whose
    constraints, times B, bound B t_v.  The choice is the midpoint of a finite
    range, one beyond its only end, or 0.
    """
    stages = [cons]
    for v in range(dim - 1, 0, -1):
        stages.append(_fm_eliminate(stages[-1], v))
    if not _fm_consistent(stages[-1]):
        return None
    nums = [0] * dim
    den = 1
    for v in range(dim):
        reduced = [
            ((coeffs[v],), den * rhs - sum(coeffs[w] * nums[w] for w in range(v)))
            for coeffs, rhs in stages[dim - 1 - v]
        ]
        lo, hi, ok = _fm_bounds_single(reduced, 0)
        if not ok:
            return None
        # den * t_v = a / b, for den before this step
        if lo is None and hi is None:
            a, b = 0, 1
        elif lo is None:
            a, b = hi[0] - den * hi[1], hi[1]
        elif hi is None:
            a, b = lo[0] + den * lo[1], lo[1]
        else:
            a, b = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        nums = [n * b for n in nums]
        nums[v] = a
        den *= b
        g = math.gcd(den, *nums)
        nums, den = [n // g for n in nums], den // g
    return nums, den


def _support_solutions(
    rows: Sequence[Sequence[int]], q: Sequence[int], support: tuple[int, ...]
) -> tuple[list[Point], list[Family]]:
    """The solutions of the integer LCP(T, Q), T = rows, on one support S: the
    points and families of u >= 0 with u zero off S, T_SS u_S = -Q_S and slack
    T u + Q >= 0 off S.

    Fraction-free Gauss-Jordan turns [T_SS | -Q_S] into D times its reduced row
    echelon form, D the last pivot: every entry is a minor of the input, so
    each division is exact, and every pivot ends equal to D.  The reduced form
    is unique, so a consistent system gives the particular solution P / D and
    the kernel basis K_w / D of Gauss-Jordan on Fractions.  With
    u = (P + sum_w t_w K_w) / D the feasible t are cut out by integer
    constraints, positive multiples of those on the Fraction rows, which keep
    every bound.  A singular T_SS then gives a segment or ray (one-dimensional
    kernel, its anchor and finite end also listed as points) or, for larger
    kernels, a Fourier-Motzkin point that is either isolated or stands for a family.
    """
    n = len(rows)
    size = len(support)
    m = [[rows[i][j] for j in support] + [-q[i]] for i in support]
    pivots: list[int] = []
    prev = 1
    for c in range(size):
        r = len(pivots)
        p = next((i for i in range(r, size) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top = m[r]
        pv = top[c]
        for i in range(size):
            if i != r:
                f = m[i][c]
                m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = pv
        pivots.append(c)
    if any(m[i][size] for i in range(len(pivots), size)):
        return [], []
    sign = 1 if prev > 0 else -1
    den = sign * prev
    part = [0] * n
    for i, c in enumerate(pivots):
        part[support[c]] = sign * m[i][size]
    kernel = []
    for fc in range(size):
        if fc not in pivots:
            k = [0] * n
            k[support[fc]] = den
            for i, c in enumerate(pivots):
                k[support[c]] = -sign * m[i][fc]
            kernel.append(k)

    def solution(d: int, nums: list[int]) -> Point | None:
        """The point nums / d with its scaled slack, or None if infeasible."""
        if any(nums[j] < 0 for j in support):
            return None
        slack = [sum(row[j] * nums[j] for j in support) + d * qv for row, qv in zip(rows, q)]
        if any(v < 0 for v in slack):
            return None
        if sum(nums[j] * slack[j] for j in support) != 0:
            raise InvariantError(f"support solution {nums} / {d} is not complementary")
        return d, nums, slack

    if not kernel:
        x = solution(den, part)
        return [x] if x else [], []
    dim = len(kernel)
    # feasibility constraints on the kernel parameters t:
    #   u_S(t) >= 0 and slack_i(t) >= 0 off the support, each times D
    cons: list[Constraint] = [(tuple(k[j] for k in kernel), -part[j]) for j in support]
    for i, (row, qv) in enumerate(zip(rows, q)):
        if i not in support:
            base = sum(row[j] * part[j] for j in support) + den * qv
            cons.append((tuple(sum(row[j] * k[j] for j in support) for k in kernel), -base))
    if dim == 1:
        lo, hi, ok = _fm_bounds_single(cons, 0)
        if not ok:
            return [], []

        def at(t: Bound) -> tuple[int, list[int]]:
            return t[1] * den, [t[1] * p + t[0] * k for p, k in zip(part, kernel[0])]

        if lo is not None and hi is not None and _same(lo, hi):
            x = solution(*at(lo))
            return [x] if x else [], []
        t0 = lo if lo is not None else (hi if hi is not None else (0, 1))
        anchor = solution(*at(t0))
        if anchor is None:
            raise InvariantError(f"family anchor at t = {t0[0]}/{t0[1]} on support {support} is infeasible")
        points = [anchor]
        if lo is not None and hi is not None:
            other = solution(*at(hi))
            if other is None:
                raise InvariantError(f"family end at t = {hi[0]}/{hi[1]} on support {support} is infeasible")
            points.append(other)
        shift = lambda b: None if b is None else (b[0] * t0[1] - t0[0] * b[1], b[1] * t0[1])  # noqa: E731
        return points, [(anchor, den, kernel, (shift(lo), shift(hi)))]
    point = _fm_feasible_point(cons, dim)
    if point is None:
        return [], []
    ts, b = point
    x = solution(b * den, [b * p + sum(t * k[j] for t, k in zip(ts, kernel)) for j, p in enumerate(part)])
    if x is None:
        raise InvariantError(f"Fourier-Motzkin point {ts} / {b} on support {support} is infeasible")
    for w in range(dim):
        lo, hi, ok = _fm_project(cons, dim, w)
        if not ok:  # the region is nonempty, so every projection is too
            raise InvariantError(f"empty projection of a nonempty region on support {support}")
        if lo is None or hi is None or not _same(lo, hi):
            return [x], [(x, den, kernel, None)]
    return [x], []


def _fractions(point: Point) -> tuple[Fraction, ...]:
    d, nums, _ = point
    return tuple(Fraction(v, d) for v in nums)


def _solution_family(support: tuple[int, ...], fam: Family) -> SolutionFamily:
    anchor, den, kernel, t_range = fam
    return SolutionFamily(
        support=tuple(i + 1 for i in support),
        particular=_fractions(anchor),
        directions=tuple(tuple(Fraction(v, den) for v in k) for k in kernel),
        t_range=None if t_range is None else (
            None if t_range[0] is None else Fraction(*t_range[0]),
            None if t_range[1] is None else Fraction(*t_range[1]),
        ),
    )


def solve_lcp(inst: LCPInstance) -> LCPSolutionSet:
    """Enumerate all complementarity solutions of the instance exactly.

    Each row of [A | q] is scaled to integers once, which keeps every solution
    and slack sign, and every support is solved on those integers.
    """
    n = inst.matrix.rows
    _check_lcp_size(n)
    rows, _ = _rows_as_scaled_ints([[*row, qv] for row, qv in zip(inst.matrix.row_list(), inst.q)])
    q = [row.pop() for row in rows]
    found: dict[tuple[Fraction, ...], None] = {}
    families: list[SolutionFamily] = []
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            points, fams = _support_solutions(rows, q, support)
            found.update(dict.fromkeys(map(_fractions, points)))
            families.extend(_solution_family(support, fam) for fam in fams)
    return LCPSolutionSet(solutions=tuple(sorted(found)), families=tuple(families))


class TnpLcpStatus(str, Enum):
    SUFFICIENT = "sufficient_condition_holds"
    VIOLATION = "violation_found"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TnpLcpReport:
    status: TnpLcpStatus
    rows: tuple[int, ...] | None = None
    cols: tuple[int, ...] | None = None
    q: tuple[Fraction, ...] | None = None
    witness_pair: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None
    note: str = ""


_NOT_SOLVED_BY_ZERO = "zero vector is not a solution of the prescribed instance"

#: Most minors one table stores: a level whole while it fits, a minor computed
#: alone while there is room; past it, minors are computed but not kept.  It
#: caps the table only: the condensation sweep keeps its two levels below at
#: every size, up to ``matrix.MAX_LEVEL_MINORS``, which is larger, so the sweep
#: never refuses a level that fits.
MAX_STORED_MINORS = 1 << 18


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class MinorTable:
    """Minors of one matrix over its row-scaled integers (``ExactMatrix.integer_rows``),
    kept as they are computed, for the lookups of the one complementarity
    sweep that builds it (:func:`_lcp_windows`).

    Row i of the matrix is scaled by ``d_i``, a positive diagonal that keeps
    the sign of every minor.  ``minor_of_masks`` gives the integer minor of the
    scaled matrix; the minor of the matrix itself is that over ``scale(R)``.
    :meth:`fill` stores the levels of ``matrix._int_minor_levels`` on the
    scaled rows whole, sizes ascending, while each fits under
    ``MAX_STORED_MINORS``.  A minor asked for and not kept is the Laplace
    expansion of kept minors one size smaller, else ``matrix._int_minor`` of
    its entries, and is kept while there is room.  Index sets are 0-based and
    strictly increasing; they are not validated.
    """

    def __init__(self, a: ExactMatrix) -> None:
        self._ints, self._scales = a.integer_rows
        self._ncols = a.cols
        self._values: dict[int, int] = {}  # (row mask << ncols) | column mask -> minor
        self._sweep = _int_minor_levels(self._ints, min(a.rows, a.cols))
        self._whole = 0  # the levels of sizes 1.._whole are stored whole
        self._zero = min(a.rows, a.cols) + 1  # the least size whose stored level is all 0 (past the order: none)

    def fill(self, r: int) -> bool:
        """Store the levels up to size r, sizes ascending, while each one fits
        under ``MAX_STORED_MINORS``.  True when every level of sizes 1..r is
        stored whole, so that every minor of size r or less is a lookup that
        cannot miss.

        A stored level that is all 0 is the last one drawn: every larger minor
        is 0, so none is condensed or stored, and ``minor_of_masks`` answers 0
        for it."""
        nrows, ncols = len(self._ints), self._ncols
        while (s := self._whole + 1) <= min(r, self._zero):
            if len(self._values) + math.comb(nrows, s) * math.comb(ncols, s) > MAX_STORED_MINORS:
                break
            # a level that fits is below MAX_LEVEL_MINORS, so the sweep does not refuse it
            level = next(self._sweep, None)
            if level is None:
                raise InvariantError(f"the condensation sweep ended before level {s}")
            cmasks = [cmask for _, cmask, _ in index_sets(ncols, s, False)]
            for (_, rmask, _), values in zip(index_sets(nrows, s, False), level):
                rkey = rmask << ncols
                self._values.update(zip([rkey | cmask for cmask in cmasks], values))
            if not any(map(any, level)):
                self._zero = s
            self._whole = s
        return self._whole >= r

    def minor_of_masks(self, rmask: int, cmask: int, along: int = 0) -> int:
        """The minor on the rows and columns whose bits are set in rmask and cmask.

        ``along``, when nonzero, is the bit of the row that a Laplace expansion
        uses in place of the first row; a caller that knows which size-(s-1)
        minors it has already read passes the row whose expansion needs only those.
        """
        key = rmask << self._ncols | cmask
        value = self._values.get(key)
        if value is None:
            if rmask.bit_count() > self._zero:
                return 0  # above an all-zero stored level
            value = self._expand(rmask, cmask, along or rmask & -rmask) if rmask.bit_count() > 2 else None
            if value is None:
                value = _int_minor([self._ints[i] for i in _bits(rmask)], list(_bits(cmask)))
            if len(self._values) < MAX_STORED_MINORS:
                self._values[key] = value
        return value

    def _expand(self, rmask: int, cmask: int, along: int) -> int | None:
        """Laplace expansion along the row whose bit is ``along`` from kept minors;
        None if one is missing."""
        row = self._ints[along.bit_length() - 1]
        rest = (rmask ^ along) << self._ncols
        negate = (rmask & (along - 1)).bit_count() % 2 == 1
        value = 0
        bits = cmask
        while bits:
            low = bits & -bits
            bits ^= low
            entry = row[low.bit_length() - 1]
            if entry:
                sub = self._values.get(rest | (cmask ^ low))
                if sub is None:
                    return None
                value = value - entry * sub if negate else value + entry * sub
            negate = not negate
        return value

    def scaled_rows(self, rows0: Sequence[int], cols0: Sequence[int]) -> list[list[int]]:
        """The (rows0, cols0) submatrix of the row-scaled integer matrix."""
        return [[self._ints[i][j] for j in cols0] for i in rows0]

    def scale(self, rows0: Sequence[int]) -> int:
        """The minor's exact denominator factor on rows0 (``matrix.row_scale``)."""
        return row_scale(self._scales, rows0)


#: The default test-vector weights: 1 on the row-1 deletion minors.
_FIRST_ROW: Mapping[int, Fraction] = {1: Fraction(1)}


def _weighted_deletions(
    table: MinorTable, rows: IndexSet, weights: Mapping[int, Fraction]
) -> tuple[list[tuple[int, int]], int]:
    """(terms, L) of the test vectors of the windows on the row index set rows,
    of size 2 or more: L > 0 a common denominator of the w_i / scale(R - i),
    and for each weight w_i that applies at this size, the table key of the
    rows R - i and L w_i / scale(R - i).  Built once per row set.

    The minor of a window without its row i and column j is the table minor on
    the rows R - i over scale(R - i).  The default weight w_1 = 1
    (``_FIRST_ROW``) gives L = scale(R - R_1) and the one factor 1.
    """
    rows0, _, row_deletions = rows
    r = len(rows0)
    dens = {i: w.denominator * table.scale(rows0[: i - 1] + rows0[i:]) for i, w in weights.items() if i <= r}
    lcm = math.lcm(*dens.values())
    return [(row_deletions[i - 1] << table._ncols, weights[i].numerator * (lcm // den)) for i, den in dens.items()], lcm


def _single_vector_ints(table: MinorTable, terms: Sequence[tuple[int, int]], cols: IndexSet) -> list[int]:
    """X = L x, x the test vector of the window on the column index set cols and
    the row set of the :func:`_weighted_deletions` terms: weighted row-i
    deletion minors at odd positions, zeros elsewhere.  Position j (1-based,
    odd) of x holds sum_i w_i M_ij, M_ij the window's minor without its row i
    and column j; with the default weight, X_j = M_1j itself."""
    col_deletions = cols[2]
    values, shift = table._values, table._ncols
    xs = [0] * len(col_deletions)
    for j in range(0, len(xs), 2):
        cmask = col_deletions[j]
        for rkey, factor in terms:
            v = values.get(rkey | cmask)
            xs[j] += factor * (table.minor_of_masks(rkey >> shift, cmask) if v is None else v)
    return xs


def _scaled_image(table: MinorTable, rows0: Sequence[int], cols0: Sequence[int], xs: Sequence[int]) -> list[int]:
    """Q with (A_w x)_i = Q_i / (L s_i), for X = L x (the slack of the empty support):
    X times the window's scaled rows."""
    live = [(col, v) for col, v in zip(cols0, xs) if v]
    qs = []
    for i in rows0:
        row = table._ints[i]
        total = 0
        for col, v in live:
            total += row[col] * v
        qs.append(total)
    return qs


def _image_fractions(scales: Sequence[int], rows0: Sequence[int], qs: Sequence[int], lcm: int) -> tuple[Fraction, ...]:
    """A_w x itself, from the row scales (``ExactMatrix.integer_rows``), the Q of
    :func:`_scaled_image` and L."""
    return tuple(Fraction(v, lcm * scales[i]) for v, i in zip(qs, rows0))


#: One support S of a window, by positions 0..r-1: its positions, their bit
#: mask, and the count of its positions below each position p (bytes, so
#: below[p] is an int).  The counts give every sign of the support's candidate.
Plan = tuple[tuple[int, ...], int, bytes]

#: The plans of each window size up to MAX_ALL_SUBMATRIX_DIM, built on first
#: use.  A support's plan does not depend on the window size, so every size
#: shares one plan object per support: at most 2^12 - 1 plans, about 1 MB.
_PLANS: dict[int, tuple[Plan, ...]] = {}


def _plan(support: tuple[int, ...], span: int) -> Plan:
    smask = 0
    below = bytearray(span)
    for p in range(span):
        below[p] = smask.bit_count()
        if p in support:
            smask |= 1 << p
    return support, smask, bytes(below)


def _support_plans(r: int) -> Iterable[Plan]:
    """The plans of the nonempty supports of a size-r window, sizes ascending
    and each size lexicographic.  Sizes up to MAX_ALL_SUBMATRIX_DIM are kept;
    a larger size is built as it is read and kept nowhere, since 2^20 plans
    would take hundreds of MB."""
    plans = _PLANS.get(r)
    if plans is not None:
        return plans
    supports = itertools.chain.from_iterable(itertools.combinations(range(r), s) for s in range(1, r + 1))
    if r > MAX_ALL_SUBMATRIX_DIM:
        return (_plan(support, r) for support in supports)
    shared = {plan[1]: plan for plan in _support_plans(r - 1)} if r > 1 else {}
    plans = _PLANS[r] = tuple(
        shared.get(sum(1 << p for p in support)) or _plan(support, MAX_ALL_SUBMATRIX_DIM) for support in supports
    )
    return plans


def _position_keys(bits: Iterable[int]) -> list[int]:
    """The union of every subset of bits, indexed by the subset's position mask:
    the subsets without position p, then each with p.  Given the row bits of a
    window shifted by the table's column count, these are the row parts of the
    table keys; given its column bits, the column masks."""
    keys = [0]
    for bit in bits:
        keys += [key | bit for key in keys]
    return keys


def _support_candidates(
    table: MinorTable,
    rows0: Sequence[int],
    cols0: Sequence[int],
    xs: Sequence[int],
    qs: Sequence[int],
    rkeys: Sequence[int],
    cmasks: Sequence[int],
    whole: bool,
) -> Iterator[Point | None]:
    """The feasible solutions of LCP(A_w, A_w x) on the nonempty supports of the
    window w = (rows0, cols0), sizes ascending, from X = L x, the Q of
    :func:`_scaled_image`, and the :func:`_position_keys` of its rows (shifted)
    and of its columns; ``whole`` says that the table keeps every level up to
    the window size (``MinorTable.fill``).

    With T the table's minor on the window rows/columns at the given positions
    and d = T(S, S) != 0, Cramer's rule and the Schur complement (Cottle, Pang
    and Stone, The Linear Complementarity Problem, 1992, 4.1) give

        z_l d = -X_l d - sum_{j not in S} X_j s_lj T(S, S - l + j)   (l in S),
        w_i d = sum_{j not in S} X_j s'_ij T(S + i, S + j)            (i not in S),

    where s_lj is -1 to the number of S strictly between l and j, and s'_ij is
    -1 to the number of S above i plus the number above j.  With b(p) the
    number of S below position p (the support's plan) and Y_j = (-1)^b(j) X_j,
    these are

        z_l d = -X_l d + (-1)^b(l) (sum_{j > l} Y_j T(S, S - l + j) - sum_{j < l} Y_j T(S, S - l + j)),
        w_i d = (-1)^b(i) sum_{j not in S} Y_j T(S + i, S + j).

    No submatrix is built and no Fraction.  When the table is whole every minor
    is a lookup that cannot miss; the slacks come first, since most supports
    fail on one, then the z values, and a support stops at its first negative
    value.  Past the table's cap a missing minor is expanded along its row
    that is not among its column positions, and d along its highest row where X
    is nonzero, so it reads only minors that the supports one smaller have read.
    There every z-minor is read first, then the w-minors up to the first
    negative w: T(S + i, S + j) expands along row i over d and the z-minors
    T(S, S - l + j), so the z-minors keep every expansion on kept minors.

    A support with d != 0 that holds every position where X is nonzero has
    Z = -X |d| and W = 0: -x, yielded at the first such support only.  A support
    with a zero principal minor goes to :func:`_support_solutions` on the
    table's scaled rows of the window and Q, whose points are candidates as
    they are; at its first solution family this yields None and stops, since
    the family already decides the window.
    """
    values, minor, shift = table._values, table.minor_of_masks, table._ncols
    r = len(rows0)
    rbit = [1 << i for i in rows0]
    cbit = [1 << j for j in cols0]
    live = [(j, 1 << j, cbit[j], v) for j, v in enumerate(xs) if v]
    live_mask = sum(bit for _, bit, _, _ in live)
    minus_x = max(xs) <= 0  # whether -x is feasible and not yielded yet
    window = None  # the table's scaled rows of the window, read at the first zero principal minor
    for support, smask, below in _support_plans(r):
        rk = rkeys[smask]
        cm = cmasks[smask]
        d = values.get(rk | cm)
        if d is None:
            top = smask & live_mask
            d = minor(rk >> shift, cm, rbit[top.bit_length() - 1] if top else 0)
        if d == 0:
            if window is None:
                window = table.scaled_rows(rows0, cols0)
            points, families = _support_solutions(window, qs, support)
            if families:
                yield None
                return
            yield from points
            continue
        if not live_mask & ~smask:  # no outside terms: Z = -X |d| and W = 0
            if minus_x:
                minus_x = False
                yield abs(d), [-v * abs(d) for v in xs], [0] * r
            continue
        outside = [(j, cj, -v if below[j] & 1 else v) for j, bit, cj, v in live if not smask & bit]
        if whole:
            ws = [0] * r
            for i in range(r):
                if smask >> i & 1:
                    continue
                rik = rkeys[smask | 1 << i] | cm
                acc = 0
                for _, cj, y in outside:
                    acc += y * values[rik | cj]
                if (below[i] & 1) == (d > 0):
                    acc = -acc
                if acc < 0:
                    break
                ws[i] = acc
            else:
                zs = [0] * r
                for rank, l in enumerate(support):
                    rcl = rk | cm ^ cbit[l]
                    acc = 0
                    for j, cj, y in outside:
                        acc = acc + y * values[rcl | cj] if j > l else acc - y * values[rcl | cj]
                    total = -xs[l] * d - acc if rank & 1 else acc - xs[l] * d
                    if d < 0:
                        total = -total
                    if total < 0:
                        break
                    zs[l] = total
                else:
                    yield abs(d), zs, ws
            continue
        zs = [0] * r
        for rank, l in enumerate(support):
            cl = cm ^ cbit[l]
            acc = 0
            for j, cj, y in outside:
                m = values.get(rk | cl | cj)
                if m is None:
                    m = minor(rk >> shift, cl | cj, rbit[l])
                acc = acc + y * m if j > l else acc - y * m
            total = -xs[l] * d - acc if rank & 1 else acc - xs[l] * d
            zs[l] = total if d > 0 else -total
        if min(zs) < 0:
            continue
        ws = [0] * r
        for i in range(r):
            if smask >> i & 1:
                continue
            rik = rkeys[smask | 1 << i]
            acc = 0
            for j, cj, y in outside:
                m = values.get(rik | cm | cj)
                if m is None:
                    m = minor(rik >> shift, cm | cj, rbit[i])
                acc += y * m
            if (below[i] & 1) == (d > 0):
                acc = -acc
            ws[i] = acc
            if acc < 0:
                break
        else:
            yield abs(d), zs, ws


def _lcp_windows(
    a: ExactMatrix, k: int, contiguous: bool, weights: Mapping[int, Fraction] = _FIRST_ROW, first: int = 2
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], list[int], int, list[int], Iterator[Point | None]]]:
    """(rows0, cols0, X, L, Q, candidates) of every window w of size first..k,
    contiguous or all, row sets outer and column sets inner: X = L x the test
    vector of :func:`_single_vector_ints`, L that of the row set
    (:func:`_weighted_deletions`), Q the image of :func:`_scaled_image` and
    candidates the lazy :func:`_support_candidates` stream of LCP(A_w, A_w x).
    The TN checks start at size 2; the TNP condition, which decides its 2x2
    windows in closed form (:func:`_two_by_two_windows`), at size 3.

    The sweep builds one :class:`MinorTable` of its own, which all its windows
    read.  A size beyond MAX_LCP_SIZE is refused before any of its windows is
    built; otherwise the table draws the levels up to it that fit
    (``MinorTable.fill``), and the candidates read it by lookups alone when
    they all do.  The sweep over all windows (the TNP condition, which skips a
    window whose X is 0) ends at the first size r whose level r - 1 the table
    found all 0: X is built from minors of size r - 1, so it is 0 in every
    window of size r, and every larger minor is 0, so it is 0 in every larger
    window too.
    """
    table = MinorTable(a)
    for r in range(first, k + 1):
        _check_lcp_size(r)
        whole = table.fill(r)
        if not contiguous and r > table._zero:
            return
        col_sets = [(cols, _position_keys(1 << j for j in cols[0])) for cols in index_sets(a.cols, r, contiguous)]
        for rows in index_sets(a.rows, r, contiguous):
            rows0 = rows[0]
            rkeys = _position_keys(1 << i << a.cols for i in rows0)
            terms, lcm = _weighted_deletions(table, rows, weights)
            for cols, cmasks in col_sets:
                cols0 = cols[0]
                xs = _single_vector_ints(table, terms, cols)
                qs = _scaled_image(table, rows0, cols0, xs)
                yield rows0, cols0, xs, lcm, qs, _support_candidates(table, rows0, cols0, xs, qs, rkeys, cmasks, whole)


def _two_by_two_windows(
    a: ExactMatrix,
) -> Iterator[tuple[tuple[int, int], tuple[int, int], list[int], tuple[Point, Point] | None]]:
    """(rows0, cols0, Q, pair) of each 2x2 window w of a matrix with no positive
    entry whose LCP(A_w, A_w x) has a solution family (pair None) or two nonzero
    solutions with distinct images (the pair :func:`_pair_with_distinct_images`
    picks), in the sweep's order; Q is the image of :func:`_scaled_image`.

    On the scaled rows [[t11, t12], [t21, t22]] of the window, X = (t22, 0) and
    L is the scale of its second row, so Q = (t11 t22, t21 t22) >= 0 and 0 is a
    solution.  A window with t22 = 0 has X = 0 and is skipped, as at every
    size.  Otherwise t22 < 0 and its three supports give: {1} -x when t11 < 0,
    a family when t11 = 0; {2} the point u_2 = -t21 with slack t11 t22 - t12 t21
    in row 1, a solution iff that det >= 0, nonzero iff t21 < 0, with -x's
    image iff det = 0; {1, 2} -x when det != 0, the family -x + t (t22, -t21),
    t in [0, 1], when det = 0.
    """
    ints = a.integer_rows[0]
    col_pairs = tuple(itertools.combinations(range(a.cols), 2))
    for rows0 in itertools.combinations(range(a.rows), 2):
        top, bottom = ints[rows0[0]], ints[rows0[1]]
        for cols0 in col_pairs:
            j, l = cols0
            t22 = bottom[l]
            if not t22:
                continue
            t11, t21 = top[j], bottom[j]
            det = t11 * t22 - top[l] * t21
            if not t11 or not det:
                yield rows0, cols0, [t11 * t22, t21 * t22], None
            elif det > 0 and t21:
                pair = _pair_with_distinct_images([(1, [-t22, 0], [0, 0]), (1, [0, -t21], [det, 0])])
                yield rows0, cols0, [t11 * t22, t21 * t22], pair


def _window_holds(xs: Sequence[int], qs: Sequence[int], candidates: Iterable[Point | None]) -> bool:
    """Whether a window's LCP(A_w, A_w x), x = X / L with any L > 0, has exactly
    the solutions 0 and -x, from X, its image Q and its candidate stream."""
    # 0 is a solution iff A_w x >= 0, and -x iff x <= 0
    if any(v > 0 for v in xs) or any(v < 0 for v in qs):
        return False
    for cand in candidates:
        if cand is None:
            return False
        d, zs, _ = cand
        if any(zs) and any(z != -v * d for z, v in zip(zs, xs)):
            return False
    return True


def _check_single_vector_windows(a: ExactMatrix, k: int, weights: Mapping[int, Fraction], method: str) -> Verdict:
    """The 1x1 windows from entry signs: LCP(t, -w_1 t) has exactly the solutions
    0 and w_1 iff t < 0.  Then every contiguous window of size 2..k."""
    if 1 not in weights:
        raise ValueError("no weight applies to submatrices of size 1")
    hit = a.first_entry_violating(strict=True)
    if hit is not None:
        violation = Violation(ViolationKind.LCP_SOLUTION_MISMATCH, hit[:1], hit[1:2], vector=(weights[1],))
        return Verdict(False, method, violation)
    for rows0, cols0, xs, lcm, qs, candidates in _lcp_windows(a, k, True, weights):
        if not _window_holds(xs, qs, candidates):
            violation = Violation(
                ViolationKind.LCP_SOLUTION_MISMATCH,
                _one_based(rows0),
                _one_based(cols0),
                vector=tuple(Fraction(-v, lcm) for v in xs),
            )
            return Verdict(False, method, violation)
    return Verdict(True, method)


def lcp_single_vector_check(a: ExactMatrix, k: int) -> Verdict:
    """Decide total negativity of order k from one complementarity instance per window.

    For each contiguous square submatrix of size 1..k the instance q = A_r x
    (x built from row-1 deletion minors at odd positions, with the size-1
    convention that the empty determinant is -1) must have exactly the two
    solutions 0 and -x.
    """
    check_order(a, k)
    return _check_single_vector_windows(a, k, _FIRST_ROW, "lcp_single_vector")


def lcp_single_vector_check_variant(
    a: ExactMatrix, k: int, odd_weights: Mapping[int, RationalLike]
) -> Verdict:
    """Variant of the single-vector test with positive weights over odd row deletions."""
    check_order(a, k)
    if not odd_weights:
        raise ValueError("at least one weight is required")
    weights: dict[int, Fraction] = {}
    for key, value in odd_weights.items():
        if not isinstance(key, int) or key % 2 == 0 or key < 1:
            raise ValueError(f"weights are indexed by odd positions, got {key!r}")
        w = to_fraction(value)
        if w <= 0:
            raise ValueError("weights must be strictly positive")
        weights[key] = w
    return _check_single_vector_windows(a, k, weights, "lcp_single_vector_variant")


def tnp_lcp_sufficient_check(a: ExactMatrix, k: int) -> TnpLcpReport:
    """Check the one-directional complementarity conditions for total non-positivity.

    For every square submatrix up to size k it evaluates the prescribed
    instance q = A_r x: the zero vector must solve it and all nonzero
    solutions must share one image under A_r.  When that holds with finite
    solution sets everywhere the condition certifies the class; infinite
    solution families leave the universally quantified clause unverifiable, so
    the check reports inconclusive rather than claiming either way.

    The 1x1 windows are decided by the signs of the entries and the 2x2 windows
    in closed form (:func:`_two_by_two_windows`); the support walk starts at size 3.
    A window whose test vector X is 0 cannot change the report (see the loop),
    so the walk builds none: it skips each one, and once every minor of some
    size r - 1 is 0 (a level the minor table found all 0), every window of size
    r and above has X = 0, and the walk stops (:func:`_lcp_windows`).
    """
    check_order(a, k)
    check_all_window_dims(a)
    # a 1x1 window [t] has q = -t: 0 solves it iff t <= 0, its nonzero solution
    # is 1 alone when t < 0, and t = 0 gives the family of LCP(0, 0)
    hit = a.first_entry_violating(strict=False)
    if hit is not None:
        return TnpLcpReport(TnpLcpStatus.VIOLATION, hit[:1], hit[1:2], q=(-hit[2],), note=_NOT_SOLVED_BY_ZERO)
    zero = a.first_entry_violating(strict=True)
    saw_family: tuple[tuple[int, ...], tuple[int, ...]] | None = None if zero is None else (zero[:1], zero[1:2])
    scales = a.integer_rows[1]
    for rows0, cols0, qs, pair in _two_by_two_windows(a) if k >= 2 else ():
        if pair is not None:
            return _distinct_images_violation(scales, rows0, cols0, qs, scales[rows0[1]], pair)
        if saw_family is None:
            saw_family = (_one_based(rows0), _one_based(cols0))
    for rows0, cols0, xs, lcm, qs, candidates in _lcp_windows(a, k, False, first=3):
        if not any(xs):
            # X = 0 gives q = 0, and every entry is <= 0 by now: a solution u has
            # A_w u >= 0 and A_w u <= 0, so its image is 0, as is 0's, and u_j > 0
            # only on a zero column of A_w.  So the window holds no violation, and
            # a family only where the matrix has a zero entry, the first of which
            # saw_family already holds.  Nothing in it can change the report.
            continue
        if min(qs) < 0:
            return TnpLcpReport(
                TnpLcpStatus.VIOLATION,
                rows=_one_based(rows0),
                cols=_one_based(cols0),
                q=_image_fractions(scales, rows0, qs, lcm),
                note=_NOT_SOLVED_BY_ZERO,
            )
        nonzero: list[Point] = []
        for cand in candidates:
            if cand is None:
                # a solution family: the image condition quantifies over the
                # whole (infinite) set, so it cannot be verified here
                if saw_family is None:
                    saw_family = (_one_based(rows0), _one_based(cols0))
                break
            if any(cand[1]):
                nonzero.append(cand)
        else:
            pair = _pair_with_distinct_images(nonzero)
            if pair is not None:
                return _distinct_images_violation(scales, rows0, cols0, qs, lcm, pair)
    if saw_family is not None:
        return TnpLcpReport(
            TnpLcpStatus.INCONCLUSIVE,
            rows=saw_family[0],
            cols=saw_family[1],
            note="infinite solution family prevents exhaustive verification of the image condition",
        )
    return TnpLcpReport(TnpLcpStatus.SUFFICIENT)


def _distinct_images_violation(
    scales: Sequence[int],
    rows0: Sequence[int],
    cols0: Sequence[int],
    qs: Sequence[int],
    lcm: int,
    pair: tuple[Point, Point],
) -> TnpLcpReport:
    """The violation of a window with two nonzero solutions of distinct images."""
    return TnpLcpReport(
        TnpLcpStatus.VIOLATION,
        rows=_one_based(rows0),
        cols=_one_based(cols0),
        q=_image_fractions(scales, rows0, qs, lcm),
        witness_pair=tuple(tuple(Fraction(z, d * lcm) for z in zs) for d, zs, _ in pair),
        note="two nonzero solutions with different images",
    )


def _compare_candidates(c1: Point, c2: Point) -> int:
    """Lexicographic order of the solutions Z1 / d1 and Z2 / d2."""
    d1, z1, _ = c1
    d2, z2, _ = c2
    for u, v in zip(z1, z2):
        if u * d2 != v * d1:
            return -1 if u * d2 < v * d1 else 1
    return 0


def _pair_with_distinct_images(candidates: list[Point]) -> tuple[Point, Point] | None:
    """The first pair, in the sorted order ``solve_lcp`` lists solutions in, whose
    images under A_w differ: the least solution u and the least v whose image is not u's.

    Images differ exactly where slacks do, and slack i is W_i / d over a common
    positive factor.  When every slack is the first candidate's there is no
    pair, and nothing is sorted.
    """
    if not candidates:
        return None
    d0, _, w0 = candidates[0]
    if all(w * d0 == v * d for d, _, ws in candidates for w, v in zip(ws, w0)):
        return None
    key = functools.cmp_to_key(_compare_candidates)
    u = min(candidates, key=key)
    du, _, wu = u
    others = [c for c in candidates if any(w * du != v * c[0] for w, v in zip(c[2], wu))]
    return u, min(others, key=key)

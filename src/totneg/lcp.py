"""Exact linear complementarity: enumeration solver and class characterizations.

``solve_lcp`` enumerates supports: for each candidate support S it solves
A_SS x_S = -q_S exactly, keeps feasible solutions, and when A_SS is singular
with a consistent system it intersects the affine solution set with the
feasibility region.  One-dimensional kernels give an exact segment / ray
description; higher-dimensional ones are decided by Fourier-Motzkin
elimination and reported as under-described families.

The single-vector checks ask of each window w only whether LCP(A_w, A_w x)
has a prescribed solution set, so they enumerate its supports on integers
read from the matrix's minor table (:func:`_support_candidates`) and stop as
soon as the answer is known.  Only a support with a zero principal minor, which
may hold a solution family, is solved on Fractions by ``solve_lcp``'s per-support
step (:func:`_support_solutions`), and the first family ends its window.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Literal, Mapping, Sequence

from .checks import MAX_ALL_SUBMATRIX_DIM, TN, ClassQuery, Verdict, Violation, ViolationKind, check_by_minor_definition
from .errors import DimensionError, InvariantError, ResourceLimitError
from .matrix import (
    ExactMatrix,
    MinorTable,
    RationalLike,
    all_windows,
    check_order,
    contiguous_windows,
    take,
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


def _support_solutions(
    rows: Sequence[Sequence[Fraction]], q: Sequence[Fraction], support: tuple[int, ...]
) -> tuple[list[tuple[Fraction, ...]], list[SolutionFamily]]:
    """The solutions of LCP(rows, q) on one support S: the points and families
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


def solve_lcp(inst: LCPInstance) -> LCPSolutionSet:
    """Enumerate all complementarity solutions of the instance exactly."""
    n = inst.matrix.rows
    _check_lcp_size(n)
    rows = inst.matrix.row_list()
    found: dict[tuple[Fraction, ...], None] = {}
    families: list[SolutionFamily] = []
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            points, fams = _support_solutions(rows, inst.q, support)
            found.update(dict.fromkeys(points))
            families.extend(fams)
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
    if not a.is_entrywise_negative():
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


def _single_vector_ints(
    table: MinorTable, rows0: Sequence[int], cols0: Sequence[int], weights: Mapping[int, Fraction] | None = None
) -> tuple[list[int], int]:
    """(X, L) with L > 0 and x = X / L the test vector of the (rows0, cols0) window:
    weighted row-i deletion minors at odd positions, zeros elsewhere.

    Position j (1-based, odd) of x holds sum_i w_i M_ij, where M_ij is the
    window's minor without its row i and column j; a 1x1 window uses M_11 = -1,
    the convention that the empty determinant is -1.  M_ij is the table minor on
    the rows R - i over scale(R - i), so L is a common denominator of the
    w_i / scale(R - i).
    """
    r = len(rows0)
    if weights is None:
        weights = {1: Fraction(1)}
    terms = []  # (R - i, numerator, denominator) of w_i / scale(R - i)
    for i, w in weights.items():
        if i <= r:
            rows = rows0[: i - 1] + rows0[i:]
            terms.append((rows, w.numerator, w.denominator * table.scale(rows)))
    lcm = math.lcm(*(den for _, _, den in terms))
    xs = [0] * r
    for j in range(0, r, 2):
        cols = cols0[:j] + cols0[j + 1 :]
        for rows, num, den in terms:
            xs[j] += num * (lcm // den) * (table.minor(rows, cols) if r > 1 else -1)
    return xs, lcm


# A feasible support solution of a window's LCP(A_w, A_w x) on integers: (d, Z, W)
# with d > 0.  For X = L x (L > 0) the solution is z = Z / (d L), and its slack
# w = A_w z + A_w x has entry i equal to W_i / (d L s_i), s_i the scale of the
# window's row i in the minor table.
Candidate = tuple[int, list[int], list[int]]


def _scaled_image(table: MinorTable, rows0: Sequence[int], cols0: Sequence[int], xs: Sequence[int]) -> list[int]:
    """Q with (A_w x)_i = Q_i / (L s_i), for X = L x (the slack of the empty support)."""
    return [
        sum(v * table.minor_of_masks(1 << i, 1 << j) for v, j in zip(xs, cols0) if v)
        for i in rows0
    ]


def _image_fractions(table: MinorTable, rows0: Sequence[int], qs: Sequence[int], lcm: int) -> tuple[Fraction, ...]:
    """A_w x itself, from the Q of :func:`_scaled_image` and L."""
    return tuple(Fraction(v, lcm * table.scale((i,))) for v, i in zip(qs, rows0))


def _point_candidate(
    table: MinorTable, rows0: Sequence[int], cols0: Sequence[int], xs: Sequence[int], lcm: int, point: Sequence[Fraction]
) -> Candidate:
    """A solution z of the window's LCP(A_w, A_w x), given as Fractions, as a candidate.

    With d the lcm of the denominators of L z, Z = d L z, and d L (z + x) = Z + d X
    has the scaled image W that the slack needs.
    """
    scaled = [v * lcm for v in point]
    d = math.lcm(*(v.denominator for v in scaled))
    zs = [v.numerator * (d // v.denominator) for v in scaled]
    return d, zs, _scaled_image(table, rows0, cols0, [z + d * x for z, x in zip(zs, xs)])


def _support_candidates(
    a: ExactMatrix, rows0: Sequence[int], cols0: Sequence[int], xs: Sequence[int], qs: Sequence[int], lcm: int
) -> Iterator[Candidate | None]:
    """The feasible solutions of LCP(A_w, A_w x) on the nonempty supports of the
    window w = (rows0, cols0), sizes ascending, from X = L x and the Q of
    :func:`_scaled_image`.

    With T the table's minor on the window rows/columns at the given positions
    and d = T(S, S) != 0, Cramer's rule and the Schur complement give

        z_l d = -X_l d - sum_{j not in S} X_j s_lj T(S, S - l + j)   (l in S),
        w_i d = sum_{j not in S} X_j s'_ij T(S + i, S + j)            (i not in S),

    where s_lj is -1 to the number of S strictly between l and j, and s'_ij is
    -1 to the number of S above i plus the number above j.  Each minor is
    expanded along its row that is not among its column positions, and d along
    a row where X is nonzero, so it reads only minors that the supports one
    smaller have read; no submatrix, no Fractions.  A support with a zero
    principal minor goes to :func:`_support_solutions` on the window's entries,
    and each of its points becomes a candidate; at its first solution family
    this yields None and stops, since the family already decides the window.
    """
    table = a.minor_table
    r = len(rows0)
    rbit = [1 << i for i in rows0]
    cbit = [1 << j for j in cols0]
    live = [j for j in range(r) if xs[j]]
    minor = table.minor_of_masks
    window = None  # (A_w, A_w x) as Fractions, built at the first zero principal minor
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
                    window = take(a, rows0, cols0).row_list(), _image_fractions(table, rows0, qs, lcm)
                points, families = _support_solutions(*window, support)
                if families:
                    yield None
                    return
                for point in points:
                    yield _point_candidate(table, rows0, cols0, xs, lcm, point)
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


def _window_holds(a: ExactMatrix, rows0: Sequence[int], cols0: Sequence[int], xs: Sequence[int], lcm: int) -> bool:
    """Whether LCP(A_w, A_w x) on the window w = (rows0, cols0) has exactly the
    solutions 0 and -x, for x = X / L."""
    qs = _scaled_image(a.minor_table, rows0, cols0, xs)
    # 0 is a solution iff A_w x >= 0, and -x iff x <= 0
    if any(v > 0 for v in xs) or any(v < 0 for v in qs):
        return False
    for cand in _support_candidates(a, rows0, cols0, xs, qs, lcm):
        if cand is None:
            return False
        d, zs, _ = cand
        if any(zs) and any(z != -v * d for z, v in zip(zs, xs)):
            return False
    return True


def _check_single_vector_windows(
    a: ExactMatrix, k: int, weights: Mapping[int, Fraction] | None, method: str
) -> Verdict:
    table = a.minor_table
    for r in range(1, k + 1):
        if weights is not None and not any(i <= r for i in weights):
            raise ValueError(f"no weight applies to submatrices of size {r}")
        for rows0, cols0 in contiguous_windows(a.rows, a.cols, r):
            _check_lcp_size(r)
            xs, lcm = _single_vector_ints(table, rows0, cols0, weights)
            if not _window_holds(a, rows0, cols0, xs, lcm):
                rows1 = tuple(i + 1 for i in rows0)
                cols1 = tuple(j + 1 for j in cols0)
                return Verdict(
                    False,
                    method,
                    Violation(
                        ViolationKind.LCP_SOLUTION_MISMATCH, rows1, cols1, vector=tuple(Fraction(-v, lcm) for v in xs)
                    ),
                )
    return Verdict(True, method)


def lcp_single_vector_check(a: ExactMatrix, k: int) -> Verdict:
    """Decide total negativity of order k from one complementarity instance per window.

    For each contiguous square submatrix of size 1..k the instance q = A_r x
    (x built from row-1 deletion minors at odd positions, with the size-1
    convention that the empty determinant is -1) must have exactly the two
    solutions 0 and -x.
    """
    check_order(a, k)
    return _check_single_vector_windows(a, k, None, "lcp_single_vector")


def lcp_single_vector_check_variant(
    a: ExactMatrix, k: int, odd_weights: Mapping[int, RationalLike]
) -> Verdict:
    """Variant of the single-vector test with positive weights over odd row deletions."""
    check_order(a, k)
    if not odd_weights:
        raise ValueError("at least one weight is required")
    weights: dict[int, Fraction] = {}
    for key, value in odd_weights.items():
        if key % 2 == 0 or key < 1:
            raise ValueError(f"weights are indexed by odd positions, got {key}")
        w = to_fraction(value)
        if w <= 0:
            raise ValueError("weights must be strictly positive")
        weights[key] = w
    return _check_single_vector_windows(a, k, weights, "lcp_single_vector_variant")


def tnp_lcp_sufficient_check(
    a: ExactMatrix,
    k: int,
    mode: Literal["single_q", "sampled_q"] = "single_q",
    trials: int = 24,
    seed: int = 0,
    max_dim: int = MAX_ALL_SUBMATRIX_DIM,
) -> TnpLcpReport:
    """Check the one-directional complementarity conditions for total non-positivity.

    ``single_q`` evaluates, for every square submatrix up to size k, the
    prescribed instance q = A_r x: the zero vector must solve it and all
    nonzero solutions must share one image under A_r.  When that holds with
    finite solution sets everywhere the condition certifies the class;
    infinite solution families leave the universally quantified clause
    unverifiable, so the check reports inconclusive rather than claiming
    either way.  ``sampled_q`` samples nonnegative q and searches for two
    alternating-support solutions with different images (a falsifier; it can
    never certify).
    """
    check_order(a, k)
    if max(a.rows, a.cols) > max_dim:
        raise ResourceLimitError(f"all-submatrix sweep refused for dimensions beyond {max_dim}")
    if mode == "sampled_q":
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

    table = a.minor_table
    saw_family: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for r in range(1, k + 1):
        for rows0, cols0 in all_windows(a.rows, a.cols, r):
            xs, lcm = _single_vector_ints(table, rows0, cols0)
            qs = _scaled_image(table, rows0, cols0, xs)
            rows1 = tuple(i + 1 for i in rows0)
            cols1 = tuple(j + 1 for j in cols0)
            if any(v < 0 for v in qs):
                return TnpLcpReport(
                    TnpLcpStatus.VIOLATION,
                    rows=rows1,
                    cols=cols1,
                    q=_image_fractions(table, rows0, qs, lcm),
                    note="zero vector is not a solution of the prescribed instance",
                )
            _check_lcp_size(r)
            candidates: list[Candidate] = []
            for cand in _support_candidates(a, rows0, cols0, xs, qs, lcm):
                if cand is None:
                    # a solution family: the image condition quantifies over the
                    # whole (infinite) set, so it cannot be verified here
                    if saw_family is None:
                        saw_family = (rows1, cols1)
                    break
                if any(cand[1]):
                    candidates.append(cand)
            else:
                pair = _pair_with_distinct_images(candidates)
                if pair is not None:
                    return TnpLcpReport(
                        TnpLcpStatus.VIOLATION,
                        rows=rows1,
                        cols=cols1,
                        q=_image_fractions(table, rows0, qs, lcm),
                        witness_pair=tuple(tuple(Fraction(z, d * lcm) for z in zs) for d, zs, _ in pair),
                        note="two nonzero solutions with different images",
                    )
    if saw_family is not None:
        return TnpLcpReport(
            TnpLcpStatus.INCONCLUSIVE,
            rows=saw_family[0],
            cols=saw_family[1],
            note="infinite solution family prevents exhaustive verification of the image condition",
        )
    return TnpLcpReport(TnpLcpStatus.SUFFICIENT)


def _compare_candidates(c1: Candidate, c2: Candidate) -> int:
    """Lexicographic order of the solutions Z1 / d1 and Z2 / d2."""
    d1, z1, _ = c1
    d2, z2, _ = c2
    for u, v in zip(z1, z2):
        if u * d2 != v * d1:
            return -1 if u * d2 < v * d1 else 1
    return 0


def _pair_with_distinct_images(candidates: list[Candidate]) -> tuple[Candidate, Candidate] | None:
    """The first pair, in the sorted order ``solve_lcp`` lists solutions in, whose
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

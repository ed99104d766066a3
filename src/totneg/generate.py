"""Oracle-certified instance generation, the per-class procedure table, and
the cross-validation harness that runs one class's procedures.

Strictly negative-minor matrices are built exactly: take a totally positive
base (Pascal / Cauchy / Vandermonde with positive scalings), lower its corner
entry inside the exact interval that flips the determinant negative while all
proper minors stay positive, and conjugate the inverse by the alternating
diagonal.  By the complementary-minor identity every minor of the result is
negative; the full minor enumeration re-certifies each emitted instance, so
nothing is trusted to the construction.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .checks import (
    MAX_ALL_SUBMATRIX_DIM,
    SINGLE_VECTOR,
    TN,
    TNP,
    AlphaChoice,
    ClassQuery,
    Verdict,
    Violation,
    _single_vector_check,
    check_all_window_dims,
    check_alpha,
    check_by_contiguous_minors,
    check_by_minor_definition,
    check_tn_snr_single_vector,
    check_tn_vd_single_vector,
    check_tnp_snr,
    check_tnp_vd,
)
from .errors import InvariantError, ResourceLimitError
from .lcp import TnpLcpStatus, lcp_single_vector_check, tnp_lcp_sufficient_check
from .matrix import (
    ExactMatrix,
    _condensation_sets,
    _int_minor,
    _int_minor_levels,
    _int_str,
    _one_based,
    _rows_as_scaled_ints,
    check_order,
    minors_up_to,
    row_scale,
)

Rows = list[list[Fraction]]


@dataclass(frozen=True)
class GeneratedInstance:
    matrix: ExactMatrix
    klass: str
    order: int
    seed: int
    attempts: int
    #: :func:`certificate_digest` at ``order``, when the generator records it
    certificate: str | None = None


def _pascal_rows(n: int) -> Rows:
    return [[Fraction(math.comb(i + j, i)) for j in range(n)] for i in range(n)]


def _cauchy_rows(n: int, rng: random.Random) -> Rows:
    xs: list[Fraction] = []
    v = Fraction(0)
    for _ in range(n):
        v += Fraction(rng.randint(1, 6), rng.randint(1, 2))
        xs.append(v)
    ys: list[Fraction] = []
    v = Fraction(rng.randint(1, 4), rng.randint(1, 2))
    for _ in range(n):
        ys.append(v)
        v += Fraction(rng.randint(1, 6), rng.randint(1, 2))
    return [[1 / (xs[i] + ys[j]) for j in range(n)] for i in range(n)]


def _vandermonde_rows(n: int, rng: random.Random) -> Rows:
    xs: list[Fraction] = []
    v = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    for _ in range(n):
        xs.append(v)
        v += Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return [[xs[i] ** j for j in range(n)] for i in range(n)]


def _random_tp_rows(n: int, rng: random.Random) -> Rows:
    base = rng.choice(("pascal", "cauchy", "vandermonde"))
    if base == "pascal":
        rows = _pascal_rows(n)
    elif base == "cauchy":
        rows = _cauchy_rows(n, rng)
    else:
        rows = _vandermonde_rows(n, rng)
    r = [Fraction(rng.randint(1, 4)) for _ in range(n)]
    c = [Fraction(rng.randint(1, 4)) for _ in range(n)]
    return [[r[i] * c[j] * rows[i][j] for j in range(n)] for i in range(n)]


def _sub_rows(rows: Rows, ridx: Sequence[int], cidx: Sequence[int]) -> Rows:
    return [[rows[i][j] for j in cidx] for i in ridx]


def _normalize_negative_rows(rows: Rows) -> Rows:
    """Positive row/column scalings keeping all minor signs: integerize, reduce,
    then pull magnitudes down by powers of two."""
    m, n = len(rows), len(rows[0])
    ints, _ = _rows_as_scaled_ints(rows)
    for j in range(n):
        g = 0
        for i in range(m):
            g = math.gcd(g, ints[i][j])
        if g > 1:
            for i in range(m):
                ints[i][j] //= g
    out: Rows = []
    for r in ints:
        g = 0
        for x in r:
            g = math.gcd(g, x)
        if g > 1:
            r = [x // g for x in r]
        out.append([Fraction(x) for x in r])
    # scale rows then columns into a moderate magnitude band
    for i in range(m):
        top = max(abs(x) for x in out[i])
        if top > 64:
            s = Fraction(1, 2 ** (top.numerator.bit_length() - 6))
            out[i] = [x * s for x in out[i]]
    for j in range(n):
        top = max(abs(out[i][j]) for i in range(m))
        if top > 64:
            s = Fraction(1, 2 ** ((top.numerator // top.denominator).bit_length() - 6))
            for i in range(m):
                out[i][j] *= s
    return out


def _entry_windows(ints: Sequence[Sequence[int]], i: int, j: int, k: int) -> Iterator[tuple[int, int, int]]:
    """``(s, W, C)`` for every window of sizes 1..k through entry (i, j) of the
    integer rows, by size, then rows and columns lexicographic: W the window's
    minor and C the entry's signed coefficient in it, (-1)^(p+q) times the minor
    without row i and column j (p, q their positions in the window; the size-0
    minor is 1).  Both are read from :func:`_int_minor_levels`, W at level s and
    C at level s - 1, at the deletion positions :func:`_condensation_sets` lists.
    """
    levels = _int_minor_levels(ints, k)
    below = next(levels)
    yield 1, below[i][j], 1
    for s, level in enumerate(levels, 2):
        col_sets = _condensation_sets(len(ints[0]), s)
        cols = [(at, cidx.index(j), cdels) for at, (cidx, *_, cdels) in enumerate(col_sets) if j in cidx]
        for values, (ridx, *_, rdels) in zip(level, _condensation_sets(len(ints), s)):
            if i in ridx:
                p = ridx.index(i)
                cofactors = below[rdels[p]]
                for at, q, cdels in cols:
                    c = cofactors[cdels[q]]
                    yield s, values[at], -c if (p + q) % 2 else c
        below = level


def _corner_bounds(ints: list[list[int]]) -> tuple[int, int, int, int] | None:
    """``(W, Cf, corner Cf, det)`` of the integer n x n rows, n >= 2: the minor and
    corner coefficient of the proper window holding the corner with the least
    W / Cf (the first on ties, in :func:`_entry_windows` order), the corner's
    coefficient in the determinant, and the determinant; None when a
    coefficient is not positive.  A window holding the corner has it last in
    its rows and columns, so Cf is the minor without the corner's row and column.
    """
    n = len(ints)
    low = (0, 0)
    for s, w, cof in _entry_windows(ints, n - 1, n - 1, n):
        if cof <= 0:
            return None
        if s == n:
            return *low, cof, w
        if s == 1 or w * low[1] < low[0] * cof:
            low = (w, cof)
    raise InvariantError("the last level held no determinant")


def _tn_square_rows(n: int, rng: random.Random, tries: int = 60) -> Rows | None:
    """An n x n matrix with every minor negative, or None if unlucky.

    Each try scales the base's rows to integers once (d_i for row i).  A window
    holding the corner, with the integer minor W and the integer corner
    coefficient Cf, stays positive for corner values above
    x0 - W / (Cf * d_last), so the largest bound is the least W / Cf
    (:func:`_corner_bounds`, compared by cross-multiplication).
    """
    if n == 1:
        return [[-Fraction(rng.randint(1, 9), rng.randint(1, 4))]]
    last = n - 1
    for _ in range(tries):
        b = _random_tp_rows(n, rng)
        ints, scales = _rows_as_scaled_ints(b)
        bounds = _corner_bounds(ints)
        if bounds is None:
            continue
        w_low, cof_low, corner_cof, det_b = bounds
        if det_b <= 0 or w_low * corner_cof <= det_b * cof_low:
            continue  # some proper minor turns before the determinant does
        x0, d_last = b[last][last], scales[last]
        lower = x0 - Fraction(w_low, cof_low * d_last)
        x_det = x0 - Fraction(det_b, corner_cof * d_last)  # determinant crosses zero here
        b[last][last] = lower + (x_det - lower) * Fraction(rng.randint(2, 7), 16)
        ints, scales = _rows_as_scaled_ints(b)
        new_det = _int_minor(ints, range(n))
        if new_det >= 0:
            raise InvariantError(
                f"corner move left the determinant at {Fraction(new_det, math.prod(scales))}, not negative"
            )
        # conjugated inverse: entry (i,j) = (-1)^(i+j) * cofactor(j,i) / det = M_ji * d_j / new_det,
        # M_ji the integer minor without row j and column i
        without = [ints[:j] + ints[j + 1 :] for j in range(n)]
        inv_scaled: Rows = []
        for i in range(n):
            cols = [c for c in range(n) if c != i]
            inv_scaled.append([Fraction(_int_minor(without[j], cols) * scales[j], new_det) for j in range(n)])
        return _normalize_negative_rows(inv_scaled)
    return None


def _check_request(shape: tuple[int, int], k: int) -> None:
    """Reject an order outside [1, min(m, n)], and refuse a dimension beyond
    ``MAX_ALL_SUBMATRIX_DIM`` before anything is built: the construction and
    the certificate both read every square submatrix."""
    m, n = shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"order {k} out of range for shape {m}x{n}")
    if max(m, n) > MAX_ALL_SUBMATRIX_DIM:
        raise ResourceLimitError(f"generation refused for dimensions beyond {MAX_ALL_SUBMATRIX_DIM}")


def _certify(a: ExactMatrix, klass: str, k: int) -> str | None:
    """The certificate of a at order k (:func:`certificate_digest`) if a is in
    the class at full order, else None, from one condensation sweep: the
    minor definition reads each level, and a level up to k is digested once
    the definition has read it, so a level that fails it is not digested."""
    h = hashlib.sha256()

    def digested(levels: Iterator[Sequence[Sequence[int]]]) -> Iterator[Sequence[Sequence[int]]]:
        for size, level in enumerate(levels, 1):
            yield level
            if size <= k:
                _digest_level(h.update, a, size, level)

    query = ClassQuery(klass, min(a.rows, a.cols))
    levels = digested(_int_minor_levels(a.integer_rows[0], query.order))
    return h.hexdigest() if check_by_minor_definition(a, query, levels).holds else None


def generate_tn(shape: tuple[int, int], k: int, seed: int, budget: int = 2000) -> GeneratedInstance:
    """A matrix totally negative of order k, certified by full minor enumeration."""
    _check_request(shape, k)
    m, n = shape
    rng = random.Random(seed)
    size = max(m, n)
    for attempt in range(1, budget + 1):
        rows = _tn_square_rows(size, rng)
        if rows is None:
            continue
        ridx = sorted(rng.sample(range(size), m))
        cidx = sorted(rng.sample(range(size), n))
        a = ExactMatrix.from_rows(_sub_rows(rows, ridx, cidx))
        if max(abs(e) for e in a.entries) > 10**8:
            continue
        certificate = _certify(a, TN, k)
        if certificate is not None:
            return GeneratedInstance(a, TN, k, seed, attempt, certificate)
    raise ResourceLimitError(f"no totally negative instance found in {budget} attempts")


def _dup_adjacent(rows: Rows, index: int, axis: int) -> Rows:
    if axis == 0:
        return rows[: index + 1] + [list(rows[index])] + rows[index + 1 :]
    return [r[: index + 1] + [r[index]] + r[index + 1 :] for r in rows]


def _insert_zero(rows: Rows, index: int, axis: int) -> Rows:
    if axis == 0:
        zero = [Fraction(0)] * len(rows[0])
        return rows[:index] + [zero] + rows[index:]
    return [r[:index] + [Fraction(0)] + r[index:] for r in rows]


def generate_tnp(shape: tuple[int, int], k: int, seed: int, budget: int = 2000) -> GeneratedInstance:
    """A matrix totally non-positive of order k, built by degrading a strict instance."""
    _check_request(shape, k)
    m, n = shape
    rng = random.Random(seed)
    for attempt in range(1, budget + 1):
        strategies = ["tn", "rank1"]
        if m >= 2:
            strategies += ["dup_row", "zero_row"]
        if n >= 2:
            strategies += ["dup_col", "zero_col"]
        strat = rng.choice(strategies)
        rows: Rows | None
        if strat == "tn":
            rows = _tn_square_rows(max(m, n), rng)
            if rows is not None:
                ridx = sorted(rng.sample(range(len(rows)), m))
                cidx = sorted(rng.sample(range(len(rows)), n))
                rows = _sub_rows(rows, ridx, cidx)
        elif strat == "rank1":
            u = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(m)]
            v = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
            rows = [[-ui * vj for vj in v] for ui in u]
        else:
            axis = 0 if strat.endswith("row") else 1
            base_shape = (m - 1, n) if axis == 0 else (m, n - 1)
            base = _tn_square_rows(max(base_shape), rng)
            if base is None:
                continue
            ridx = sorted(rng.sample(range(len(base)), base_shape[0]))
            cidx = sorted(rng.sample(range(len(base)), base_shape[1]))
            rows = _sub_rows(base, ridx, cidx)
            pos = rng.randrange(base_shape[axis])
            if strat.startswith("dup"):
                rows = _dup_adjacent(rows, pos, axis)
            else:
                rows = _insert_zero(rows, rng.randrange(base_shape[axis] + 1), axis)
        if rows is None:
            continue
        a = ExactMatrix.from_rows(rows)
        if max(abs(e) for e in a.entries) > 10**8:
            continue
        certificate = _certify(a, TNP, k)
        if certificate is not None:
            return GeneratedInstance(a, TNP, k, seed, attempt, certificate)
    raise ResourceLimitError(f"no totally non-positive instance found in {budget} attempts")


def generate_near_miss(shape: tuple[int, int], k: int, seed: int, budget: int = 4000) -> GeneratedInstance:
    """An entrywise-negative matrix violating order-k total negativity at one minor.

    Built by sliding a single entry of a certified instance to just past the
    first minor's sign crossing (for k = 1, one entry is zeroed instead).
    """
    _check_request(shape, k)
    m, n = shape
    rng = random.Random(seed)
    for attempt in range(1, budget + 1):
        # the base is certified at full order whatever its order; order 1 keeps
        # its unused certificate to the entries
        base = generate_tn(shape, 1, rng.randrange(2**30))
        rows = base.matrix.row_list()
        if k == 1:
            i, j = rng.randrange(m), rng.randrange(n)
            rows[i][j] = Fraction(0)
            a = ExactMatrix.from_rows(rows)
            bad = [rec for rec in minors_up_to(a, k) if rec.value >= 0]
            if len(bad) == 1:
                return GeneratedInstance(a, "near_miss", k, seed, attempt, certificate_digest(a, k))
            continue
        i, j = rng.randrange(m), rng.randrange(n)
        x0 = rows[i][j]
        # A window holding (i, j) has the minor W / d(R) and the entry's coefficient
        # C / d(R minus row i), W and C from the scaled rows' condensation levels
        # (_entry_windows); the minor is zero at x0 - W / (C * d_i).
        ints, scales = _rows_as_scaled_ints(rows)
        crossings: list[Fraction] = []
        for _, w, c in _entry_windows(ints, i, j, k):
            if c:
                root = x0 - Fraction(w, c * scales[i])
                if x0 < root < 0:
                    crossings.append(root)
        if not crossings:
            continue
        crossings.sort()
        first = crossings[0]
        nxt = min([c for c in crossings if c > first] + [Fraction(0)])
        target = (first + nxt) / 2
        if not x0 < target < 0:
            continue
        rows[i][j] = target
        a = ExactMatrix.from_rows(rows)
        if a.first_entry_violating(strict=True) is not None:
            continue
        bad = [rec for rec in minors_up_to(a, k) if rec.value >= 0]
        if len(bad) == 1:
            return GeneratedInstance(a, "near_miss", k, seed, attempt, certificate_digest(a, k))
    raise ResourceLimitError(f"no near-miss instance found in {budget} attempts")


def random_rational_matrix(
    shape: tuple[int, int], seed: int, style: str = "any"
) -> ExactMatrix:
    """Random small-rational matrix; styles: any, negative, nonpositive."""
    rng = random.Random(seed)
    m, n = shape
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            mag = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            if style == "negative":
                row.append(-mag)
            elif style == "nonpositive":
                row.append(Fraction(0) if rng.random() < 0.2 else -mag)
            else:
                roll = rng.random()
                if roll < 0.1:
                    row.append(Fraction(0))
                elif roll < 0.75:
                    row.append(-mag)
                else:
                    row.append(mag)
        rows.append(row)
    return ExactMatrix.from_rows(rows)


@dataclass(frozen=True)
class MethodOutcome:
    name: str
    holds: bool
    witness: Violation | None
    elapsed_ms: float


#: A decision procedure of one class, given the query and the test coefficients.
Procedure = Callable[[ExactMatrix, ClassQuery, AlphaChoice | None], Verdict]


def _strict_class_only(a: ExactMatrix, query: ClassQuery, alpha: AlphaChoice | None) -> Verdict:
    raise ValueError("the complementarity test decides the strict class only; use --method all for tnp")


#: The one map from (class, method) to the procedure deciding it.  Each entry
#: looks its procedure up in this module when it runs.
_PROCEDURES: dict[str, dict[str, Procedure]] = {
    TN: {
        "minors": lambda a, q, alpha: check_by_minor_definition(a, q),
        "contiguous": lambda a, q, alpha: check_by_contiguous_minors(a, q),
        "snr": lambda a, q, alpha: check_tn_snr_single_vector(a, q.order, alpha),
        "vd": lambda a, q, alpha: check_tn_vd_single_vector(a, alpha, k=q.order),
        "lcp": lambda a, q, alpha: lcp_single_vector_check(a, q.order),
    },
    TNP: {
        "minors": lambda a, q, alpha: check_by_minor_definition(a, q),
        "contiguous": lambda a, q, alpha: check_by_contiguous_minors(a, q),
        "snr": lambda a, q, alpha: check_tnp_snr(a, q.order, alpha=alpha),
        "vd": lambda a, q, alpha: check_tnp_vd(a, alpha=alpha, k=q.order),
        "lcp": _strict_class_only,
    },
}

#: Each class's ``--method all`` list, in report order.  For the non-positive
#: class the contiguous reduction is only necessary, so it is left out, and the
#: complementarity condition is one-directional, so it runs after the list.
#: ``snr`` and ``vd`` judge the same test vectors, so one sweep decides both.
_ALL_METHODS = {TN: ("minors", "contiguous", "snr", "vd", "lcp"), TNP: ("minors", "snr", "vd")}


def run_method(a: ExactMatrix, cls: str, k: int, method: str, alpha: AlphaChoice | None = None) -> MethodOutcome:
    """Decide class ``cls`` at order k by the procedure named ``method``, timed; a minor
    enumeration past ``MAX_ALL_SUBMATRIX_DIM`` is refused before it starts, as in ``--method all``."""
    query = ClassQuery(cls, k)
    procedure = _PROCEDURES[query.matrix_class].get(method)
    if procedure is None:
        raise ValueError(f"unknown method {method}")
    if method == "minors" or (cls, method) == (TNP, "contiguous"):  # tnp contiguous is the minor definition
        check_order(a, k)
        check_all_window_dims(a)
    start = time.perf_counter()
    verdict = procedure(a, query, alpha)
    elapsed = (time.perf_counter() - start) * 1000
    return MethodOutcome(verdict.method, verdict.holds, verdict.witness, elapsed)


def _single_vector_outcomes(a: ExactMatrix, cls: str, k: int, alpha: AlphaChoice | None) -> list[MethodOutcome]:
    """The class's ``snr`` and ``vd`` outcomes from one test-vector sweep, each
    timed from the sweep's start until its verdict was decided."""
    methods = [m for m, (c, _, _) in SINGLE_VECTOR.items() if c == cls]
    start = time.perf_counter()
    decided = _single_vector_check(a, k, alpha, methods)
    return [MethodOutcome(v.method, v.holds, v.witness, (t - start) * 1000) for v, t in decided]


@dataclass(frozen=True)
class CrossValidationReport:
    """One class's ``--method all`` outcomes at one order, and whether they agree."""

    order: int
    methods: tuple[MethodOutcome, ...]
    agree: bool
    #: the non-positive class's one-directional complementarity status
    lcp_status: str | None = None

    @property
    def holds(self) -> bool:
        """The class verdict: the procedures agree and the minor definition holds."""
        return self.agree and self.methods[0].holds


def cross_validate(a: ExactMatrix, k: int, cls: str, alpha: AlphaChoice | None = None) -> CrossValidationReport:
    """Run every decision procedure of class ``cls`` at order k and compare the verdicts.

    The procedures must agree exactly, and the non-positive class's
    one-directional complementarity condition must not certify a matrix its
    minor definition rejects.  A dimension beyond ``MAX_ALL_SUBMATRIX_DIM`` and
    an alpha the class's tests cannot use are refused before any sweep runs.
    The non-positive tests need strictly positive alpha magnitudes, so any
    other alpha gives way to the default.
    """
    check_order(a, k)
    check_all_window_dims(a)
    if cls == TNP and alpha is not None and not alpha.strictly_positive:
        alpha = None
    check_alpha(alpha, cls, k)
    outcomes: list[MethodOutcome] = []
    for name in _ALL_METHODS[cls]:
        if name == "snr":
            outcomes += _single_vector_outcomes(a, cls, k, alpha)
        elif name != "vd":
            outcomes.append(run_method(a, cls, k, name, alpha))
    methods = tuple(outcomes)
    agree = len({m.holds for m in methods}) == 1
    if cls != TNP:
        return CrossValidationReport(k, methods, agree)
    status = tnp_lcp_sufficient_check(a, k).status
    agree = agree and (status != TnpLcpStatus.SUFFICIENT or methods[0].holds)
    return CrossValidationReport(k, methods, agree, status.value)


def certificate_digest(a: ExactMatrix, k: int) -> str:
    """Digest of the full minor enumeration at order k (the instance certificate):
    the SHA-256 of one line ``rows|cols|value`` per minor, in the order of
    :func:`minors_up_to`, each value a reduced fraction, read from
    :func:`_int_minor_levels` on the scaled rows (:func:`_digest_level`)."""
    check_order(a, k)
    h = hashlib.sha256()
    for size, level in enumerate(_int_minor_levels(a.integer_rows[0], k), 1):
        _digest_level(h.update, a, size, level)
    return h.hexdigest()


def _digest_level(update: Callable[[bytes], object], a: ExactMatrix, size: int, level: Sequence[Sequence[int]]) -> None:
    """Feed the certificate lines of one level of a's scaled minors to a hash's
    ``update``, once per row set."""
    scales = a.integer_rows[1]
    col_sets = [f"{_one_based(cidx)}|" for cidx in itertools.combinations(range(a.cols), size)]
    for ridx, values in zip(itertools.combinations(range(a.rows), size), level):
        scale = row_scale(scales, ridx)
        head = f"{_one_based(ridx)}|"
        lines = []
        for cols, value in zip(col_sets, values):
            g = math.gcd(value, scale)
            num = _int_str(value // g)
            lines.append(f"{head}{cols}{num}\n" if g == scale else f"{head}{cols}{num}/{_int_str(scale // g)}\n")
        update("".join(lines).encode())

"""Interval hull members, checkerboard test matrices, and hull-wide verdicts."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totneg import (
    ClassQuery,
    ExactMatrix,
    HullVerdict,
    IntervalHull,
    ResourceLimitError,
    Verdict,
    c_plus_minus,
    check_by_minor_definition,
    hull_is_totally_negative,
    hull_is_totally_nonpositive,
    i_matrix,
)
from totneg import hull
from totneg.errors import InvariantError
from totneg.generate import generate_tn, generate_tnp
from totneg.signs import alternating_signature

from oracles import hull_contains, rohn_inequality_check, sample_member, scale


def fv(*values):
    return tuple(Fraction(v) for v in values)


@pytest.fixture(scope="module")
def pair_hull(n2):
    return IntervalHull(n2, ExactMatrix.from_rows([[-2, -3], [-3, -2]]))


def all_sign_words(n):
    return list(itertools.product((1, -1), repeat=n))


def test_i_matrix_degenerate_hull(n2):
    h = IntervalHull(n2, n2)
    for z in all_sign_words(2):
        for zt in all_sign_words(2):
            assert i_matrix(h, z, zt) == n2


def test_i_matrix_one_by_one():
    h = IntervalHull(ExactMatrix.from_rows([[-2]]), ExactMatrix.from_rows([[-4]]))
    assert i_matrix(h, (1,), (1,)).entry(1, 1) == Fraction(-4)
    assert i_matrix(h, (1,), (-1,)).entry(1, 1) == Fraction(-2)


def test_i_matrix_worked_pair(pair_hull):
    got = i_matrix(pair_hull, (1, -1), (1, -1))
    assert got == ExactMatrix.from_rows([[-2, -2], [-2, -2]])


def test_c_plus_minus_values(pair_hull, n2):
    cp, cm = c_plus_minus(pair_hull)
    assert cp == ExactMatrix.from_rows([[-2, -2], [-2, -2]])
    assert cm == ExactMatrix.from_rows([[-1, -3], [-3, -1]])
    cp2, cm2 = c_plus_minus(IntervalHull(n2, n2))
    assert cp2 == n2 and cm2 == n2
    h1 = IntervalHull(ExactMatrix.from_rows([[-2]]), ExactMatrix.from_rows([[-4]]))
    cp1, cm1 = c_plus_minus(h1)
    assert cp1.entry(1, 1) == Fraction(-4) and cm1.entry(1, 1) == Fraction(-2)


def test_checkerboard_members_take_entrywise_extremes():
    rng = random.Random(8)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        )
        b = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        )
        h = IntervalHull(a, b)
        cp, cm = c_plus_minus(h)
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                lo = min(a.entry(i, j), b.entry(i, j))
                hi = max(a.entry(i, j), b.entry(i, j))
                expect_cp = lo if (i + j) % 2 == 0 else hi
                expect_cm = hi if (i + j) % 2 == 0 else lo
                assert cp.entry(i, j) == expect_cp
                assert cm.entry(i, j) == expect_cm


def test_all_sign_word_matrices_are_members():
    rng = random.Random(12)
    for _ in range(10):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(m)]
        )
        b = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(m)]
        )
        h = IntervalHull(a, b)
        for z in all_sign_words(m):
            for zt in all_sign_words(n):
                assert hull_contains(h, i_matrix(h, z, zt))


def test_hull_tn_verdicts(pair_hull, n3):
    assert hull_is_totally_negative(IntervalHull(n3, n3), 3).holds
    v = hull_is_totally_negative(pair_hull, 2)
    assert not v.holds
    z, zt = v.failing_sign_words
    assert z == alternating_signature(2) and zt == alternating_signature(2)
    assert v.witness.detail == Fraction(0)
    assert hull_is_totally_negative(pair_hull, 1).holds


def test_hull_tn_agrees_with_exhaustive_member_check(pair_hull):
    # oracle: every sign-word member and a bag of sampled members
    for k in (1, 2):
        verdict = hull_is_totally_negative(pair_hull, k)
        oracle = all(
            check_by_minor_definition(i_matrix(pair_hull, z, zt), ClassQuery("tn", k)).holds
            for z in all_sign_words(2)
            for zt in all_sign_words(2)
        ) and all(
            check_by_minor_definition(sample_member(pair_hull, seed), ClassQuery("tn", k)).holds
            for seed in range(40)
        )
        assert verdict.holds == oracle


def test_hull_tnp_verdicts(pair_hull, zero_row_tnp):
    assert hull_is_totally_nonpositive(IntervalHull(zero_row_tnp, zero_row_tnp), 3).holds
    sweep = all(
        check_by_minor_definition(i_matrix(pair_hull, z, zt), ClassQuery("tnp", 2)).holds
        for z in all_sign_words(2)
        for zt in all_sign_words(2)
    )
    assert hull_is_totally_nonpositive(pair_hull, 2).holds == sweep
    zero = ExactMatrix.from_rows([[0, 0], [0, 0]])
    assert hull_is_totally_nonpositive(IntervalHull(zero, zero), 2).holds


def test_hull_tnp_failing_witness_is_a_member(n2):
    b = ExactMatrix.from_rows([[-2, 1], [-3, -2]])
    h = IntervalHull(n2, b)
    v = hull_is_totally_nonpositive(h, 2)
    assert not v.holds
    z, zt = v.failing_sign_words
    member = i_matrix(h, z, zt)
    assert hull_contains(h, member)
    assert not check_by_minor_definition(member, ClassQuery("tnp", 2)).holds


def test_hull_sweep_cap():
    big = ExactMatrix.from_rows([[0] * 13 for _ in range(13)])
    with pytest.raises(ResourceLimitError):
        hull_is_totally_nonpositive(IntervalHull(big, big), 1)


def test_sample_member_is_deterministic_and_contained(pair_hull):
    first = sample_member(pair_hull, 123)
    again = sample_member(pair_hull, 123)
    assert first == again
    assert hull_contains(pair_hull, first)
    assert hull_contains(pair_hull, pair_hull.a) and hull_contains(pair_hull, pair_hull.b)
    mid = scale(pair_hull.a.add(pair_hull.b), Fraction(1, 2))
    assert hull_contains(pair_hull, mid)
    # each entry is the mixture t * a + (1 - t) * b of the same two draws
    rational_hull = IntervalHull(
        ExactMatrix.from_rows([["-1/3", "5/2", 0], ["-7/4", "-2", "3/8"]]),
        ExactMatrix.from_rows([["-2/5", "-3", "1/6"], ["-9/4", "-1/6", "3/8"]]),
    )
    for h in (pair_hull, rational_hull):
        for seed in (0, 1, 123, 4096, 99_991):
            rng = random.Random(seed)
            mixed = []
            for a, b in zip(h.a.entries, h.b.entries):
                den = rng.randint(1, 16)
                t = Fraction(rng.randint(0, den), den)
                mixed.append(t * a + (1 - t) * b)
            assert sample_member(h, seed).entries == tuple(mixed)


def test_rohn_comparison_trivial_cases(n2):
    h = IntervalHull(n2, n2)
    assert rohn_inequality_check(h, n2, fv(1, -2))
    assert rohn_inequality_check(h, n2, fv(0, 0))


def test_rohn_comparison_random_instances():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        b = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        h = IntervalHull(a, b)
        c = sample_member(h, rng.randrange(10**6))
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n))
        assert rohn_inequality_check(h, c, x)


def test_rohn_rejects_non_members(n2):
    h = IntervalHull(n2, n2)
    outsider = ExactMatrix.from_rows([[5, 0], [0, 5]])
    with pytest.raises(ValueError):
        rohn_inequality_check(h, outsider, fv(1, 1))


def test_hull_shape_validation(n2, n3):
    with pytest.raises(Exception):
        IntervalHull(n2, n3)
    with pytest.raises(ValueError):
        hull_is_totally_negative(IntervalHull(n2, n2), 0)


def member_by_member_tnp(h, k):
    """Every sign-word member (A+B)/2 - D_z |A-B|/2 D_zt checked in turn, in
    Gray-code order: the sweep hull_is_totally_nonpositive made before it
    decided one minor per window, kept as the reference."""
    m, n = h.shape
    half = Fraction(1, 2)
    for idx in range(1 << (m + n)):
        g = idx ^ (idx >> 1)
        bits = [1 if (g >> p) & 1 == 0 else -1 for p in range(m + n)]
        z, zt = tuple(bits[:m]), tuple(bits[m:])
        flat = []
        for i in range(m):
            for j in range(n):
                a, b = h.a.entries[i * n + j], h.b.entries[i * n + j]
                flat.append((a + b) * half - z[i] * zt[j] * abs(a - b) * half)
        verdict = check_by_minor_definition(ExactMatrix(m, n, tuple(flat)), ClassQuery("tnp", k))
        if not verdict.holds:
            return HullVerdict(False, "hull_tnp", (z, zt), verdict.witness)
    return HullVerdict(True, "hull_tnp")


@st.composite
def hulls(draw):
    """1x1 to 4x4, 2x5 and 5x2: one endpoint random (zero entries, mixed
    denominators) or a generated tn or tnp matrix; the other the same matrix
    (A = B) or one moved entrywise by at most 1/4, capped at 0; in either order."""
    m, n = draw(st.sampled_from([(m, n) for m in range(1, 5) for n in range(1, 5)] + [(2, 5), (5, 2)]))
    kind = draw(st.sampled_from(["random", "tn", "tnp"]))
    if kind == "random":
        entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=2, max_denominator=6))
        a = ExactMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))
    else:
        generator = generate_tn if kind == "tn" else generate_tnp
        a = generator((m, n), min(m, n), seed=draw(st.integers(0, 40))).matrix
    b = a
    if draw(st.booleans()):
        step = st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4), max_denominator=64)
        steps = draw(st.lists(step, min_size=m * n, max_size=m * n))
        b = ExactMatrix(m, n, tuple(min(x + d, Fraction(0)) for x, d in zip(a.entries, steps)))
    return IntervalHull(b, a) if draw(st.booleans()) else IntervalHull(a, b)


@settings(max_examples=80, deadline=None)
@given(hulls())
def test_tnp_hull_verdicts_match_the_member_sweep(h):
    """Holds, failing sign words and witness agree with the member-by-member sweep at every order."""
    for k in range(1, min(h.shape) + 1):
        assert hull_is_totally_nonpositive(h, k) == member_by_member_tnp(h, k)


def bumped_tn_hull(shape):
    """A holding TNP hull: a generated tn matrix and the same matrix moved up by at most 4/10^6."""
    m, n = shape
    a = generate_tn(shape, min(shape), seed=0).matrix
    rng = random.Random(0)
    bump = ExactMatrix.from_rows([[Fraction(rng.randint(0, 4), 10**6) for _ in range(n)] for _ in range(m)])
    return IntervalHull(a, a.add(bump))


def test_holding_tnp_hull_builds_no_member(monkeypatch):
    h = bumped_tn_hull((5, 5))

    def refuse(*args):
        raise AssertionError("i_matrix called")

    monkeypatch.setattr(hull, "i_matrix", refuse)
    assert hull_is_totally_nonpositive(h, 5).holds  # 2^10 members, none built


@pytest.mark.parametrize("shape", [(5, 5), (3, 6), (4, 2)])
def test_holding_tnp_hull_reads_one_minor_per_window(monkeypatch, shape):
    """At full order the decision eliminates once per window of size 2..k, sum_s C(m,s) C(n,s)
    minors, on integer-scaled rows though the bounds have denominators, and builds no member."""
    m, n = shape
    h = bumped_tn_hull(shape)
    assert any(v.denominator > 1 for v in h.bounds[1])
    eliminate, calls = hull.det_of_rows, []

    def refuse(*args):
        raise AssertionError("i_matrix called")

    monkeypatch.setattr(hull, "det_of_rows", lambda rows: calls.append(rows) or eliminate(rows))
    monkeypatch.setattr(hull, "i_matrix", refuse)
    assert hull_is_totally_nonpositive(h, min(shape)).holds
    assert len(calls) == sum(math.comb(m, s) * math.comb(n, s) for s in range(2, min(shape) + 1))
    assert all(type(v) is int for rows in calls for row in rows for v in row)


@st.composite
def straddling_hulls(draw):
    """1x1 to 4x4, 2x5 and 5x2 hulls: one endpoint random in [-3, 1] (zero entries, mixed
    denominators), the other moved entrywise by at most 2, so many intervals straddle 0;
    in half of them both endpoints are capped at 0, so that the decision is not settled
    by a positive entry."""
    m, n = draw(st.sampled_from([(m, n) for m in range(1, 5) for n in range(1, 5)] + [(2, 5), (5, 2)]))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=1, max_denominator=6))
    a = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    steps = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=8), min_size=m * n, max_size=m * n))
    b = [x + d for x, d in zip(a, steps)]
    if draw(st.booleans()):
        a, b = [min(x, Fraction(0)) for x in a], [min(x, Fraction(0)) for x in b]
    return IntervalHull(ExactMatrix(m, n, tuple(a)), ExactMatrix(m, n, tuple(b)))


@settings(max_examples=80, deadline=None)
@given(straddling_hulls())
def test_tnp_hull_decision_matches_the_member_sweep_on_straddling_hulls(h):
    """One minor per window decides as every sign-word member does, at every order."""
    for k in range(1, min(h.shape) + 1):
        assert hull._some_member_has_a_positive_minor(h, k) == (not member_by_member_tnp(h, k).holds)


def test_two_checkerboard_members_do_not_decide_a_tnp_hull():
    """Both C+- members are TNP_2, since their rows-{1, 3} minor is 0, yet the hull is not."""
    a = ExactMatrix.from_rows([[-2, -2], [0, 0], [-2, -2]])
    b = ExactMatrix.from_rows([[-1, -1], [0, 0], [-1, -1]])
    h = IntervalHull(a, b)
    for member in c_plus_minus(h):
        assert check_by_minor_definition(member, ClassQuery("tnp", 2)).holds
    v = hull_is_totally_nonpositive(h, 2)
    assert not v.holds
    assert v.failing_sign_words == ((-1, -1, 1), (-1, 1))
    assert (v.witness.rows, v.witness.cols, v.witness.detail) == ((1, 3), (1, 2), Fraction(3))


def test_failing_decision_with_no_failing_member_is_an_invariant_error(monkeypatch, n2):
    h = IntervalHull(n2, ExactMatrix.from_rows([[-2, 1], [-3, -2]]))
    assert not hull_is_totally_nonpositive(h, 2).holds
    monkeypatch.setattr(hull, "check_by_minor_definition", lambda a, q: Verdict(True, "minor_definition"))
    with pytest.raises(InvariantError):
        hull_is_totally_nonpositive(h, 2)

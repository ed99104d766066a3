"""Characterization checks: frozen worked examples plus structural identities."""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totneg import (
    AlphaChoice,
    ClassQuery,
    ExactMatrix,
    ViolationKind,
    adjugate,
    check_by_contiguous_minors,
    check_by_minor_definition,
    check_tn_snr_single_vector,
    check_tn_vd_single_vector,
    check_tnp_snr,
    check_tnp_vd,
    contiguous_minors_up_to,
    det,
    minors_up_to,
    is_alternating_orthant,
    sign_non_reversal,
    submatrix,
    vd_check,
)
from totneg import checks as checks_module
from totneg import hull as hull_module
from totneg import lcp as lcp_module
from totneg import matrix as matrix_module
from totneg.generate import (
    certificate_digest,
    cross_validate,
    generate_near_miss,
    generate_tn,
    generate_tnp,
    random_rational_matrix,
)
from totneg.lcp import MinorTable, TnpLcpStatus, _bits, tnp_lcp_sufficient_check

from oracles import (
    adjugate_numerators,
    built_tables,
    check_tn_snr_all_vectors,
    check_tnp_snr_sampled,
    check_tnp_vd_sampled,
    identity,
    levels_drawn,
    masks,
    rank_deficient_nonpositive,
    reference_minor_definition,
    reference_minors_up_to,
    reference_tnp_single_vector,
    solver_tnp_sufficient_check,
    stored_minors,
    transpose,
)

TN2 = ClassQuery("tn", 2)
TN3 = ClassQuery("tn", 3)


def fv(*values):
    return tuple(Fraction(v) for v in values)


def test_minor_definition_examples(n2, near_miss, zero_row_tnp):
    assert check_by_minor_definition(n2, TN2).holds
    v = check_by_minor_definition(near_miss, TN2)
    assert not v.holds
    assert v.witness.kind is ViolationKind.NONNEGATIVE_MINOR
    assert v.witness.rows == (1, 2) and v.witness.detail == Fraction(1)
    assert check_by_minor_definition(zero_row_tnp, ClassQuery("tnp", 3)).holds
    assert not check_by_minor_definition(zero_row_tnp, TN3).holds


def test_contiguous_examples(n3):
    assert check_by_contiguous_minors(n3, TN3).holds
    one = ExactMatrix.from_rows([[-5]])
    assert check_by_contiguous_minors(one, ClassQuery("tn", 1)).holds


def test_contiguous_agrees_with_full_enumeration_on_random_matrices():
    rng = random.Random(314)
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = ExactMatrix.from_rows(
            [[-Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        )
        for k in range(1, min(m, n) + 1):
            q = ClassQuery("tn", k)
            assert check_by_contiguous_minors(a, q).holds == check_by_minor_definition(a, q).holds


def test_tnp_mode_delegates_to_full_minors(zero_row_tnp):
    v = check_by_contiguous_minors(zero_row_tnp, ClassQuery("tnp", 3))
    assert v.holds and v.method == "minor_definition"


def test_sign_non_reversal_examples(n2, near_miss):
    assert sign_non_reversal(n2, fv(-3, 3), strict=True) == (True, 1)
    assert sign_non_reversal(near_miss, fv(-7, 3), strict=True) == (False, None)
    assert sign_non_reversal(identity(2), fv(1, 1), strict=True) == (True, 1)
    with pytest.raises(ValueError):
        sign_non_reversal(n2, fv(0, 0), strict=True)


def test_snr_single_vector_examples(n2, n3, near_miss):
    assert check_tn_snr_single_vector(n3, 3).holds
    v = check_tn_snr_single_vector(near_miss, 2)
    assert not v.holds
    assert v.witness.kind is ViolationKind.SIGN_REVERSAL
    assert v.witness.vector == fv(-7, 3)
    # a zero magnitude is allowed as long as the pattern stays nonzero
    assert check_tn_snr_single_vector(n2, 2, AlphaChoice.of([1, 0])).holds


def test_snr_single_vector_rejects_nonnegative_entry_first():
    a = ExactMatrix.from_rows([[-1, 0], [-2, -1]])
    v = check_tn_snr_single_vector(a, 2)
    assert not v.holds
    assert v.witness.kind is ViolationKind.NONNEGATIVE_MINOR
    assert v.witness.rows == (1,) and v.witness.cols == (2,)


def test_snr_all_vectors_examples(n2, near_miss):
    assert check_tn_snr_all_vectors(n2, 2, mode="contiguous_alt", trials=8, seed=0).holds
    v = check_tn_snr_all_vectors(near_miss, 2, mode="all_submatrices_pn", trials=400, seed=5)
    assert not v.holds
    assert v.witness.kind is ViolationKind.SIGN_REVERSAL
    one = ExactMatrix.from_rows([[-4]])
    with pytest.raises(ValueError):
        check_tn_snr_all_vectors(one, 2)


def test_vd_check_examples(n2):
    sat, _, _ = vd_check(n2, fv(1, -1))
    assert sat
    sat, pin, pout = vd_check(n2, fv(-3, 3))
    assert sat and pin.s_minus == 1 and pout.s_plus == 1
    with pytest.raises(ValueError):
        vd_check(identity(2), fv(1, 1))


def test_vd_single_vector_examples(n3, near_miss):
    assert check_tn_vd_single_vector(n3).holds
    v = check_tn_vd_single_vector(near_miss)
    assert not v.holds
    assert v.witness.kind is ViolationKind.EQUALITY_SIGN_CLAUSE
    singular = ExactMatrix.from_rows([[-1, -1], [-1, -1]])
    v2 = check_tn_vd_single_vector(singular)
    assert not v2.holds
    assert v2.witness.kind is ViolationKind.VARIATION_INCREASE
    assert v2.witness.vector == fv(-2, 2)


def test_test_vector_lies_in_alternating_orthant_with_exact_image(n3):
    alpha = AlphaChoice.of([1, "1/2", 3])
    for r in (2, 3):
        alpha_vec = alpha.realized(r)
        for i0 in range(3 - r + 1):
            for j0 in range(3 - r + 1):
                sub = submatrix(n3, tuple(range(i0 + 1, i0 + r + 1)), tuple(range(j0 + 1, j0 + r + 1)))
                x = adjugate(sub).matvec(alpha_vec)
                assert is_alternating_orthant(x)
                image = sub.matvec(x)
                d = det(sub)
                assert image == tuple(d * v for v in alpha_vec)


def test_alpha_choice_validation():
    with pytest.raises(ValueError):
        AlphaChoice.of([])
    with pytest.raises(ValueError):
        AlphaChoice.of([0, 0])
    with pytest.raises(ValueError):
        AlphaChoice.of([-1, 2])
    with pytest.raises(ValueError):
        AlphaChoice.of([1], global_sign=2)
    assert AlphaChoice.of([1, 0]).realized(3) == fv(1, 0, 1)
    assert AlphaChoice.of([1], global_sign=-1).realized(2) == fv(-1, 1)


def test_alpha_invariance_spot_check(n3, near_miss):
    rng = random.Random(21)
    for _ in range(10):
        mags = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        if not any(mags):
            mags[0] = Fraction(1)
        alpha = AlphaChoice.of(mags, global_sign=rng.choice((1, -1)))
        assert check_tn_snr_single_vector(n3, 3, alpha).holds
        assert not check_tn_snr_single_vector(near_miss, 2, alpha).holds
        assert check_tn_vd_single_vector(n3, alpha).holds


def test_order_monotonicity(near_miss):
    # fails at order 2 but holds at order 1 (entries negative)
    assert check_tn_snr_single_vector(near_miss, 1).holds
    assert not check_tn_snr_single_vector(near_miss, 2).holds
    assert check_by_minor_definition(near_miss, ClassQuery("tn", 1)).holds


def test_tnp_snr_examples(n3, near_miss, zero_row_tnp):
    assert check_tnp_snr(zero_row_tnp, 3).holds
    assert check_tnp_snr(n3, 3).holds  # strict class sits inside the weak one
    v = check_tnp_snr(near_miss, 2)
    assert not v.holds and v.witness.kind is ViolationKind.SIGN_REVERSAL


def test_tnp_snr_alpha_must_be_strictly_positive(zero_row_tnp):
    with pytest.raises(ValueError):
        check_tnp_snr(zero_row_tnp, 3, alpha=AlphaChoice.of([1, 0]))


def test_tnp_snr_entry_precondition():
    a = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    v = check_tnp_snr(a, 2)
    assert not v.holds
    assert v.witness.kind is ViolationKind.POSITIVE_MINOR
    assert v.witness.rows == (1,) and v.witness.cols == (2,)


def test_tnp_vd_examples(near_miss, zero_row_tnp):
    assert check_tnp_vd(zero_row_tnp).holds
    zero = ExactMatrix.from_rows([[0, 0], [0, 0]])
    assert check_tnp_vd(zero).holds
    assert not check_tnp_vd(near_miss).holds


def test_tnp_falsifier_modes(zero_row_tnp, near_miss):
    assert check_tnp_snr_sampled(zero_row_tnp, 3, mode="all_pn", trials=6, seed=2).holds
    assert check_tnp_snr_sampled(zero_row_tnp, 3, mode="all_alt", trials=6, seed=2).holds
    assert not check_tnp_snr_sampled(near_miss, 2, mode="all_pn", trials=200, seed=5).holds
    assert check_tnp_vd_sampled(zero_row_tnp, trials=40, seed=3).holds


def test_verdict_agreement_on_weak_class_families(zero_row_tnp):
    queries = [ClassQuery("tnp", k) for k in (1, 2, 3)]
    for q in queries:
        expect = check_by_minor_definition(zero_row_tnp, q).holds
        assert check_tnp_snr(zero_row_tnp, q.order).holds == expect
        assert check_tnp_vd(zero_row_tnp, k=q.order).holds == expect


def test_first_violation_size_is_consistent(near_miss):
    # all procedures place the first failure at size 2
    for verdict in (
        check_by_minor_definition(near_miss, TN2),
        check_by_contiguous_minors(near_miss, TN2),
        check_tn_snr_single_vector(near_miss, 2),
        check_tn_vd_single_vector(near_miss),
    ):
        assert not verdict.holds and verdict.witness.size == 2


def test_order_validation(n3):
    with pytest.raises(ValueError):
        check_tn_snr_single_vector(n3, 4)
    with pytest.raises(ValueError):
        check_by_minor_definition(n3, ClassQuery("tn", 4))
    with pytest.raises(ValueError):
        ClassQuery("tn", 0)
    with pytest.raises(ValueError):
        ClassQuery("positive", 1)


def test_single_vector_witnesses_equal_the_adjugate_product():
    """Table-built witness vectors are exactly adj(S) @ alpha, also for a
    non-default alpha with fractional magnitudes and a negative global sign."""
    rng = random.Random(77)
    alphas = (AlphaChoice.of(["2/3", "5/7", 3], global_sign=-1), AlphaChoice.of([1, "1/2"]))
    mats = [
        random_rational_matrix((m, n), rng.randrange(10**6), "negative")
        for m in range(2, 5)
        for n in range(2, 5)
        for _ in range(4)
    ]
    mats += [generate_near_miss((3, 3), 3, seed=s).matrix for s in range(3)]
    # row 3 = 6 * row 2 - 2 * row 1: every contiguous 2x2 minor is negative, and the
    # 3x3 window fails while singular, so its vector comes from the deletion minors
    mats.append(ExactMatrix.from_rows([[-3, -1, -6], ["-2", "-1/2", "-5/2"], [-6, -1, -3]]))
    seen = 0
    for a in mats:
        k = min(a.rows, a.cols)
        for alpha in alphas:
            verdicts = (
                check_tn_snr_single_vector(a, k, alpha),
                check_tn_vd_single_vector(a, alpha, k=k),
                check_tnp_snr(a, k, alpha=alpha),
                check_tnp_vd(a, alpha=alpha, k=k),
            )
            for verdict in verdicts:
                w = verdict.witness
                if w is None or w.vector is None:
                    continue
                sub = submatrix(a, w.rows, w.cols)
                assert w.vector == adjugate(sub).matvec(alpha.realized(len(w.rows)))
                seen += 1
    assert seen > 40


def test_failing_entry_builds_no_minor_level_above_one(monkeypatch):
    a = ExactMatrix.from_rows([[1, -2, -3], [-2, -3, -5], [-3, -5, -6]])
    q3 = ClassQuery("tn", 3)
    with built_tables() as tables:
        assert not check_by_minor_definition(a, q3).holds
        assert not check_by_contiguous_minors(a, q3).holds
        assert not check_tn_snr_single_vector(a, 3).holds
        assert not check_tn_vd_single_vector(a).holds
        assert not check_tnp_snr(a, 3).holds
        assert not check_tnp_vd(a).holds
        assert not any(cross_validate(a, 3, cls).holds for cls in ("tn", "tnp"))
    assert all(levels_drawn(table) <= 1 for _, table in tables)
    # a sweep that fails at size 2 condenses nothing above size 2, and the minor
    # definition reads the sweep itself, so it builds no minor table
    built = []
    real = matrix_module._condensed_rows
    monkeypatch.setattr(matrix_module, "_condensed_rows", lambda ints, s, *rest: built.append(s) or real(ints, s, *rest))
    b = ExactMatrix.from_rows([[-1, -2, -3], [-2, -5, -5], [-3, -5, -6]])
    with built_tables() as tables:
        assert check_by_minor_definition(b, q3).witness.size == 2
    assert built == [2]
    assert not tables


def test_the_minor_definition_and_a_failing_tnp_hulls_member_sweep_build_no_minor_table(monkeypatch):
    """The minor definition reads the condensation sweep itself: on holding and
    failing inputs of both classes, in generation's check of its instances, and
    for every member that a failing TNP hull sweeps to name its witness, no
    minor table is built."""
    members = []
    real = hull_module.i_matrix
    monkeypatch.setattr(hull_module, "i_matrix", lambda *args: members.append(real(*args)) or members[-1])
    with built_tables() as tables:
        tn = generate_tn((5, 5), 5, seed=1).matrix
        tnp = generate_tnp((6, 6), 6, seed=1).matrix
        near = generate_near_miss((5, 5), 5, seed=2).matrix
        for a in (tn, tnp, near):
            for cls in ("tn", "tnp"):
                check_by_minor_definition(a, ClassQuery(cls, min(a.shape)))
        assert not check_by_minor_definition(near, ClassQuery("tn", 5)).holds
        base = generate_tn((4, 4), 4, seed=1).matrix
        bumped = ExactMatrix(base.rows, base.cols, tuple(e + Fraction(1, 50) for e in base.entries))
        verdict = hull_module.hull_is_totally_nonpositive(hull_module.IntervalHull(base, bumped), 4)
    assert not verdict.holds and verdict.witness.size == 3
    assert len(members) == 3
    assert not tables


def _pascal_tn(n, delta):
    """delta * P - (1 + delta) * J for the symmetric Pascal matrix P: L diag(-1, delta, ..., delta) L^T
    with L lower-triangular Pascal, totally negative for delta small enough."""
    return ExactMatrix.from_rows([[delta * math.comb(i + j, i) - (1 + delta) for j in range(n)] for i in range(n)])


def test_contiguous_sweep_at_16x16_computes_each_window_once():
    a = _pascal_tn(16, Fraction(1, 2**40))
    with built_tables() as tables:
        assert all(rec.value < 0 for rec in contiguous_minors_up_to(a, 16))
        assert check_by_contiguous_minors(a, ClassQuery("tn", 16)).holds
    # each contiguous window is eliminated on the scaled rows; no minor table is built
    assert not tables


def test_contiguous_tn_sweeps_build_no_minor_table():
    """On a totally negative input, the contiguous minor check and both TN
    single-vector checks eliminate each window on the scaled rows and build no
    minor table; the rows are scaled once, for all three."""
    for base in (generate_tn((6, 6), 6, seed=0).matrix, _pascal_tn(9, Fraction(1, 2**40))):
        a = ExactMatrix(base.rows, base.cols, base.entries)  # generation scaled the rows of its own matrix
        k = min(a.shape)
        with built_tables() as tables:
            assert check_by_contiguous_minors(a, ClassQuery("tn", k)).holds
            assert check_tn_snr_single_vector(a, k).holds
            assert check_tn_vd_single_vector(a).holds
        assert not tables and "integer_rows" in a.__dict__


def test_a_singular_contiguous_window_is_solved_without_a_minor_table():
    """A totally negative 4x4 with its corner moved so that the contiguous 3x3
    window on rows and columns 2-4 is singular, every smaller contiguous minor
    staying negative: both TN single-vector tests fail there (S x = 0), with the
    test vector the oracle reads off a table's deletion minors and a Fraction
    adjugate gives, and neither builds a minor table."""
    rows = generate_tn((4, 4), 4, seed=0).matrix.row_list()
    base = ExactMatrix.from_rows(rows)
    rows[3][3] -= det(submatrix(base, (2, 3, 4), (2, 3, 4))) / det(submatrix(base, (2, 3), (2, 3)))
    singular = ExactMatrix.from_rows(rows)
    window = ((1, 2, 3), (1, 2, 3))
    for alpha in (None, AlphaChoice.of(["1/2", 3], global_sign=-1)):
        realized = (alpha or AlphaChoice.of([1])).realized(3)
        lcm = math.lcm(*(v.denominator for v in realized))
        table = MinorTable(singular)
        numerators = adjugate_numerators(table, *window, [int(v * lcm) for v in realized])
        expected = tuple(Fraction(v, lcm * table.scale(window[0])) for v in numerators)
        assert expected == adjugate(submatrix(singular, (2, 3, 4), (2, 3, 4))).matvec(realized)
        a = ExactMatrix(singular.rows, singular.cols, singular.entries)
        with built_tables() as tables:
            verdicts = [check_tn_snr_single_vector(a, 4, alpha), check_tn_vd_single_vector(a, alpha)]
        for verdict, kind in zip(verdicts, (ViolationKind.SIGN_REVERSAL, ViolationKind.VARIATION_INCREASE)):
            assert not verdict.holds and verdict.witness.kind is kind
            assert verdict.witness.rows == verdict.witness.cols == (2, 3, 4)
            assert verdict.witness.vector == expected
        assert not tables


def test_contiguous_minors_check_the_condensation_independently(monkeypatch):
    """A fault in the condensation (here the size-3 minor on rows and columns
    1-3 of a totally negative 5x5 with its sign flipped) fails the minor
    definition, while the contiguous check, which eliminates each window, still
    holds: ``cross_validate`` reports the disagreement."""
    real = matrix_module._condensed_rows

    def corrupted(ints, s, lower, inner):
        rows = real(ints, s, lower, inner)
        if s == 3:
            rows[0] = [-rows[0][0], *rows[0][1:]]
        return rows

    base = generate_tn((5, 5), 5, seed=0).matrix
    a = ExactMatrix(base.rows, base.cols, base.entries)
    monkeypatch.setattr(matrix_module, "_condensed_rows", corrupted)
    report = cross_validate(a, 5, "tn")
    verdicts = {m.name: m for m in report.methods}
    assert not verdicts["minor_definition"].holds
    assert verdicts["minor_definition"].witness.rows == verdicts["minor_definition"].witness.cols == (1, 2, 3)
    assert verdicts["contiguous_minors"].holds
    assert not report.agree and not report.holds


def test_single_vector_sweeps_at_12x12_hold_on_a_totally_negative_matrix():
    a = _pascal_tn(12, Fraction(1, 2**40))
    assert check_tn_snr_single_vector(a, 12).holds
    assert check_tn_vd_single_vector(a).holds
    assert check_by_contiguous_minors(transpose(a), ClassQuery("tn", 12)).holds


def test_single_vector_sweeps_at_20x20_need_no_deletion_minors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a nonsingular contiguous window needs no deletion minor or elimination")

    monkeypatch.setattr(matrix_module, "_int_minor", refuse)
    monkeypatch.setattr(matrix_module, "det_of_rows", refuse)
    a = _pascal_tn(20, Fraction(1, 2**40))
    assert check_tn_snr_single_vector(a, 20).holds
    assert check_tn_vd_single_vector(a).holds


def test_all_window_sweeps_at_7x7_read_the_level_sweep(monkeypatch):
    """The all-window TNP and minor sweeps take every window from the
    condensation levels: no per-window solve and no per-minor elimination."""

    def refuse(*args, **kwargs):
        raise AssertionError("an all-window sweep left the level sweep")

    a = generate_tnp((7, 7), 7, seed=3).matrix
    b = ExactMatrix(a.rows, a.cols, a.entries)
    monkeypatch.setattr(checks_module, "solve_window", refuse)
    monkeypatch.setattr(matrix_module, "_int_minor", refuse)
    assert check_tnp_snr(a, 7).holds
    assert check_tnp_vd(a).holds
    assert check_by_minor_definition(a, ClassQuery("tnp", 7)).holds
    assert check_by_minor_definition(b, ClassQuery("tnp", 7)).holds
    assert check_tnp_vd(b, alpha=AlphaChoice.of(["1/2", 3], global_sign=-1)).holds


def test_zero_inner_minors_are_expanded_not_eliminated(monkeypatch, eliminations):
    """The singular 6x6 TNP instance (seed 0, rank 5) has minors whose inner
    minor is 0 on levels that the sweep condenses; each is expanded over the
    level below, so the certificate, the sign non-reversal sweep and the minor
    definition eliminate none, and a lookup after a fill reads the stored
    level.  (The rank-one instances, such as the 5x5 and 6x6 of seed 1,
    condense nothing past their all-zero level 2.)"""
    six = generate_tnp((6, 6), 6, seed=0).matrix
    scanned = ExactMatrix(six.rows, six.cols, six.entries)
    condensed = []
    real = matrix_module._condensed_rows
    monkeypatch.setattr(matrix_module, "_condensed_rows", lambda ints, s, *rest: condensed.append(s) or real(ints, s, *rest))
    eliminations.clear()
    certificate_digest(six, 6)
    assert check_tnp_snr(six, 6).holds
    assert check_by_minor_definition(scanned, ClassQuery("tnp", 6)).holds
    table = MinorTable(scanned)
    assert table.fill(6)
    assert table.minor_of_masks(*masks(range(6), range(6))) == 0
    assert eliminations == []
    assert list(minors_up_to(six, 6)) == list(reference_minors_up_to(six, 6))
    minors = {(rec.rows, rec.cols): rec.value for rec in minors_up_to(six, 6)}
    expanded = {len(rows) for rows, cols in minors if len(rows) >= 3 and minors[rows[1:-1], cols[1:-1]] == 0}
    assert expanded and expanded <= set(condensed)


positive_alphas = st.one_of(
    st.none(),
    st.builds(
        AlphaChoice,
        st.lists(st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5), min_size=1, max_size=3).map(tuple),
        st.sampled_from((1, -1)),
    ),
)


@pytest.mark.parametrize("cap", [lcp_module.MAX_STORED_MINORS, 30])
@settings(max_examples=60, deadline=None)
@given(rank_deficient_nonpositive(), positive_alphas, st.data())
def test_tnp_sweeps_on_rank_deficient_matrices_match_the_fraction_oracle(cap, a, alpha, data):
    """On rank-one matrices, zero rows or columns, and rows or columns repeated
    up to a positive factor, most windows are singular and the level sweep
    skips them: the TNP sign non-reversal and variation tests and
    ``cross_validate(..., "tnp")`` still give the verdicts and witnesses of the
    Fraction oracles, which judge every window, with the default and a strictly
    positive alpha.  The test-vector sweeps read the condensation levels and no
    minor table; a cap of 30 stores level 1 alone of the larger inputs, so the
    complementarity condition computes every window past it."""
    k = data.draw(st.integers(1, min(a.rows, a.cols)))
    snr = reference_tnp_single_vector(a, k, alpha or AlphaChoice.of([1]), "tnp_snr_single_vector")
    vd = reference_tnp_single_vector(a, k, alpha or AlphaChoice.of([1]), "tnp_vd_single_vector")
    minors = reference_minor_definition(a, k)
    status = solver_tnp_sufficient_check(a, k).status
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcp_module, "MAX_STORED_MINORS", cap)
        assert check_tnp_snr(ExactMatrix(a.rows, a.cols, a.entries), k, alpha) == snr
        assert check_tnp_vd(ExactMatrix(a.rows, a.cols, a.entries), alpha, k) == vd
        report = cross_validate(ExactMatrix(a.rows, a.cols, a.entries), k, "tnp", alpha)
    assert [(m.name, m.holds, m.witness) for m in report.methods] == [(v.method, v.holds, v.witness) for v in (minors, snr, vd)]
    assert report.lcp_status == status.value
    assert report.agree == (minors.holds == snr.holds == vd.holds and (status != TnpLcpStatus.SUFFICIENT or minors.holds))


def test_a_window_whose_minor_is_0_reaches_no_judge_and_gets_no_test_vector(monkeypatch):
    """The TNP sweeps judge only the windows whose minor is not 0.  On the
    singular 6x6 TNP instance (seed 0, rank 5) the stream off the condensation
    levels yields exactly the windows of sizes 2-6 with a nonzero minor, and
    each judge sees those and none with S x = 0; on the rank-one 5x5 (seed 1)
    no judge runs.  There the sweep finds level 2 all 0 and stops: it
    condenses no level above it and hands no level to the stream, so no
    window gets a test vector N."""
    judged, streamed = [], []
    for method in ("tnp_snr_single_vector", "tnp_vd_single_vector"):
        cls, contiguous, judge = checks_module.SINGLE_VECTOR[method]

        def spy(x, y, judge=judge):
            judged.append(tuple(y))
            return judge(x, y)

        monkeypatch.setitem(checks_module.SINGLE_VECTOR, method, (cls, contiguous, spy))
    real_stream = checks_module._level_solves

    def stream_spy(a, r, *rest):
        for window in real_stream(a, r, *rest):
            streamed.append(window[:2])
            yield window

    built = []
    real = matrix_module._condensed_rows
    monkeypatch.setattr(matrix_module, "_condensed_rows", lambda ints, s, *rest: built.append(s) or real(ints, s, *rest))
    monkeypatch.setattr(checks_module, "_level_solves", stream_spy)
    six = generate_tnp((6, 6), 6, seed=0).matrix
    nonsingular = [(tuple(i - 1 for i in rec.rows), tuple(j - 1 for j in rec.cols))
                   for rec in reference_minors_up_to(six, 6) if len(rec.rows) >= 2 and rec.value]
    assert check_tnp_snr(six, 6).holds
    assert streamed == nonsingular
    assert check_tnp_vd(six).holds
    assert len(judged) == 2 * len(nonsingular) and all(any(y) for y in judged)
    five = generate_tnp((5, 5), 5, seed=1).matrix
    judged.clear(), streamed.clear(), built.clear()
    with built_tables() as tables:
        assert check_tnp_snr(five, 5).holds and check_tnp_vd(five).holds
    assert judged == [] and streamed == []
    assert built == [2, 2]
    assert not tables


def test_tnp_test_vector_sweeps_build_no_minor_table():
    """The TNP sign non-reversal and variation sweeps read the condensation
    levels themselves: on holding, failing, singular and rank-one inputs, with
    the default and another alpha, they build no minor table."""
    bases = [generate_tnp((6, 6), 6, seed=s).matrix for s in (0, 1, 2)]
    bases += [generate_near_miss((5, 5), 5, seed=2).matrix, random_rational_matrix((4, 6), seed=3, style="negative")]
    outcomes = []
    for base in bases:
        k = min(base.shape)
        for alpha in (None, AlphaChoice.of([2, "1/3"], global_sign=-1)):
            a = ExactMatrix(base.rows, base.cols, base.entries)
            with built_tables() as tables:
                outcomes += [check_tnp_snr(a, k, alpha).holds, check_tnp_vd(a, alpha).holds]
            assert not tables
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("cap", [lcp_module.MAX_STORED_MINORS, 40])
def test_sweeps_after_a_minor_definition_match_a_fresh_matrix(cap):
    """The minor definition reads the condensation sweep and builds no minor
    table; the sweeps and lookups that follow on the same matrix give what they
    give on a fresh matrix, also past a storage cap."""
    rng = random.Random(7)
    verdicts = []
    bases = [generate_tnp((6, 6), 6, seed=1).matrix, random_rational_matrix((5, 6), seed=3, style="negative")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcp_module, "MAX_STORED_MINORS", cap)
        for base in bases:
            k = min(base.shape)

            def fresh():
                return ExactMatrix(base.rows, base.cols, base.entries)

            a = fresh()
            with built_tables() as tables:
                verdicts.append(check_by_minor_definition(a, ClassQuery("tnp", k)).holds)
                assert not tables
                assert check_tnp_snr(a, k) == check_tnp_snr(fresh(), k)
                assert tnp_lcp_sufficient_check(a, k) == tnp_lcp_sufficient_check(fresh(), k)
            windows = [(rows, cols) for r in range(1, k + 1) for rows in itertools.combinations(range(a.rows), r)
                       for cols in itertools.combinations(range(a.cols), r)]
            rng.shuffle(windows)
            b = fresh()
            check_by_minor_definition(b, ClassQuery("tnp", k))
            after, c = MinorTable(b), MinorTable(fresh())
            for rows, cols in windows:
                rmask, cmask = sum(1 << i for i in rows), sum(1 << j for j in cols)
                assert after.minor_of_masks(rmask, cmask) == c.minor_of_masks(rmask, cmask)
            assert all(stored_minors(table) <= cap for table in [after, *(table for _, table in tables)])
    assert verdicts == [True, False]  # the second minor definition stops at its failure


def test_threads_sharing_one_matrix_get_the_verdicts_of_one_thread():
    """Threads that sweep one matrix at once, with a switch interval of a
    microsecond, get the verdicts one thread gets, and each complementarity
    sweep builds a table of its own that holds only true minors: the matrix
    shares nothing mutable between the threads."""
    base = generate_tnp((6, 6), 6, seed=2).matrix
    sweeps = [
        lambda a: check_by_minor_definition(a, ClassQuery("tnp", 6)),
        lambda a: check_tnp_snr(a, 6),
        lambda a: check_tnp_vd(a),
        lambda a: tnp_lcp_sufficient_check(a, 6).status,
    ]
    expected = [sweep(ExactMatrix(base.rows, base.cols, base.entries)) for sweep in sweeps]
    minors = {(rec.rows, rec.cols): rec.value for rec in minors_up_to(base, 6)}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            a = ExactMatrix(base.rows, base.cols, base.entries)
            results = [None] * 8

            def run(i):
                results[i] = sweeps[i % len(sweeps)](a)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
            with built_tables() as tables:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert results == expected * 2
            assert [matrix for matrix, _ in tables] == [a, a]  # the two complementarity sweeps
            for _, table in tables:
                assert stored_minors(table) > 0
                for key, value in table._values.items():
                    rows0, cols0 = tuple(_bits(key >> a.cols)), tuple(_bits(key & ((1 << a.cols) - 1)))
                    assert Fraction(value, table.scale(rows0)) == minors[tuple(i + 1 for i in rows0), tuple(j + 1 for j in cols0)]
    finally:
        sys.setswitchinterval(switch)

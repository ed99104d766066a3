"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

The corpus is fixed-seed: 200 instances per generated class plus 500 random
rational matrices over all shapes from 1x1 to 6x6.  Procedures scan submatrix
sizes in ascending order and stop at the first violation, so two procedures
return identical verdicts for every admissible order exactly when their first
violation sizes coincide; that is what the equivalence tests compare, with
direct per-order spot checks on a rotating subsample.
"""

import itertools
import random
from fractions import Fraction

import pytest

from totneg import (
    AlphaChoice,
    ClassQuery,
    ExactMatrix,
    IntervalHull,
    LCPInstance,
    TnpLcpStatus,
    adjugate,
    check_by_contiguous_minors,
    check_by_minor_definition,
    check_tn_snr_single_vector,
    check_tn_vd_single_vector,
    check_tnp_snr,
    check_tnp_vd,
    det,
    hull_is_totally_negative,
    hull_is_totally_nonpositive,
    i_matrix,
    is_alternating_orthant,
    lcp_single_vector_check,
    lcp_single_vector_check_variant,
    minor_det,
    s_minus,
    s_plus,
    solve_lcp,
    submatrix,
    tnp_lcp_sufficient_check,
)
from totneg.generate import (
    generate_near_miss,
    generate_tn,
    generate_tnp,
    random_rational_matrix,
)

from oracles import (
    check_splus_sminus_duality,
    count_solutions_for_positive_q,
    generate_n_matrix,
    hull_contains,
    identity,
    matmul,
    orthant_impossibility_suite,
    sample_member,
    scale,
)

SHAPES = [(m, n) for m in range(1, 7) for n in range(1, 7)]


def shape_cycle(count: int) -> list[tuple[int, int]]:
    return [SHAPES[i % len(SHAPES)] for i in range(count)]


@pytest.fixture(scope="session")
def corpus():
    """(label, class, matrix) triples; 200 tn + 200 tnp + 200 near-miss + 500 random."""
    instances = []
    for i, shape in enumerate(shape_cycle(200)):
        inst = generate_tn(shape, min(shape), seed=10_000 + i)
        instances.append((f"tn-{i}", "tn", inst.matrix))
    for i, shape in enumerate(shape_cycle(200)):
        inst = generate_tnp(shape, min(shape), seed=20_000 + i)
        instances.append((f"tnp-{i}", "tnp", inst.matrix))
    for i, shape in enumerate(shape_cycle(200)):
        k = 1 + (i % min(shape))
        inst = generate_near_miss(shape, k, seed=30_000 + i)
        instances.append((f"miss-{i}", "near_miss", inst.matrix))
    styles = ("any", "negative", "nonpositive")
    for i, shape in enumerate(shape_cycle(500)):
        a = random_rational_matrix(shape, seed=40_000 + i, style=styles[i % 3])
        instances.append((f"rand-{i}", "random", a))
    return instances


def first_violation_size(verdict) -> int | None:
    return None if verdict.holds else verdict.witness.size


def test_criterion_1_tn_procedures_agree_for_every_order(corpus):
    checked = 0
    for label, _, a in corpus:
        kmax = min(a.rows, a.cols)
        sizes = {
            "minors": first_violation_size(check_by_minor_definition(a, ClassQuery("tn", kmax))),
            "contiguous": first_violation_size(check_by_contiguous_minors(a, ClassQuery("tn", kmax))),
            "snr": first_violation_size(check_tn_snr_single_vector(a, kmax)),
            "vd": first_violation_size(check_tn_vd_single_vector(a, k=kmax)),
            "lcp": first_violation_size(lcp_single_vector_check(a, kmax)),
        }
        assert len(set(sizes.values())) == 1, f"{label}: procedures disagree: {sizes}"
        if checked % 23 == 0:
            k = 1 + (checked % kmax)
            expected = sizes["minors"] is None or k < sizes["minors"]
            assert check_by_minor_definition(a, ClassQuery("tn", k)).holds == expected
            assert check_by_contiguous_minors(a, ClassQuery("tn", k)).holds == expected
            assert check_tn_snr_single_vector(a, k).holds == expected
            assert check_tn_vd_single_vector(a, k=k).holds == expected
            assert lcp_single_vector_check(a, k).holds == expected
        checked += 1
    print(f"\nACCEPTANCE 1 PASS: {checked} instances, zero disagreements across 5 procedures")


def test_criterion_2_tnp_procedures_agree_and_lcp_is_one_directional(corpus, zero_row_tnp):
    checked = 0
    sufficient_seen = 0
    for label, _, a in corpus:
        kmax = min(a.rows, a.cols)
        tnp_minors = check_by_minor_definition(a, ClassQuery("tnp", kmax))
        sizes = {
            "minors": first_violation_size(tnp_minors),
            "snr": first_violation_size(check_tnp_snr(a, kmax)),
            "vd": first_violation_size(check_tnp_vd(a, k=kmax)),
        }
        assert len(set(sizes.values())) == 1, f"{label}: weak-class procedures disagree: {sizes}"
        report = tnp_lcp_sufficient_check(a, kmax)
        if report.status is TnpLcpStatus.SUFFICIENT:
            sufficient_seen += 1
            assert tnp_minors.holds, f"{label}: complementarity condition certified a non-member"
        checked += 1
    assert sufficient_seen > 0

    # the worked counterexample: in the weak class, yet the condition cannot certify it
    assert check_by_minor_definition(zero_row_tnp, ClassQuery("tnp", 3)).holds
    assert tnp_lcp_sufficient_check(zero_row_tnp, 3).status is TnpLcpStatus.INCONCLUSIVE
    q = (Fraction(0), Fraction(1), Fraction(1))
    sols = solve_lcp(LCPInstance(zero_row_tnp, q))
    assert not sols.is_finite
    z1 = (Fraction(1), Fraction(0), Fraction(0))
    assert z1 in sols.solutions
    seg = next(f for f in sols.families if f.support == (1,))
    assert seg.t_range == (Fraction(0), Fraction(1))
    z2 = seg.member(Fraction(1, 2))
    assert z2 == (Fraction(1, 2), Fraction(0), Fraction(0))
    assert zero_row_tnp.matvec(z1) != zero_row_tnp.matvec(z2)
    # the scaled copies stop being solutions once the slack constraints bind
    beyond = (Fraction(2), Fraction(0), Fraction(0))
    y = [av + qv for av, qv in zip(zero_row_tnp.matvec(beyond), q)]
    assert any(v < 0 for v in y)
    print(f"\nACCEPTANCE 2 PASS: {checked} instances, {sufficient_seen} certified sufficient")


def build_hull(shape: tuple[int, int], index: int, seed: int) -> IntervalHull:
    """Deterministic mix of failing and holding hulls for one shape."""
    rng = random.Random(seed)
    m, n = shape
    kind = index % 10
    if kind < 5:
        a = random_rational_matrix(shape, seed=seed, style="any" if kind % 2 else "negative")
        b = random_rational_matrix(shape, seed=seed + 1, style="any" if kind % 2 else "negative")
        return IntervalHull(a, b)
    if kind < 8:
        base = generate_tn(shape, min(shape), seed=seed).matrix
        floor = min(abs(v) for v in base.entries)
        delta = floor / (4 * (m + n))
        bump = ExactMatrix.from_rows(
            [[delta * Fraction(rng.randint(0, 4), 4) for _ in range(n)] for _ in range(m)]
        )
        return IntervalHull(base, base.add(bump))
    if kind == 8:
        base = generate_tnp(shape, min(shape), seed=seed).matrix
        return IntervalHull(base, base)
    base = generate_tnp(shape, min(shape), seed=seed).matrix
    dip = ExactMatrix.from_rows(
        [[-Fraction(rng.randint(0, 2), 8) for _ in range(n)] for _ in range(m)]
    )
    return IntervalHull(base, base.add(dip))


def test_criterion_3_hull_verdicts_match_member_sweeps():
    hull_shapes = [(m, n) for m in range(1, 5) for n in range(1, 5)]
    tn_holding = 0
    tnp_holding = 0
    total = 0
    for shape in hull_shapes:
        m, n = shape
        for j in range(50):
            h = build_hull(shape, j, seed=50_000 + 97 * (m * 4 + n) + j)
            k = min(shape)
            total += 1
            members = [
                i_matrix(h, z, zt)
                for z in itertools.product((1, -1), repeat=m)
                for zt in itertools.product((1, -1), repeat=n)
            ] + [sample_member(h, seed=60_000 + 100 * total + s) for s in range(100)]
            tn_verdict = hull_is_totally_negative(h, k)
            oracle_tn = all(
                check_by_minor_definition(c, ClassQuery("tn", k)).holds for c in members
            )
            assert tn_verdict.holds == oracle_tn, f"hull {shape} #{j}: strict verdict mismatch"
            tn_holding += tn_verdict.holds
            tnp_verdict = hull_is_totally_nonpositive(h, k)
            oracle_tnp = all(
                check_by_minor_definition(c, ClassQuery("tnp", k)).holds for c in members
            )
            assert tnp_verdict.holds == oracle_tnp, f"hull {shape} #{j}: weak verdict mismatch"
            tnp_holding += tnp_verdict.holds
            for verdict, cls in ((tn_verdict, "tn"), (tnp_verdict, "tnp")):
                if verdict.holds:
                    continue
                z, zt = verdict.failing_sign_words
                witness_member = i_matrix(h, z, zt)
                assert hull_contains(h, witness_member)
                value = minor_det(witness_member, verdict.witness.rows, verdict.witness.cols)
                assert value >= 0 if cls == "tn" else value > 0
    assert tn_holding >= 20 and tnp_holding >= 20
    print(
        f"\nACCEPTANCE 3 PASS: {total} hulls, verdicts match member sweeps "
        f"({tn_holding} strict / {tnp_holding} weak holding)"
    )


def test_criterion_4_negative_principal_minors_give_exactly_two_solutions():
    rng = random.Random(4)
    checked = 0
    for i in range(100):
        n = 1 + (i % 5)
        if n == 1:
            a = ExactMatrix.from_rows([[-Fraction(rng.randint(1, 9), rng.randint(1, 4))]])
        else:
            a = generate_n_matrix(n, seed=70_000 + i).matrix
        sweep = count_solutions_for_positive_q(a, trials=20, seed=80_000 + i)
        assert sweep.always_two, f"instance {i} (size {n}): q={sweep.counterexample_q}"
        checked += 1
    print(f"\nACCEPTANCE 4 PASS: {checked} matrices x 20 positive q, always exactly 2 solutions")


def test_criterion_5_other_orthants_cannot_detect():
    total = 0
    for r in (3, 4, 5):
        rep = orthant_impossibility_suite(r, trials=1700, seed=90_000 + r)
        assert rep.violations == (), f"size {r}: {rep.violations[:2]}"
        assert rep.positive_det_found, f"size {r}: no positive-determinant instance found"
        total += rep.samples
    assert total >= 10_000
    print(f"\nACCEPTANCE 5 PASS: {total} (matrix, vector) samples, zero violations")


def test_criterion_6_exact_identities(corpus):
    rng = random.Random(6)
    adj_checked = 0
    vector_checked = 0
    for label, kind, a in corpus:
        if a.is_square:
            d = det(a)
            assert matmul(a, adjugate(a)) == scale(identity(a.rows), d), label
            adj_checked += 1
        if kind == "tn":
            kmax = min(a.rows, a.cols)
            mags = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(kmax)]
            alpha = AlphaChoice.of(mags, global_sign=rng.choice((1, -1)))
            for r in range(2, kmax + 1):
                alpha_vec = alpha.realized(r)
                for i0 in range(a.rows - r + 1):
                    for j0 in range(a.cols - r + 1):
                        sub = submatrix(
                            a, tuple(range(i0 + 1, i0 + r + 1)), tuple(range(j0 + 1, j0 + r + 1))
                        )
                        x = adjugate(sub).matvec(alpha_vec)
                        assert is_alternating_orthant(x), label
                        dsub = det(sub)
                        assert sub.matvec(x) == tuple(dsub * v for v in alpha_vec), label
                        vector_checked += 1
    for _ in range(1500):
        n = rng.randint(1, 8)
        x = tuple(
            Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            for _ in range(n)
        )
        if any(x):
            assert check_splus_sminus_duality(x)
        zero = tuple(Fraction(0) for _ in range(n))
        assert s_plus(zero) == n and s_minus(zero) == 0
    print(
        f"\nACCEPTANCE 6 PASS: adjugate identity on {adj_checked} square instances, "
        f"{vector_checked} alternating test vectors verified exactly"
    )


@pytest.fixture(scope="session")
def alpha_corpus():
    instances = []
    small = [(2, 2), (3, 3), (2, 4), (4, 3), (4, 4), (5, 5), (3, 5), (6, 6)]
    for i in range(40):
        shape = small[i % len(small)]
        instances.append(("tn", generate_tn(shape, min(shape), seed=100_000 + i).matrix))
    for i in range(30):
        shape = small[i % 5]  # keep the all-submatrix sweeps affordable
        instances.append(("tnp", generate_tnp(shape, min(shape), seed=110_000 + i).matrix))
    for i in range(30):
        shape = small[i % len(small)]
        instances.append(
            ("near_miss", generate_near_miss(shape, min(shape), seed=120_000 + i).matrix)
        )
    for i in range(30):
        shape = small[i % len(small)]
        instances.append(("random", random_rational_matrix(shape, seed=130_000 + i, style="negative")))
    return instances


def random_alpha(rng: random.Random, strict: bool) -> AlphaChoice:
    length = rng.randint(1, 4)
    lo = 1 if strict else 0
    mags = [Fraction(rng.randint(lo, 6), rng.randint(1, 4)) for _ in range(length)]
    if mags[0] == 0:
        mags[0] = Fraction(rng.randint(1, 6))  # keep every cycled truncation nonzero
    return AlphaChoice.of(mags, global_sign=rng.choice((1, -1)))


def test_criterion_7_alpha_choice_invariance(alpha_corpus):
    rng = random.Random(7)
    compared = 0
    for kind, a in alpha_corpus:
        kmax = min(a.rows, a.cols)
        base_snr = check_tn_snr_single_vector(a, kmax).holds
        base_vd = check_tn_vd_single_vector(a, k=kmax).holds
        run_tnp = kind == "tnp" and max(a.rows, a.cols) <= 5
        if run_tnp:
            base_tnp_snr = check_tnp_snr(a, kmax).holds
            base_tnp_vd = check_tnp_vd(a, k=kmax).holds
        for trial in range(10):
            alpha = random_alpha(rng, strict=run_tnp)
            if trial < 4:
                # force both sign branches, including the all-nonpositive one
                alpha = AlphaChoice(alpha.magnitudes, global_sign=1 if trial % 2 == 0 else -1)
            assert check_tn_snr_single_vector(a, kmax, alpha).holds == base_snr
            assert check_tn_vd_single_vector(a, alpha, k=kmax).holds == base_vd
            if run_tnp:
                assert check_tnp_snr(a, kmax, alpha=alpha).holds == base_tnp_snr
                assert check_tnp_vd(a, alpha=alpha, k=kmax).holds == base_tnp_vd
            compared += 1
        if a.is_square and a.rows >= 3 and compared % 7 == 0:
            base_lcp = lcp_single_vector_check(a, kmax).holds
            weights = {1: Fraction(rng.randint(1, 5)), 3: Fraction(rng.randint(1, 5), 2)}
            assert lcp_single_vector_check_variant(a, kmax, weights).holds == base_lcp
    print(f"\nACCEPTANCE 7 PASS: {compared} alpha draws, all verdicts invariant")

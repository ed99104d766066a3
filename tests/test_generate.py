"""Generators must emit oracle-certified instances, deterministically per seed."""

import random

import pytest

from totneg import ClassQuery, check_by_minor_definition, det, minors_up_to
from totneg.errors import ResourceLimitError
from totneg.generate import (
    certificate_digest,
    cross_validate,
    generate_near_miss,
    generate_tn,
    generate_tnp,
    random_rational_matrix,
)
from totneg.matrix import det_of_rows

from oracles import (
    generate_n_matrix,
    generate_tn_of_order,
    is_entrywise_negative,
    is_entrywise_nonpositive,
    orthant_impossibility_suite,
)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (2, 4), (4, 2), (5, 5)])
def test_generate_tn_is_certified(shape):
    inst = generate_tn(shape, min(shape), seed=101 + shape[0] * 10 + shape[1])
    assert inst.klass == "tn"
    assert all(rec.value < 0 for rec in minors_up_to(inst.matrix, min(shape)))


def test_generate_tn_is_deterministic():
    a = generate_tn((3, 3), 3, seed=5)
    b = generate_tn((3, 3), 3, seed=5)
    assert a.matrix == b.matrix and a.attempts == b.attempts
    c = generate_tn((3, 3), 3, seed=6)
    assert c.matrix != a.matrix


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_generate_tnp_is_certified(shape):
    for seed in (11, 12, 13):
        inst = generate_tnp(shape, min(shape), seed=seed)
        assert all(rec.value <= 0 for rec in minors_up_to(inst.matrix, min(shape)))


def test_generate_tnp_includes_degenerate_structures():
    # across seeds the strategies must produce at least one singular instance
    singular_seen = False
    for seed in range(20):
        inst = generate_tnp((3, 3), 3, seed=seed)
        if any(rec.value == 0 for rec in minors_up_to(inst.matrix, 3)):
            singular_seen = True
            break
    assert singular_seen


@pytest.mark.parametrize("shape,k", [((2, 2), 2), ((3, 3), 2), ((3, 3), 3), ((4, 4), 3)])
def test_near_miss_fails_at_exactly_one_minor(shape, k):
    inst = generate_near_miss(shape, k, seed=7 * shape[0] + k)
    bad = [rec for rec in minors_up_to(inst.matrix, k) if rec.value >= 0]
    assert len(bad) == 1
    assert is_entrywise_negative(inst.matrix) or k == 1


def test_near_miss_order_one_zeroes_one_entry():
    inst = generate_near_miss((2, 3), 1, seed=3)
    zeros = [v for v in inst.matrix.entries if v == 0]
    negs = [v for v in inst.matrix.entries if v < 0]
    assert len(zeros) == 1 and len(negs) == 5


def test_generate_n_matrix_has_negative_principal_minors():
    import itertools

    for n in (2, 3, 4):
        inst = generate_n_matrix(n, seed=50 + n)
        rows = inst.matrix.row_list()
        assert is_entrywise_negative(inst.matrix)
        for size in range(1, n + 1):
            for idx in itertools.combinations(range(n), size):
                assert det_of_rows([[rows[i][j] for j in idx] for i in idx]) < 0


def test_generate_tn_of_order_with_positive_determinant():
    for r in (3, 4):
        inst = generate_tn_of_order(r, r - 1, seed=17 + r, positive_det=True)
        assert inst is not None
        assert det(inst.matrix) > 0
        assert check_by_minor_definition(inst.matrix, ClassQuery("tn", r - 1)).holds


def test_random_rational_matrix_styles():
    neg = random_rational_matrix((3, 3), seed=1, style="negative")
    assert is_entrywise_negative(neg)
    nonpos = random_rational_matrix((3, 3), seed=2, style="nonpositive")
    assert is_entrywise_nonpositive(nonpos)
    assert random_rational_matrix((2, 2), seed=3) == random_rational_matrix((2, 2), seed=3)


def test_cross_validate_unanimous_on_fixtures(n3, near_miss, zero_row_tnp):
    rep = cross_validate(n3, 3, "tn")
    assert rep.agree and rep.holds
    assert rep.lcp_status is None
    rep = cross_validate(n3, 3, "tnp")
    assert rep.agree and rep.holds
    assert rep.lcp_status == "sufficient_condition_holds"
    rep2 = cross_validate(near_miss, 2, "tn")
    assert rep2.agree and not rep2.holds
    witnesses = {m.name: m.witness for m in rep2.methods}
    assert all(w is not None for w in witnesses.values())
    rep2 = cross_validate(near_miss, 2, "tnp")
    assert rep2.agree and not rep2.holds
    rep3 = cross_validate(zero_row_tnp, 3, "tn")
    assert rep3.agree and not rep3.holds
    rep3 = cross_validate(zero_row_tnp, 3, "tnp")
    # an inconclusive complementarity status never counts against agreement
    assert rep3.agree and rep3.holds
    assert rep3.lcp_status == "inconclusive"


def test_cross_validate_reports_timings(n2):
    tn, tnp = cross_validate(n2, 2, "tn"), cross_validate(n2, 2, "tnp")
    assert all(m.elapsed_ms >= 0 for m in tn.methods + tnp.methods)
    assert [m.name for m in tn.methods] == [
        "minor_definition",
        "contiguous_minors",
        "snr_single_vector",
        "vd_single_vector",
        "lcp_single_vector",
    ]
    assert [m.name for m in tnp.methods] == [
        "minor_definition",
        "tnp_snr_single_vector",
        "tnp_vd_single_vector",
    ]


def test_orthant_suite_small_run():
    rep = orthant_impossibility_suite(3, trials=150, seed=2)
    assert rep.samples == 300
    assert rep.violations == ()
    assert rep.positive_det_found


def test_orthant_suite_needs_room():
    with pytest.raises(ValueError):
        orthant_impossibility_suite(2, trials=5, seed=0)


def test_certificate_digest_is_stable(n3):
    assert certificate_digest(n3, 3) == certificate_digest(n3, 3)
    assert certificate_digest(n3, 3) != certificate_digest(n3, 2)


def test_generator_budget_errors():
    with pytest.raises(ValueError):
        generate_tn((2, 2), 3, seed=1)
    with pytest.raises(ResourceLimitError):
        # a budget of zero attempts can never succeed
        generate_tn((2, 2), 2, seed=1, budget=0)


def test_cross_validate_builds_one_minor_table(monkeypatch):
    import totneg.matrix

    built = []
    original = totneg.matrix.MinorTable.__init__

    def counting_init(self, a):
        built.append(a)
        original(self, a)

    monkeypatch.setattr(totneg.matrix.MinorTable, "__init__", counting_init)
    a = generate_tn((4, 4), 4, seed=5).matrix
    tn, tnp = cross_validate(a, 4, "tn"), cross_validate(a, 4, "tnp")
    assert tn.holds and tn.agree and tnp.agree
    assert built == [a]

"""Sign-change counters against exhaustive zero-assignment enumeration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totneg import (
    alternating_signature,
    is_alternating_orthant,
    is_mixed_orthant,
    s_minus,
    s_plus,
    sign_profile,
)

from oracles import check_splus_sminus_duality, profile_by_enumeration


def fv(*values):
    return tuple(Fraction(v) for v in values)


def test_s_minus_examples():
    assert s_minus(fv(1, -2, 3)) == 2
    assert s_minus(fv(0, 0, 0)) == 0
    assert s_minus(fv(1, 0, 1)) == 0
    assert s_minus(fv(1, 0, -1, 2)) == 2


def test_s_plus_conventions_and_examples():
    assert s_plus(fv(0, 0, 0)) == 3
    p = sign_profile(fv(1, 0, 1))
    assert p.s_plus == 2
    assert p.first_signs_at_max == frozenset({1})
    assert p.last_signs_at_max == frozenset({1})
    q = sign_profile(fv(1, -1, 2))
    assert q.s_plus == 2 == q.s_minus


def test_zero_vector_profile_has_both_end_signs():
    p = sign_profile(fv(0, 0))
    assert p.s_plus == 2 and p.s_minus == 0
    assert p.first_signs_at_max == frozenset({1, -1})
    assert p.first_nonzero_sign is None


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        s_minus(())
    with pytest.raises(ValueError):
        sign_profile(())


def test_alternating_signature_values():
    assert alternating_signature(1) == (1,)
    assert alternating_signature(3) == (1, -1, 1)
    assert alternating_signature(4) == (1, -1, 1, -1)
    with pytest.raises(ValueError):
        alternating_signature(0)


def test_orthant_predicates():
    assert is_alternating_orthant(fv(1, -2, 3))
    assert is_mixed_orthant(fv(1, -2, 3))
    assert not is_alternating_orthant(fv(1, 0, -1))
    assert is_mixed_orthant(fv(1, 0, -1))
    assert not is_alternating_orthant(fv(2, 3))
    assert not is_mixed_orthant(fv(2, 3))


def test_duality_examples():
    assert check_splus_sminus_duality(fv(1, 0, 1))
    assert check_splus_sminus_duality(fv(1, -1))
    with pytest.raises(ValueError):
        check_splus_sminus_duality(fv(0, 0))


def random_vectors(rng, count, max_len=7):
    for _ in range(count):
        n = rng.randint(1, max_len)
        yield tuple(
            Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            for _ in range(n)
        )


def test_profile_matches_enumeration_oracle():
    rng = random.Random(99)
    for x in random_vectors(rng, 400):
        splus, firsts, lasts = profile_by_enumeration(x)
        p = sign_profile(x)
        assert p.s_plus == splus
        assert p.first_signs_at_max == firsts
        assert p.last_signs_at_max == lasts


def test_counter_inequalities_and_bounds():
    rng = random.Random(5)
    for x in random_vectors(rng, 300):
        p = sign_profile(x)
        assert p.s_minus <= p.s_plus
        assert p.s_plus <= len(x)
        if any(x):
            assert p.s_minus <= len(x) - 1
            if all(v != 0 for v in x):
                assert p.s_minus == p.s_plus


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=9))
def test_duality_identity_holds_for_all_nonzero_vectors(ints):
    x = tuple(Fraction(v) for v in ints)
    if all(v == 0 for v in x):
        return
    assert check_splus_sminus_duality(x)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=8))
def test_profile_matches_enumeration_hypothesis(ints):
    # the single-vector judges pass plain integers, the public callers Fractions
    for x in (tuple(Fraction(v) for v in ints), tuple(ints)):
        splus, firsts, lasts = profile_by_enumeration(x)
        p = sign_profile(x)
        assert (p.s_plus, p.first_signs_at_max, p.last_signs_at_max) == (splus, firsts, lasts)

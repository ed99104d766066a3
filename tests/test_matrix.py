"""Exact matrix substrate: determinants against independent oracles, adjugate
identity, minor streams and their closed-form counts."""

import collections
import copy
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totneg import (
    AlphaChoice,
    ClassQuery,
    DimensionError,
    ExactMatrix,
    ResourceLimitError,
    adjugate,
    check_by_minor_definition,
    cofactor_minor,
    contiguous_minors_up_to,
    det,
    lcp_single_vector_check,
    minor_det,
    minors_up_to,
    parse_lcp_input,
    parse_matrix,
    parse_matrix_pair,
    submatrix,
    to_fraction,
)
from totneg import lcp as lcp_module
from totneg import matrix as matrix_module
from totneg.errors import InvariantError
from totneg.generate import generate_tn
from totneg.lcp import MinorTable
from totneg.matrix import det_of_rows, format_fraction, parse_rational, solve_window

from oracles import (
    adjugate_numerators,
    all_windows,
    built_tables,
    det_by_cofactor_expansion,
    first_entry_violating,
    identity,
    levels_drawn,
    masks,
    matmul,
    rank_deficient_nonpositive,
    reference_contiguous_minors_up_to,
    reference_minors_up_to,
    reference_streamed_windows,
    scale,
    stored_minors,
    streamed_windows,
    table_value,
    take,
)


def det_by_permutations(a: ExactMatrix) -> Fraction:
    """Leibniz-formula determinant; brutally slow but independent of elimination."""
    n = a.rows
    rows = a.row_list()
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction((-1) ** inversions)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def random_matrix(rng: random.Random, m: int, n: int) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
    )


def test_to_fraction_parses_all_literal_forms():
    assert to_fraction("3/4") == Fraction(3, 4)
    assert to_fraction("-7") == Fraction(-7)
    assert to_fraction("0.25") == Fraction(1, 4)
    assert to_fraction(0.5) == Fraction(1, 2)
    assert to_fraction(Fraction(2, 6)) == Fraction(1, 3)


def test_submatrix_selects_requested_entries(n3):
    sub = submatrix(n3, (2, 3), (2, 3))
    assert sub.row_list() == [[Fraction(-3), Fraction(-5)], [Fraction(-5), Fraction(-6)]]


def test_submatrix_full_selection_is_identity(n3):
    assert submatrix(n3, (1, 2, 3), (1, 2, 3)) == n3


def test_submatrix_corner_selection():
    a = identity(3)
    sub = submatrix(a, (1, 3), (1, 3))
    assert sub.row_list() == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_submatrix_rejects_bad_indices(n3):
    with pytest.raises(DimensionError):
        submatrix(n3, (1, 4), (1, 2))
    with pytest.raises(DimensionError):
        submatrix(n3, (2, 1), (1, 2))


def test_det_examples(n2, n3):
    assert det(n2) == Fraction(-3)
    assert det(n3) == Fraction(-1)
    assert det(ExactMatrix.from_rows([["5/2"]])) == Fraction(5, 2)


def test_det_rejects_rectangular():
    with pytest.raises(DimensionError):
        det(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_agrees_with_cofactor_and_permutation_oracles():
    rng = random.Random(20240817)
    for n in range(1, 6):
        for _ in range(8):
            a = random_matrix(rng, n, n)
            fast = det(a)
            assert fast == det_by_cofactor_expansion(a)
            if n <= 4:
                assert fast == det_by_permutations(a)


def test_adjugate_closed_forms(n2):
    assert adjugate(n2).row_list() == [[Fraction(-1), Fraction(2)], [Fraction(2), Fraction(-1)]]
    eye = identity(3)
    assert adjugate(eye) == eye
    assert adjugate(ExactMatrix.from_rows([[7]])).row_list() == [[Fraction(1)]]


def test_adjugate_multiplies_back_to_det_times_identity(n3):
    rng = random.Random(7)
    mats = [n3] + [random_matrix(rng, n, n) for n in (2, 3, 4, 5) for _ in range(4)]
    for a in mats:
        d = det(a)
        prod = matmul(a, adjugate(a))
        assert prod == scale(identity(a.rows), d)


def test_cofactor_minor_convention_and_values(n2, n3):
    assert cofactor_minor(ExactMatrix.from_rows([[42]]), 1, 1) == Fraction(-1)
    assert cofactor_minor(n2, 1, 1) == Fraction(-1)
    assert cofactor_minor(n3, 1, 2) == Fraction(-8)


def test_minor_stream_counts_match_binomials(n3):
    recs = list(minors_up_to(n3, 2))
    assert len(recs) == 9 + 9
    two = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert len(list(minors_up_to(two, 2))) == 5


def test_minor_stream_order_is_sizes_then_lex(n3):
    recs = list(minors_up_to(n3, 3))
    sizes = [len(r.rows) for r in recs]
    assert sizes == sorted(sizes)
    keys = [(len(r.rows), r.rows, r.cols) for r in recs]
    assert keys == sorted(keys)
    assert len(recs) == 19


def test_every_n3_minor_is_negative(n3):
    assert all(rec.value < 0 for rec in minors_up_to(n3, 3))
    assert all(rec.value < 0 for rec in contiguous_minors_up_to(n3, 3))
    assert len(list(contiguous_minors_up_to(n3, 3))) == 14


def test_contiguous_counts_follow_window_formula():
    rng = random.Random(3)
    a = random_matrix(rng, 3, 3)
    by_size = {}
    for rec in contiguous_minors_up_to(a, 3):
        by_size[len(rec.rows)] = by_size.get(len(rec.rows), 0) + 1
    assert by_size == {1: 9, 2: 4, 3: 1}
    b = random_matrix(rng, 2, 3)
    counts = {}
    for rec in contiguous_minors_up_to(b, 2):
        counts[len(rec.rows)] = counts.get(len(rec.rows), 0) + 1
    assert counts == {1: 6, 2: 2}


def test_contiguous_minors_are_a_subset_of_all_minors():
    rng = random.Random(11)
    for m, n in ((3, 4), (4, 4)):
        a = random_matrix(rng, m, n)
        k = min(m, n)
        full = {(r.rows, r.cols): r.value for r in minors_up_to(a, k)}
        for rec in contiguous_minors_up_to(a, k):
            assert full[(rec.rows, rec.cols)] == rec.value


def test_minors_validate_order(n3):
    with pytest.raises(ValueError):
        list(minors_up_to(n3, 0))
    with pytest.raises(ValueError):
        list(minors_up_to(n3, 4))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=6), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_det_matches_permutation_oracle_hypothesis(rows):
    a = ExactMatrix.from_rows(rows)
    assert det(a) == det_by_permutations(a)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-10**30, 10**30), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_integer_rows_are_eliminated_as_they_are(rows):
    """``det_of_rows`` on rows of ints gives ``minor_det``'s value as an int, and
    leaves the rows as they were."""
    copy = [r[:] for r in rows]
    value = det_of_rows(rows)
    full = tuple(range(1, len(rows) + 1))
    assert type(value) is int and value == minor_det(ExactMatrix.from_rows(rows), full, full)
    assert rows == copy


_SIGNED_ENTRIES = st.sampled_from([Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(_SIGNED_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=5)
    ),
    st.booleans(),
)
def test_first_entry_violating_matches_a_fraction_scan(rows, strict_first):
    """The entry signs, read once per matrix, give the old Fraction scan's answer
    for both ``strict`` values, whichever is asked first."""
    a = ExactMatrix.from_rows(rows)
    for strict in (strict_first, not strict_first, strict_first):
        assert a.first_entry_violating(strict) == first_entry_violating(a, strict)


def test_minor_det_matches_submatrix_det(n3):
    assert minor_det(n3, (1, 3), (2, 3)) == det(submatrix(n3, (1, 3), (2, 3)))


def test_matrix_text_round_trip(n3):
    assert parse_matrix(n3.to_text()) == n3
    fancy = ExactMatrix.from_rows([["1/3", "-0.5"], ["2", "-7/2"]])
    assert parse_matrix(fancy.to_text()) == fancy


def test_parse_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2\n3")
    with pytest.raises(ValueError):
        parse_matrix("x y\n1 2")
    with pytest.raises(ValueError):
        parse_matrix("1 2\n1 1/0")


def test_parse_pair_and_lcp_formats(n2):
    text = n2.to_text() + "\n" + n2.to_text()
    a, b = parse_matrix_pair(text)
    assert a == n2 and b == n2
    lcp_text = n2.to_text() + "q: 1 2\n"
    mat, q = parse_lcp_input(lcp_text)
    assert mat == n2 and q == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        parse_lcp_input(n2.to_text())


def test_parsers_reject_lines_past_the_input(n2):
    """A data row past the header's m is an error in a matrix file, in either
    hull block and in the LCP matrix block, and so is a line after the q values;
    q on the line after "q:" is still read."""
    extra = n2.to_text() + "5 6\n"
    with pytest.raises(ValueError, match="expected 2 data rows, found 3"):
        parse_matrix(extra)
    for text in (extra + "\n" + n2.to_text(), n2.to_text() + "\n" + extra):
        with pytest.raises(ValueError, match="expected 2 data rows, found 3"):
            parse_matrix_pair(text)
    with pytest.raises(ValueError, match="expected 2 data rows, found 3"):
        parse_lcp_input(extra + "q: 1 2\n")
    for tail in ("q: 1 2\n3 4\n", "q:\n1 2\n3 4\n", "q: 1 2\nq: 3 4\n"):
        with pytest.raises(ValueError, match="expected no line after the q values, found 1"):
            parse_lcp_input(n2.to_text() + tail)
    assert parse_lcp_input(n2.to_text() + "q:\n1 2\n") == (n2, (Fraction(1), Fraction(2)))


def test_entry_access_is_one_based(n3):
    assert n3.entry(1, 3) == Fraction(-4)
    assert n3.entry(3, 1) == Fraction(-4)
    with pytest.raises(DimensionError):
        n3.entry(0, 1)
    with pytest.raises(DimensionError):
        n3.entry(1, 4)


@st.composite
def table_matrices(draw):
    """Shapes 1x1 to 5x5 (1 x n and m x 1 included), mixed denominators, some rows
    and columns repeats of earlier ones (so that inner minors vanish without a
    zero row), some zero rows, and in half the cases about half the entries
    zero (so that a minor whose inner minor vanishes need not vanish)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.fractions(min_value=-12, max_value=12, max_denominator=9)
    if draw(st.booleans()):
        entry = st.one_of(st.just(Fraction(0)), entry)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in range(1, m):
        if draw(st.sampled_from(("keep", "keep", "repeat"))) == "repeat":
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    for j in range(1, n):
        if draw(st.sampled_from(("keep", "keep", "repeat"))) == "repeat":
            src = draw(st.integers(0, j - 1))
            for row in rows:
                row[j] = row[src]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m // 2)):
        rows[i] = [Fraction(0)] * n
    return ExactMatrix.from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(table_matrices())
def test_minor_table_matches_cofactor_expansion(a):
    k = min(a.rows, a.cols)
    expected = {
        (rows0, cols0): det_by_cofactor_expansion(take(a, rows0, cols0))
        for size in range(1, k + 1)
        for rows0, cols0 in all_windows(a.rows, a.cols, size)
    }
    # sizes ascending expand each minor from the kept level below; sizes
    # descending on a fresh table eliminate the minors of size 3 and up
    for sizes in (range(1, k + 1), range(k, 0, -1)):
        table = MinorTable(a)
        for size in sizes:
            for rows0, cols0 in all_windows(a.rows, a.cols, size):
                assert table.scale(rows0) > 0
                assert table_value(table, rows0, cols0) == expected[rows0, cols0]


@settings(max_examples=60, deadline=None)
@given(table_matrices())
def test_minor_table_expands_along_a_named_row(a):
    table = MinorTable(a)
    for size in range(1, min(a.rows, a.cols) + 1):
        for rows0, cols0 in all_windows(a.rows, a.cols, size):
            along = 1 << rows0[sum(cols0) % size]
            value = table.minor_of_masks(sum(1 << i for i in rows0), sum(1 << j for j in cols0), along)
            assert Fraction(value, table.scale(rows0)) == det_by_cofactor_expansion(take(a, rows0, cols0))


@settings(max_examples=80, deadline=None)
@given(table_matrices(), st.data())
def test_minor_streams_match_the_per_minor_fraction_reference(a, data):
    k = data.draw(st.integers(1, min(a.rows, a.cols)))
    for stream, reference in ((minors_up_to, reference_minors_up_to), (contiguous_minors_up_to, reference_contiguous_minors_up_to)):
        records = list(stream(a, k))
        assert records == list(reference(a, k))
        assert all(type(rec.value) is Fraction for rec in records)


@pytest.mark.parametrize("cap", [lcp_module.MAX_STORED_MINORS, 40, 0])
@settings(max_examples=40, deadline=None)
@given(
    table_matrices(),
    st.lists(st.integers(1, 5), min_size=2, max_size=2),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    st.randoms(use_true_random=False),
)
@example(ExactMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]]), [1, 3], [1, -2, 3, 0, 0], random.Random(0))
def test_condensed_levels_match_the_per_minor_fraction_reference(cap, a, fills, coeffs, rng):
    """After a fill to a drawn size, ``minor_of_masks`` (windows in
    ``all_windows`` order, and shuffled) gives the minors of the per-minor
    Fraction reference, and the TNP test-vector stream off the condensation
    levels gives those minors and the numerators of a cofactor adjugate on
    every window whose minor is not 0 and on no other, whatever the table's
    cap.  Zero and repeated rows make inner minors vanish, and the example's
    determinant -2 has the inner minor 0; a cap of 40 stores the small levels
    in the table and looks the rest up past it, and a cap of 0 stores none, so
    every lookup of size 3 or more is computed alone."""
    k = min(a.rows, a.cols)
    expected = {
        (tuple(i - 1 for i in rec.rows), tuple(j - 1 for j in rec.cols)): rec.value
        for rec in reference_minors_up_to(a, k)
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcp_module, "MAX_STORED_MINORS", cap)
        tables = [MinorTable(a) for _ in range(2)]
        for table, fill in zip(tables, fills):
            table.fill(min(fill, k))
        in_order, looked_up = tables
        windows = [w for r in range(1, k + 1) for w in all_windows(a.rows, a.cols, r)]
        values = [in_order.minor_of_masks(*masks(rows0, cols0)) for rows0, cols0 in windows]
        assert [Fraction(v, in_order.scale(rows0)) for (rows0, _), v in zip(windows, values)] == list(expected.values())
        assert len(values) == len(expected)
        streamed = streamed_windows(a, k, coeffs)
        nonsingular = [w for r in range(2, k + 1) for w in all_windows(a.rows, a.cols, r) if expected[w]]
        assert [(rows0, cols0) for rows0, cols0, _, _ in streamed] == nonsingular
        assert streamed == reference_streamed_windows(a, k, coeffs)
        for rows0, cols0, v, x in streamed:
            assert Fraction(v, in_order.scale(rows0)) == expected[rows0, cols0]
        rng.shuffle(windows)
        for rows0, cols0 in windows:
            v = looked_up.minor_of_masks(sum(1 << i for i in rows0), sum(1 << j for j in cols0))
            assert Fraction(v, looked_up.scale(rows0)) == expected[rows0, cols0]
        assert all(stored_minors(table) <= cap for table in tables)


def test_minor_streams_build_no_minor_table():
    a = ExactMatrix.from_rows([[-1, Fraction(-2, 3), -4], [Fraction(-5, 2), -3, -5], [-4, -5, Fraction(-6, 7)]])
    with built_tables() as tables:
        assert len(list(minors_up_to(a, 3))) == 19
        assert len(list(contiguous_minors_up_to(a, 3))) == 14
    assert not tables


def test_minor_table_beyond_its_storage_cap_still_matches(monkeypatch):
    monkeypatch.setattr(lcp_module, "MAX_STORED_MINORS", 40)
    rng = random.Random(5)
    a = ExactMatrix.from_rows([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)] for _ in range(5)])
    table = MinorTable(a)
    values = [table_value(table, tuple(i - 1 for i in rec.rows), tuple(j - 1 for j in rec.cols)) for rec in minors_up_to(a, 5)]
    assert values == [rec.value for rec in minors_up_to(a, 5)]
    assert stored_minors(table) == 40


@pytest.mark.parametrize("cap", [lcp_module.MAX_STORED_MINORS, 500, 40, 0])
def test_minor_stream_at_any_table_cap_eliminates_nothing(monkeypatch, eliminations, cap):
    """The table's cap does not reach the condensation sweep, which keeps its two
    levels below at every size: at each cap a 7x7 with a repeated row (zero inner
    minors) still matches the per-minor Fraction reference, and neither it, nor a
    totally negative 7x7, nor the minor definition's scan of the latter
    eliminates a minor."""
    monkeypatch.setattr(lcp_module, "MAX_STORED_MINORS", cap)
    rng = random.Random(5)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(7)] for _ in range(7)]
    rows[5] = list(rows[2])
    a = ExactMatrix.from_rows(rows)
    expected = list(reference_minors_up_to(a, 7))
    tn = generate_tn((7, 7), 7, seed=0).matrix
    fresh = ExactMatrix(tn.rows, tn.cols, tn.entries)
    eliminations.clear()
    assert list(minors_up_to(a, 7)) == expected
    assert all(rec.value < 0 for rec in minors_up_to(tn, 7))
    assert check_by_minor_definition(fresh, ClassQuery("tn", 7)).holds
    assert eliminations == []


def test_a_12x12_sweep_condenses_every_level_from_both_levels_below(eliminations):
    """A 12x12 sweep keeps both levels below at every size, level 6 (853,776
    minors, the largest a capped caller reaches) included, whatever the table's
    cap: each level is condensed from the whole levels s - 1 and s - 2, with no
    elimination, and its minors are those a Bareiss determinant gives."""
    routes, kept = [], {}
    real = matrix_module._condensed_rows

    def route(ints, s, lower, inner):  # records the levels below that each level gets
        routes.append((s, sum(map(len, lower)), sum(map(len, inner))))
        return real(ints, s, lower, inner)

    rng = random.Random(12)
    ints = [[rng.randint(-3, 3) for _ in range(12)] for _ in range(12)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_module, "_condensed_rows", route)
        patch.setattr(lcp_module, "MAX_STORED_MINORS", 0)
        for s, level in enumerate(matrix_module._int_minor_levels(ints, 12), 1):
            if s in (6, 9, 12):
                kept[s] = level
    assert eliminations == []
    assert routes == [(s, math.comb(12, s - 1) ** 2, math.comb(12, s - 2) ** 2) for s in range(2, 13)]
    assert sum(map(len, kept[6])) == matrix_module.MAX_LEVEL_MINORS == 853_776
    for s, level in kept.items():
        row_sets = list(itertools.combinations(range(12), s))
        col_sets = list(itertools.combinations(range(12), s))
        for at in rng.sample(range(len(row_sets)), min(20, len(row_sets))):
            for c_at in rng.sample(range(len(col_sets)), min(20, len(col_sets))):
                rows = [ints[i] for i in row_sets[at]]
                assert level[at][c_at] == det_of_rows([[r[j] for j in col_sets[c_at]] for r in rows])


def test_fill_is_whole_only_while_every_level_up_to_it_is_kept(monkeypatch):
    """A fill of a 12x12 to size 12 stores levels 1-3 whole and stops at level
    4, whose 245,025 minors do not fit beside them under ``MAX_STORED_MINORS``:
    the sweep condenses nothing past level 3, and the fill is not whole, since
    the complementarity supports could miss there.  Fills to 10 and 12 stay not
    whole and draw nothing more; a fill to 3 is whole."""
    built = []
    real = matrix_module._condensed_rows
    monkeypatch.setattr(matrix_module, "_condensed_rows", lambda ints, s, *rest: built.append(s) or real(ints, s, *rest))
    rng = random.Random(12)
    table = MinorTable(ExactMatrix.from_rows([[rng.randint(-3, 3) for _ in range(12)] for _ in range(12)]))
    assert not table.fill(12)
    assert not table.fill(10)
    assert table.fill(3)
    assert built == [2, 3]
    assert levels_drawn(table) == 3
    assert stored_minors(table) == sum(math.comb(12, s) ** 2 for s in (1, 2, 3))


def test_fill_raises_when_the_sweep_ends_before_a_level_that_fits(monkeypatch):
    """With the sweep's bound below the table's cap, the sweep refuses a level
    that fits: that fill raises the refusal, and a later one, finding the sweep
    ended, raises an invariant error (not an assert) and counts no level more."""
    monkeypatch.setattr(matrix_module, "MAX_LEVEL_MINORS", 5)
    table = MinorTable(ExactMatrix.from_rows([[-1, -2, -3], [-2, -5, -7], [-3, -7, -12]]))
    with pytest.raises(ResourceLimitError):
        table.fill(2)
    with pytest.raises(InvariantError, match="ended before level 2"):
        table.fill(2)
    assert levels_drawn(table) == 1


def test_a_level_past_the_sweeps_bound_is_refused_before_it_is_built(monkeypatch):
    """On a 13x13, level 5 holds C(13, 5)^2 = 1,656,369 minors, past
    ``MAX_LEVEL_MINORS``: ``minors_up_to(a, 13)`` gives every minor of sizes 1
    to 4 and then refuses, and level 5 is never condensed.  The minor
    definition on the all-zero 13x13 (in the weak class) refuses it too, and so
    does a second call on the same matrix, which reads a sweep of its own; its
    level 1 is all 0, so its levels 2 to 4 are zeros that are not condensed,
    but the refusal still comes before level 5."""
    built = []
    real = matrix_module._condensed_rows

    def spy(ints, s, lower, inner):
        built.append(s)
        return real(ints, s, lower, inner)

    monkeypatch.setattr(matrix_module, "_condensed_rows", spy)
    rng = random.Random(13)
    a = ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(13)] for _ in range(13)])
    sizes = collections.Counter()
    with pytest.raises(ResourceLimitError, match="1656369 minors of size 5"):
        for rec in minors_up_to(a, 13):
            sizes[len(rec.rows)] += 1
    assert built == [2, 3, 4]
    assert sizes == {s: math.comb(13, s) ** 2 for s in range(1, 5)}
    zero = ExactMatrix.from_rows([[0] * 13] * 13)
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            check_by_minor_definition(zero, ClassQuery("tnp", 13))
    assert built == [2, 3, 4]


@settings(max_examples=80, deadline=None)
@given(rank_deficient_nonpositive(), st.integers(1, 4))
@example(ExactMatrix.from_rows([[0] * 4] * 3), 3)
def test_levels_above_an_all_zero_level_are_zeros_not_condensed(a, order):
    """Once every minor of some size is 0, so is every larger one: the sweep
    still gives every minor of the per-minor Fraction reference on
    rank-deficient inputs (the all-zero matrix included), and condenses the
    levels up to the first all-zero one and none above it."""
    k = min(order, a.rows, a.cols)
    built = []
    real = matrix_module._condensed_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_module, "_condensed_rows", lambda ints, s, *rest: built.append(s) or real(ints, s, *rest))
        records = list(minors_up_to(a, k))
    assert records == list(reference_minors_up_to(a, k))
    nonzero = {len(rec.rows) for rec in records if rec.value}
    first_zero = min(set(range(1, k + 1)) - nonzero, default=k + 1)
    assert nonzero == set(range(1, first_zero))
    assert built == list(range(2, min(first_zero, k) + 1))


def test_minor_stream_expands_a_minor_whose_inner_minor_is_zero(eliminations):
    """[[1, 1, 0], [1, 0, 1], [0, 1, 1]] has the inner minor 0 and the determinant
    -2, which is expanded along its first row over level 2, not eliminated."""
    a = ExactMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert list(minors_up_to(a, 3))[-1].value == -2
    assert eliminations == []


def test_minor_table_eliminates_a_large_window_without_its_subminors():
    rng = random.Random(11)
    a = ExactMatrix.from_rows([[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(24)] for _ in range(24)])
    table = MinorTable(a)
    assert table_value(table, tuple(range(24)), tuple(range(24))) == det(a)
    assert stored_minors(table) == 1


def test_matrix_rejects_non_fraction_entries():
    with pytest.raises(TypeError):
        ExactMatrix(1, 2, (0.5, 1))
    with pytest.raises(TypeError):
        ExactMatrix(1, 2, (Fraction(1), 2))
    assert ExactMatrix.from_rows([[0.5, 1]]).entries == (Fraction(1, 2), Fraction(1))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_rationals_round_trip_under_a_lowered_int_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        x = Fraction(-(10**700) - 1, 3)
        assert parse_rational(format_fraction(x)) == x
    finally:
        sys.set_int_max_str_digits(limit)


def test_rationals_beyond_the_int_str_digit_limit_round_trip():
    for x in (Fraction(10**5000 + 7), Fraction(-(3**12000), 7**5000 + 2), Fraction(-3, 4)):
        assert parse_rational(format_fraction(x)) == x
    assert format_fraction(Fraction(10**5000)) == "1" + "0" * 5000
    with pytest.raises(ValueError):
        parse_rational("1" * 5000 + ".5")


def _value_or_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"-?[0-9]{1,40}(/0*[1-9][0-9]{0,40})?", fullmatch=True))
def test_plain_rational_literals_parse_as_fraction_does(text):
    assert parse_rational(text) == Fraction(text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_plain_literals_at_the_lowest_int_str_digit_limit():
    """640 digits are read by int() at any limit; 641 take the path past the limit."""
    texts = ["7" * 640, "-" + "9" * 641, "1" * 640 + "/" + "3" * 641, "0" * 641 + "12/" + "0" * 700 + "8", "-0", "-0/7"]
    expected = [Fraction(t) for t in texts]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert [parse_rational(t) for t in texts] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_literals_other_than_plain_ratios_parse_as_fraction_does():
    for text in ("+3", " 3", "3 ", "1_0", "\u0663", "3/-4", "0.5", "1e3", "-1.5e-2", "--3", "3/", "/4", "", "x"):
        assert _value_or_error(parse_rational, text) == _value_or_error(Fraction, text), text


def test_a_zero_denominator_is_a_value_error():
    for text in ("1/0", "-5/00", "0/0", " 1/0", "+1/0", "1" * 5000 + "/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


@st.composite
def solve_windows(draw):
    """A window of size 1 to 6 in a matrix with mixed denominators, sparse or with
    a zero or a repeated row, and an alpha with non-default magnitudes and global sign."""
    r = draw(st.sampled_from(range(1, 7)))
    m, n = draw(st.integers(r, 6)), draw(st.integers(r, 6))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("dense", "sparse", "zero row", "repeated row")))
    zeros = 0.4 if kind == "sparse" else 0.0  # zero pivots make the elimination swap rows
    rows = [
        [Fraction(0) if rng.random() < zeros else Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(n)]
        for _ in range(m)
    ]
    if kind in ("zero row", "repeated row") and m > 1:
        i, j = draw(st.permutations(range(m)))[:2]
        rows[i] = [Fraction(0)] * n if kind == "zero row" else list(rows[j])
    rows0 = tuple(sorted(draw(st.permutations(range(m)))[:r]))
    cols0 = tuple(sorted(draw(st.permutations(range(n)))[:r]))
    magnitudes = draw(st.lists(st.fractions(min_value=0, max_value=7, max_denominator=5), min_size=1, max_size=4))
    if not any(magnitudes[i % len(magnitudes)] for i in range(r)):
        magnitudes[0] = Fraction(1)
    alpha = AlphaChoice.of(magnitudes, global_sign=draw(st.sampled_from((1, -1))))
    return ExactMatrix.from_rows(rows), rows0, cols0, alpha


@settings(max_examples=200, deadline=None)
@given(solve_windows())
def test_window_solve_returns_the_minor_and_the_adjugate_numerators(case):
    a, rows0, cols0, alpha = case
    r = len(rows0)
    realized = alpha.realized(r)
    lcm = math.lcm(*(v.denominator for v in realized))
    coeffs = [int(v * lcm) for v in realized]
    with built_tables() as tables:
        value, numerators = solve_window(a, rows0, cols0, coeffs)
    assert not tables
    reference = MinorTable(a)
    assert value == reference.minor_of_masks(*masks(rows0, cols0))
    if r > 1:
        assert numerators == adjugate_numerators(reference, rows0, cols0, coeffs)
    denominator = lcm * reference.scale(rows0)
    assert [Fraction(v, denominator) for v in numerators] == list(adjugate(take(a, rows0, cols0)).matvec(realized))


@st.composite
def level_cases(draw):
    """Shapes 1x1 to 6x6, the smaller side uniform in 1..6, with mixed denominators,
    sparse or with a zero or a repeated row, and an alpha with fractional
    magnitudes (some zero) and either global sign."""
    k = draw(st.integers(1, 6))
    m, n = k, draw(st.integers(k, 6))
    if draw(st.booleans()):
        m, n = n, m
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("dense", "sparse", "zero row", "repeated row")))
    zeros = 0.4 if kind == "sparse" else 0.0
    rows = [
        [Fraction(0) if rng.random() < zeros else Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(n)]
        for _ in range(m)
    ]
    if kind in ("zero row", "repeated row") and m > 1:
        i, j = draw(st.permutations(range(m)))[:2]
        rows[i] = [Fraction(0)] * n if kind == "zero row" else list(rows[j])
    magnitudes = draw(st.lists(st.fractions(min_value=0, max_value=7, max_denominator=5), min_size=1, max_size=4))
    magnitudes[0] = magnitudes[0] or Fraction(1, 3)
    alpha = AlphaChoice.of(magnitudes, global_sign=draw(st.sampled_from((1, -1))))
    return ExactMatrix.from_rows(rows), alpha


def alpha_coeffs(alpha: AlphaChoice, k: int) -> list[int]:
    """The integers c = L alpha.realized(k), L the lcm of its denominators; c[:r] is L alpha.realized(r)."""
    realized = alpha.realized(k)
    lcm = math.lcm(*(v.denominator for v in realized))
    return [int(v * lcm) for v in realized]


@pytest.mark.parametrize("cap", [lcp_module.MAX_STORED_MINORS, 40])
@settings(max_examples=60, deadline=None)
@given(level_cases())
def test_level_sweep_matches_a_fresh_table_window_by_window(cap, case):
    """Each window's minor and adjugate numerators from the TNP test-vector
    stream off the condensation levels equal a table's ``minor_of_masks`` and
    the oracle's ``adjugate_numerators`` read off the table, in ``all_windows``
    order, for every window whose minor is not 0 (the stream yields no other);
    with the table's levels stored first (a fill to the full size) and without,
    and past a storage cap."""
    a, alpha = case
    k = min(a.rows, a.cols)
    coeffs = alpha_coeffs(alpha, k)
    streamed = streamed_windows(a, k, coeffs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcp_module, "MAX_STORED_MINORS", cap)
        fresh, filled = MinorTable(a), MinorTable(a)
        filled.fill(k)
        for table in (fresh, filled):
            expected = [
                (rows0, cols0, minor, adjugate_numerators(table, rows0, cols0, coeffs[:r]))
                for r in range(2, k + 1)
                for rows0, cols0 in all_windows(a.rows, a.cols, r)
                if (minor := table.minor_of_masks(*masks(rows0, cols0)))
            ]
            assert streamed == expected
            assert stored_minors(table) <= cap


@pytest.mark.parametrize("choice", ["default", "2 1/3, negative", "drawn"])
@settings(max_examples=40, deadline=None)
@given(st.one_of(level_cases(), st.tuples(rank_deficient_nonpositive(), st.just(None))))
def test_the_level_stream_matches_the_fraction_reference_window_by_window(choice, case):
    """The TNP test-vector stream gives, window by window, the (rows0, cols0,
    minor, N) of the per-window Fraction reference: det(S) and adj(S) alpha,
    both times L scale(R), on every window with det(S) != 0.  The inputs are
    rectangular or square, sparse, with a zero or repeated row, or rank
    deficient; alpha is the default, the magnitudes (2, 1/3) with global sign
    -1, or a drawn one whose magnitudes may be 0."""
    a, drawn = case
    alpha = {"default": AlphaChoice.of([1]), "2 1/3, negative": AlphaChoice.of([2, "1/3"], global_sign=-1)}.get(choice, drawn)
    k = min(a.rows, a.cols)
    coeffs = alpha_coeffs(alpha or AlphaChoice.of([3, "1/2"]), k)
    assert streamed_windows(a, k, coeffs) == reference_streamed_windows(a, k, coeffs)


def test_a_matrix_pickles_and_copies_without_its_minor_table():
    """A matrix holds no table: a pickle or copy of one that a complementarity
    sweep has read carries its entries and cached scaled rows only, and a table
    built on the copy stores what one built on the original stores."""
    a = generate_tn((5, 5), 5, seed=0).matrix
    with built_tables() as tables:
        assert lcp_single_vector_check(a, 5).holds
    assert [matrix for matrix, _ in tables] == [a]
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert b == a and set(vars(b)) <= {"rows", "cols", "entries", "integer_rows", "_entry_signs"}
        table, original = MinorTable(b), MinorTable(a)
        assert table.fill(5) and original.fill(5) and table._values == original._values == tables[0][1]._values

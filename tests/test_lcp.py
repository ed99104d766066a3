"""Complementarity solver against re-substitution and a Cramer-rule oracle,
plus the single-vector class characterizations."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totneg import (
    ClassQuery,
    ExactMatrix,
    LCPInstance,
    ResourceLimitError,
    TnpLcpReport,
    TnpLcpStatus,
    Verdict,
    Violation,
    ViolationKind,
    check_by_minor_definition,
    lcp_single_vector_check,
    lcp_single_vector_check_variant,
    solve_lcp,
    tnp_lcp_sufficient_check,
)
from totneg import lcp, matrix
from totneg.cli import main
from totneg.errors import InvariantError
from totneg.generate import generate_near_miss, generate_tn, generate_tnp
from totneg.matrix import (
    _rows_as_scaled_ints,
    check_order,
    cofactor_minor,
    det_of_rows,
    index_sets,
    minor_det,
    parse_matrix,
)

from oracles import (
    _solve_linear,
    all_windows,
    built_tables,
    contiguous_windows,
    count_solutions_for_positive_q,
    disjoint_support_pair_check,
    generate_tn_of_order,
    has_forbidden_pattern_pair,
    identity,
    reference_pair_with_distinct_images,
    reference_support_candidates,
    scale,
    single_vector_x,
    solve_lcp_on_fractions,
    solver_tnp_sufficient_check,
    stored_minors,
    support_solutions_on_fractions,
    take,
    tnp_lcp_sampled_q,
)


def fv(*values):
    return tuple(Fraction(v) for v in values)


def verify_solution(a: ExactMatrix, q, x) -> bool:
    if any(v < 0 for v in x):
        return False
    y = [av + qv for av, qv in zip(a.matvec(x), q)]
    return all(v >= 0 for v in y) and sum(xi * yi for xi, yi in zip(x, y)) == 0


def cramer_oracle_solutions(a: ExactMatrix, q):
    """Independent enumerator restricted to instances with no singular support."""
    n = a.rows
    rows = a.row_list()
    out = set()
    if all(v >= 0 for v in q):
        out.add(tuple(Fraction(0) for _ in range(n)))
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            sub = [[rows[i][j] for j in support] for i in support]
            d = det_of_rows([r[:] for r in sub])
            if d == 0:
                return None
            xs = []
            for col in range(size):
                repl = [
                    [(-q[support[r]]) if c == col else sub[r][c] for c in range(size)]
                    for r in range(size)
                ]
                xs.append(det_of_rows(repl) / d)
            full = [Fraction(0)] * n
            for pos, val in zip(support, xs):
                full[pos] = val
            if verify_solution(a, q, full):
                out.add(tuple(full))
    return out


def test_scalar_instance_has_two_solutions():
    sols = solve_lcp(LCPInstance.of(ExactMatrix.from_rows([[-2]]), [4]))
    assert sols.is_finite
    assert sols.solutions == (fv(0), fv(2))


def test_degenerate_scalar_instance_is_infinite():
    sols = solve_lcp(LCPInstance.of(ExactMatrix.from_rows([[0]]), [0]))
    assert not sols.is_finite
    fam = sols.families[0]
    assert fam.support == (1,)
    assert fam.t_range == (Fraction(0), None)
    assert fam.particular == fv(0)


def test_zero_row_instance_reproduces_segment_family(zero_row_tnp):
    sols = solve_lcp(LCPInstance.of(zero_row_tnp, [0, 1, 1]))
    assert not sols.is_finite
    assert fv(1, 0, 0) in sols.solutions
    seg = next(f for f in sols.families if f.support == (1,))
    assert seg.t_range == (Fraction(0), Fraction(1))
    assert seg.member(Fraction(1)) == fv(1, 0, 0)
    assert seg.member(Fraction(1, 2)) == fv("1/2", 0, 0)
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
        assert verify_solution(zero_row_tnp, fv(0, 1, 1), seg.member(t))
    # beyond the segment the vector stops being feasible
    assert not verify_solution(zero_row_tnp, fv(0, 1, 1), (Fraction(2), Fraction(0), Fraction(0)))


def test_whole_quadrant_family_detected():
    zero2 = ExactMatrix.from_rows([[0, 0], [0, 0]])
    sols = solve_lcp(LCPInstance.of(zero2, [0, 0]))
    assert not sols.is_finite
    assert any(f.dimension == 2 for f in sols.families)


def test_every_reported_solution_resubstitutes():
    rng = random.Random(424)
    for _ in range(150):
        n = rng.randint(1, 4)
        a = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        q = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
        sols = solve_lcp(LCPInstance(a, q))
        for x in sols.solutions:
            assert verify_solution(a, q, x)
        for fam in sols.families:
            assert verify_solution(a, q, fam.particular)
            if fam.dimension == 1 and fam.t_range is not None:
                lo, hi = fam.t_range
                probe = []
                if lo is not None and hi is not None:
                    probe = [lo, hi, (lo + hi) / 2]
                elif lo is not None:
                    probe = [lo, lo + 3]
                elif hi is not None:
                    probe = [hi, hi - 3]
                for t in probe:
                    assert verify_solution(a, q, fam.member(t))


def test_solver_matches_cramer_oracle_on_nonsingular_instances():
    rng = random.Random(77)
    done = 0
    while done < 80:
        n = rng.randint(1, 4)
        a = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        )
        q = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n))
        oracle = cramer_oracle_solutions(a, q)
        if oracle is None:
            continue
        done += 1
        sols = solve_lcp(LCPInstance(a, q))
        assert sols.is_finite
        assert set(sols.solutions) == oracle


def test_solver_matches_cramer_oracle_at_larger_sizes():
    rng = random.Random(50)
    done = 0
    while done < 6:
        n = rng.choice((5, 6))
        a = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        )
        q = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
        oracle = cramer_oracle_solutions(a, q)
        if oracle is None:
            continue
        done += 1
        sols = solve_lcp(LCPInstance(a, q))
        assert sols.is_finite and set(sols.solutions) == oracle


def test_solver_size_cap():
    big = scale(identity(21), -1)
    with pytest.raises(ResourceLimitError):
        solve_lcp(LCPInstance.of(big, [1] * 21))


def test_count_sweep_on_negative_principal_minor_matrices(n2):
    assert count_solutions_for_positive_q(n2, 50, seed=3).always_two
    one = ExactMatrix.from_rows([[-3]])
    assert count_solutions_for_positive_q(one, 20, seed=1).always_two
    sols = solve_lcp(LCPInstance.of(one, [6]))
    assert sols.solutions == (fv(0), fv(2))


def test_count_sweep_finds_counterexample_for_positive_determinant(near_miss):
    result = count_solutions_for_positive_q(near_miss, 200, seed=1)
    assert not result.always_two
    assert result.counterexample_q is not None
    count = result.solutions.count()
    assert count is None or count != 2


def test_forbidden_pattern_pair_matching():
    sols = solve_lcp(LCPInstance.of(ExactMatrix.from_rows([[-1, -2], [-2, -5]]), [5, 10]))
    assert fv(5, 0) in sols.solutions and fv(0, 2) in sols.solutions
    assert has_forbidden_pattern_pair(sols, 2)
    with pytest.raises(ValueError):
        has_forbidden_pattern_pair(sols, 1)


def test_forbidden_pattern_pair_absent_for_plain_sets(n2):
    sols = solve_lcp(LCPInstance.of(n2, [1, 1]))
    assert not has_forbidden_pattern_pair(sols, 2)


def test_pattern_pair_from_reversal_witness(near_miss):
    # split a reversal witness into its positive/negative parts and rebuild q
    x = fv(-7, 3)
    v = near_miss.matvec(x)
    assert all(xi * vi <= 0 for xi, vi in zip(x, v))
    x_plus = tuple((abs(t) + t) / 2 for t in x)
    x_minus = tuple((abs(t) - t) / 2 for t in x)
    v_plus = tuple((abs(t) + t) / 2 for t in v)
    q = tuple(vp - av for vp, av in zip(v_plus, near_miss.matvec(x_plus)))
    assert all(t > 0 for t in q)
    sols = solve_lcp(LCPInstance(near_miss, q))
    assert x_plus in sols.solutions and x_minus in sols.solutions
    assert has_forbidden_pattern_pair(sols, 2)


def test_single_vector_check_examples(n2, n3, near_miss):
    assert lcp_single_vector_check(ExactMatrix.from_rows([[-3]]), 1).holds
    assert lcp_single_vector_check(n2, 2).holds
    assert lcp_single_vector_check(n3, 3).holds
    v = lcp_single_vector_check(near_miss, 2)
    assert not v.holds
    assert v.witness.kind is ViolationKind.LCP_SOLUTION_MISMATCH
    assert v.witness.size == 2


def test_single_vector_check_zero_entry_fails():
    v = lcp_single_vector_check(ExactMatrix.from_rows([[0]]), 1)
    assert not v.holds and v.witness.size == 1


def test_single_vector_prescribed_q_is_positive_on_certified_instances(n3):
    from totneg.generate import generate_tn

    mats = [n3] + [generate_tn((4, 4), 4, seed=900 + s).matrix for s in range(3)]
    for a in mats:
        kmax = min(a.rows, a.cols)
        table = lcp.MinorTable(a)
        for r in range(2, kmax + 1):
            for rows0, cols0 in contiguous_windows(a.rows, a.cols, r):
                sub = take(a, rows0, cols0)
                x = single_vector_x(sub)
                xs, lcm = window_vector(table, rows0, cols0)
                assert tuple(Fraction(v, lcm) for v in xs) == x
                q = sub.matvec(x)
                assert all(v > 0 for v in q)


def test_pattern_pair_equivalence_on_generated_instances():
    """Sampled positive q never yields the alternating pattern pair inside a
    certified instance, and a reversal witness always manufactures one."""
    from totneg.checks import check_tn_snr_single_vector
    from totneg.generate import generate_near_miss, generate_tn

    rng = random.Random(64)
    for s in range(4):
        a = generate_tn((3, 3), 3, seed=700 + s).matrix
        for r in (2, 3):
            for rows0, cols0 in contiguous_windows(3, 3, r):
                sub = take(a, rows0, cols0)
                for _ in range(6):
                    q = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 10)) for _ in range(r))
                    assert not has_forbidden_pattern_pair(solve_lcp(LCPInstance(sub, q)), r)
    for s in range(4):
        bad = generate_near_miss((3, 3), 3, seed=800 + s).matrix
        verdict = check_tn_snr_single_vector(bad, 3)
        assert not verdict.holds
        w = verdict.witness
        if w.vector is None or not any(w.vector):
            continue
        sub = ExactMatrix.from_rows(
            [[bad.entry(i, j) for j in w.cols] for i in w.rows]
        )
        x = w.vector
        v = sub.matvec(x)
        assert all(xi * vi <= 0 for xi, vi in zip(x, v))
        x_plus = tuple((abs(t) + t) / 2 for t in x)
        x_minus = tuple((abs(t) - t) / 2 for t in x)
        v_plus = tuple((abs(t) + t) / 2 for t in v)
        q = tuple(vp - av for vp, av in zip(v_plus, sub.matvec(x_plus)))
        assert all(t > 0 for t in q)
        sols = solve_lcp(LCPInstance(sub, q))
        assert x_plus in sols.solutions and x_minus in sols.solutions
        # the split parts carry both alternating-support patterns
        assert has_forbidden_pattern_pair(sols, sub.rows)


def test_single_vector_variant_agrees(n2, n3, near_miss):
    assert lcp_single_vector_check_variant(n3, 3, {1: 1, 3: 1}).holds
    assert lcp_single_vector_check_variant(n2, 2, {1: Fraction(5, 2)}).holds
    assert not lcp_single_vector_check_variant(near_miss, 2, {1: 1}).holds
    with pytest.raises(ValueError):
        lcp_single_vector_check_variant(n2, 2, {2: 1})
    with pytest.raises(ValueError):
        lcp_single_vector_check_variant(n2, 2, {1: 0})
    with pytest.raises(ValueError):
        lcp_single_vector_check_variant(n2, 2, {3: 1})  # nothing applies at sizes 1 and 2
    for position in (1.0, "1"):  # refused as a position, not by a TypeError from the sweep
        with pytest.raises(ValueError, match="weights are indexed by odd positions, got"):
            lcp_single_vector_check_variant(n2, 2, {position: 1})


def test_tnp_sufficient_check_single_q(n3, near_miss, zero_row_tnp):
    assert tnp_lcp_sufficient_check(n3, 3).status is TnpLcpStatus.SUFFICIENT
    rep = tnp_lcp_sufficient_check(zero_row_tnp, 3)
    assert rep.status is TnpLcpStatus.INCONCLUSIVE
    assert check_by_minor_definition(zero_row_tnp, ClassQuery("tnp", 3)).holds
    bad = tnp_lcp_sufficient_check(near_miss, 2)
    assert bad.status is TnpLcpStatus.VIOLATION
    assert bad.witness_pair is not None


def test_tnp_sufficient_check_sampled_q(near_miss, n3):
    rep = tnp_lcp_sampled_q(near_miss, 2, trials=60, seed=4)
    assert rep.status is TnpLcpStatus.VIOLATION
    ok = tnp_lcp_sampled_q(n3, 3, trials=6, seed=4)
    assert ok.status is TnpLcpStatus.INCONCLUSIVE  # sampling can never certify
    posentry = ExactMatrix.from_rows([[1]])
    assert (
        tnp_lcp_sampled_q(posentry, 1).status is TnpLcpStatus.VIOLATION
    )


def test_disjoint_support_pair_on_strict_instances(n2):
    assert disjoint_support_pair_check(n2, 50, seed=9)
    inst = generate_tn_of_order(3, 2, seed=31, positive_det=True)
    assert inst is not None
    assert disjoint_support_pair_check(inst.matrix, 100, seed=12)
    with pytest.raises(ValueError):
        disjoint_support_pair_check(ExactMatrix.from_rows([[-3]]), 5, seed=0)
    with pytest.raises(ValueError):
        disjoint_support_pair_check(identity(2), 5, seed=0)


def test_lcp_instance_validation(n3):
    with pytest.raises(Exception):
        LCPInstance.of(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]]), [1, 2])
    with pytest.raises(Exception):
        LCPInstance.of(n3, [1, 2])


def test_solver_invariants_survive_python_O(zero_row_tnp):
    """A broken invariant raises InvariantError even where -O strips asserts."""
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from totneg import lcp
        from totneg.errors import InvariantError
        from totneg.matrix import parse_lcp_input

        assert False, "asserts must be stripped in this run"
        # bounds that put the family anchor of support {1} outside the feasible set
        lcp._fm_bounds_single = lambda cons, var: ((-5, 1), None, True)
        a, q = parse_lcp_input(sys.stdin.read())
        try:
            lcp.solve_lcp(lcp.LCPInstance(a, q))
        except InvariantError as exc:
            print("raised", sys.flags.optimize, exc)
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        input=zero_row_tnp.to_text() + "q: 0 1 1\n",
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised 1 family anchor")


def solver_single_vector_check(a, k, weights, method):
    """The single-vector check with every window's solution set from the Fraction oracle."""
    check_order(a, k)
    for r in range(1, k + 1):
        if weights is not None and not any(i <= r for i in weights):
            raise ValueError(f"no weight applies to submatrices of size {r}")
        for rows0, cols0 in contiguous_windows(a.rows, a.cols, r):
            sub = take(a, rows0, cols0)
            x = single_vector_x(sub, weights)
            sols = solve_lcp_on_fractions(LCPInstance(sub, sub.matvec(x)))
            minus_x = tuple(-v for v in x)
            if not (sols.is_finite and set(sols.solutions) == {tuple(Fraction(0) for _ in x), minus_x}):
                rows1, cols1 = tuple(i + 1 for i in rows0), tuple(j + 1 for j in cols0)
                return Verdict(False, method, Violation(ViolationKind.LCP_SOLUTION_MISMATCH, rows1, cols1, vector=minus_x))
    return Verdict(True, method)


GENERATORS = {"tn": generate_tn, "tnp": generate_tnp, "near-miss": generate_near_miss}


@st.composite
def lcp_matrices(draw):
    """1x1 to 5x5: generated tn/tnp/near-miss instances or random ones with zero
    entries, each under a positive row and column scaling (mixed denominators);
    random ones may repeat a row or a column, which makes principal blocks singular."""
    m = draw(st.sampled_from((5, 4, 3, 2, 1)))
    n = min(5, m + draw(st.sampled_from((0, 1, 2))))
    if draw(st.booleans()):
        m, n = n, m
    kind = draw(st.sampled_from(["tn", "tnp", "near-miss", "random"]))
    if kind == "random":
        entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=3, max_denominator=5))
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
        if m > 1 and draw(st.booleans()):
            rows[draw(st.integers(1, m - 1))] = list(rows[0])
        if n > 1 and draw(st.booleans()):
            j = draw(st.integers(1, n - 1))
            for row in rows:
                row[j] = row[0]
    else:
        rows = GENERATORS[kind]((m, n), min(m, n), seed=draw(st.integers(0, 40))).matrix.row_list()
    scale = st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7).filter(lambda v: v > 0)
    rs = draw(st.lists(scale, min_size=m, max_size=m))
    cs = draw(st.lists(scale, min_size=n, max_size=n))
    return ExactMatrix.from_rows([[v * rs[i] * cs[j] for j, v in enumerate(row)] for i, row in enumerate(rows)])


@settings(max_examples=150, deadline=None)
@given(lcp_matrices(), st.data())
def test_single_vector_checks_match_the_solver_on_every_window(a, data):
    """The minor-table path gives the same verdicts, witnesses and reports as
    solving every window's complementarity problem with the Fraction oracle."""
    k = data.draw(st.sampled_from(range(min(a.rows, a.cols), 0, -1)))
    assert lcp_single_vector_check(a, k) == solver_single_vector_check(a, k, None, "lcp_single_vector")
    weights = {1: Fraction(2, 3), 3: Fraction(5, 2)}
    assert lcp_single_vector_check_variant(a, k, weights) == solver_single_vector_check(
        a, k, weights, "lcp_single_vector_variant"
    )
    assert tnp_lcp_sufficient_check(a, k) == solver_tnp_sufficient_check(a, k)


def sign_patterns():
    """Matrices with a positive, a zero and a negative entry in every position:
    every pattern of 1x1 to 1x3, 3x1 and 2x2 shapes, then 2x3, 3x2 and 3x3 patterns
    drawn with a fixed seed, the magnitudes varied by position."""
    entries = (Fraction(3, 2), Fraction(0), Fraction(-2))
    for m, n in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)):
        for flat in itertools.product(entries, repeat=m * n):
            yield ExactMatrix(m, n, flat)
    rng = random.Random(16)
    for m, n in ((2, 3), (3, 2), (3, 3)):
        for _ in range(40):
            yield ExactMatrix(m, n, tuple(rng.choice(entries) * rng.randint(1, 4) for _ in range(m * n)))


def test_one_by_one_windows_are_decided_by_the_sign_of_their_entry():
    """LCP(t, -t) has exactly the solutions 0 and 1 iff t < 0, a family when t = 0,
    and no zero solution when t > 0; on every sign pattern both checks and the
    weighted variant (with and without a weight at size 1) match the solver oracles."""
    for t, solutions in ((Fraction(-2), {fv(0), fv(1)}), (Fraction(0), None), (Fraction(3, 2), {fv(1)})):
        sols = solve_lcp_on_fractions(LCPInstance.of(ExactMatrix.from_rows([[t]]), [-t]))
        assert (set(sols.solutions) if sols.is_finite else None) == solutions
    weights = {1: Fraction(2, 3), 3: Fraction(5, 2)}
    for a in sign_patterns():
        for k in range(1, min(a.rows, a.cols) + 1):
            assert lcp_single_vector_check(a, k) == solver_single_vector_check(a, k, None, "lcp_single_vector")
            assert lcp_single_vector_check_variant(a, k, weights) == solver_single_vector_check(
                a, k, weights, "lcp_single_vector_variant"
            )
            assert tnp_lcp_sufficient_check(a, k) == solver_tnp_sufficient_check(a, k)
            with pytest.raises(ValueError, match="no weight applies to submatrices of size 1"):
                lcp_single_vector_check_variant(a, k, {3: Fraction(1)})
            with pytest.raises(ValueError, match="no weight applies to submatrices of size 1"):
                solver_single_vector_check(a, k, {3: Fraction(1)}, "lcp_single_vector_variant")


def test_the_sweeps_enumerate_no_support_of_a_1x1_window(monkeypatch, zero_row_tnp):
    """The support enumerator sees windows of size 2 and up only, on inputs whose
    sweeps pass every 1x1 window: TN instances and non-positive ones with zeros."""
    sizes = []
    real = lcp._support_candidates

    def spy(table, rows0, cols0, *args):
        sizes.append(len(rows0))
        return real(table, rows0, cols0, *args)

    monkeypatch.setattr(lcp, "_support_candidates", spy)
    tn = generate_tn((4, 4), 4, seed=5).matrix
    assert lcp_single_vector_check(tn, 4).holds
    assert lcp_single_vector_check_variant(tn, 4, {1: 1, 3: 2}).holds
    for a in (tn, zero_row_tnp, generate_tnp((4, 4), 4, seed=2).matrix):
        tnp_lcp_sufficient_check(a, min(a.rows, a.cols))
    assert sizes and min(sizes) == 2


def test_single_vector_checks_need_no_solver_even_on_singular_windows(monkeypatch, zero_row_tnp):
    a = generate_tn((6, 6), 6, seed=2).matrix

    def refuse(inst):
        raise AssertionError("solve_lcp called")

    monkeypatch.setattr(lcp, "solve_lcp", refuse)
    assert lcp_single_vector_check(a, 6).holds
    # a zero entry is a zero principal minor: only that support goes to the per-support step
    assert tnp_lcp_sufficient_check(zero_row_tnp, 3).status is TnpLcpStatus.INCONCLUSIVE


def test_single_vector_check_refuses_windows_beyond_the_lcp_size(monkeypatch):
    """Both complementarity sweeps refuse a size beyond the cap before they build
    any test vector of that size."""
    a = generate_tn((4, 4), 4, seed=3).matrix
    monkeypatch.setattr(lcp, "MAX_LCP_SIZE", 3)
    sizes = []
    real = lcp._single_vector_ints

    def spy(table, terms, cols):
        sizes.append(len(cols[0]))
        return real(table, terms, cols)

    monkeypatch.setattr(lcp, "_single_vector_ints", spy)
    assert lcp_single_vector_check(a, 3).holds
    with pytest.raises(ResourceLimitError):
        lcp_single_vector_check(a, 4)
    with pytest.raises(ResourceLimitError):
        tnp_lcp_sufficient_check(a, 4)
    assert sizes and max(sizes) == 3
    with pytest.raises(ResourceLimitError):
        solve_lcp(LCPInstance(a, (Fraction(1),) * 4))


def spy_on_support_solutions(monkeypatch):
    """Record (window size, support, result) of every per-support solve; a result's
    points are integer (d, Z, W) with the solution Z / (d L) for the window's L."""
    seen = []
    real = lcp._support_solutions

    def spy(rows, q, support):
        result = real(rows, q, support)
        seen.append((len(rows), support, result))
        return result

    monkeypatch.setattr(lcp, "_support_solutions", spy)
    return seen


def index_set(idx):
    """(idx, its bit mask, the masks without one index) as the window sweeps pass them."""
    mask = sum(1 << i for i in idx)
    return tuple(idx), mask, tuple(mask ^ (1 << i) for i in idx)


def window_vector(table, rows0, cols0):
    """(X, L) of the default single-vector test vector of the window (rows0, cols0), read off the table."""
    terms, lcm = lcp._weighted_deletions(table, index_set(rows0), lcp._FIRST_ROW)
    return lcp._single_vector_ints(table, terms, index_set(cols0)), lcm


def whole_window(a):
    """(table, X, L): a fresh minor table of the square matrix, and the
    single-vector test vector of the whole matrix read off it."""
    table = lcp.MinorTable(a)
    return (table, *window_vector(table, range(a.rows), range(a.cols)))


def window_keys(table, rows0, cols0):
    """The row keys and column masks that the sweeps pass for the window (rows0, cols0)."""
    return lcp._position_keys(1 << i << table._ncols for i in rows0), lcp._position_keys(1 << j for j in cols0)


def support_candidates(table, rows0, cols0, xs, qs, whole=False):
    """The library's candidate stream of one window, called as the sweeps call it;
    ``whole`` when the table keeps every level up to the window size."""
    return lcp._support_candidates(table, rows0, cols0, xs, qs, *window_keys(table, rows0, cols0), whole)


def window_holds(table, rows0, cols0, xs):
    """The single-vector judge on one window, given what the window generator yields."""
    qs = lcp._scaled_image(table, rows0, cols0, xs)
    return lcp._window_holds(xs, qs, support_candidates(table, rows0, cols0, xs, qs))


def test_finite_singular_window_keeps_an_isolated_point_of_a_one_dimensional_kernel(monkeypatch):
    # rows 1 and 3 are equal; x = (-2, 0, -6, 0), and -x lies only on supports with a
    # singular block and a one-dimensional kernel, whose feasible parameters close to
    # one point; the window also has the solution e_4, so its images differ
    a = ExactMatrix.from_rows([[-2, 1, -1, 0], [1, 1, -2, 0], [-2, 1, -1, 0], [-1, 0, 0, -2]])
    full = (0, 1, 2, 3)
    seen = spy_on_support_solutions(monkeypatch)
    table, xs, lcm = whole_window(a)
    candidates = list(support_candidates(table, full, full, xs, lcp._scaled_image(table, full, full, xs)))
    holds = window_holds(table, full, full, xs)
    solutions = lambda points: {tuple(Fraction(z, d * lcm) for z in zs) for d, zs, _ in points}  # noqa: E731
    assert any(fv(2, 0, 6, 0) in solutions(points) and not families for _, _, (points, families) in seen)
    assert None not in candidates
    points = solutions(candidates)
    pair = lcp._pair_with_distinct_images([c for c in candidates if any(c[1])])
    # the reference loops' view of the window
    x = single_vector_x(a)
    sols = solve_lcp_on_fractions(LCPInstance(a, a.matvec(x)))
    assert sols.is_finite and points | {fv(0, 0, 0, 0)} == set(sols.solutions)
    assert holds == (set(sols.solutions) == {fv(0, 0, 0, 0), tuple(-v for v in x)}) and not holds
    nonzero = [v for v in sols.solutions if any(v)]
    first = next((u, v) for u, v in itertools.combinations(nonzero, 2) if a.matvec(u) != a.matvec(v))
    assert tuple(tuple(Fraction(z, d * lcm) for z in zs) for d, zs, _ in pair) == first == (fv(0, 0, 0, 1), fv(2, 0, 6, 0))
    assert tnp_lcp_sufficient_check(a, 4) == solver_tnp_sufficient_check(a, 4)


def test_zero_principal_block_is_decided_by_fourier_motzkin(monkeypatch):
    # rows 1 and 3 are zero: support {1, 3} has a zero 2x2 block, a two-dimensional kernel
    a = ExactMatrix.from_rows([[0, 0, 0], [-3, -1, -1], [0, 0, 0]])
    real = lcp._fm_feasible_point
    dims = []
    monkeypatch.setattr(lcp, "_fm_feasible_point", lambda cons, dim: dims.append(dim) or real(cons, dim))
    report = tnp_lcp_sufficient_check(a, 3)
    table, xs, lcm = whole_window(a)
    holds = window_holds(table, (0, 1, 2), (0, 1, 2), xs)
    assert 2 in dims
    monkeypatch.setattr(lcp, "_fm_feasible_point", real)
    assert report == solver_tnp_sufficient_check(a, 3)
    x = single_vector_x(a)
    sols = solve_lcp_on_fractions(LCPInstance(a, a.matvec(x)))
    assert holds == (sols.is_finite and set(sols.solutions) == {fv(0, 0, 0), tuple(-v for v in x)})
    assert holds  # x = 0, and FM finds nothing but 0 on the zero block


def test_a_window_ends_at_its_first_solution_family(monkeypatch):
    # a zero (1, 1) entry and q = A x = 0: support {1} already holds the ray t * e_1
    a = ExactMatrix.from_rows([[0, -1, -2], [0, -1, -2], [0, -1, -2]])
    full = (0, 1, 2)
    report = tnp_lcp_sufficient_check(a, 3)
    seen = spy_on_support_solutions(monkeypatch)
    table, xs, _ = whole_window(a)
    assert None in support_candidates(table, full, full, xs, lcp._scaled_image(table, full, full, xs))
    (size, support, (_, families)), = seen
    assert size == 3 and support == (0,) and families
    seen.clear()
    assert not window_holds(table, full, full, xs)
    assert len(seen) == 1
    assert report == solver_tnp_sufficient_check(a, 3)
    assert not solve_lcp_on_fractions(LCPInstance(a, a.matvec(single_vector_x(a)))).is_finite


@pytest.mark.parametrize(
    "rows",
    [
        [[0, -1, -2], [0, -1, -2], [0, -1, -2]],  # a zero column, so the skipped window holds a family
        generate_tnp((5, 5), 5, seed=1).matrix.row_list(),  # rank one: every window of size 3 or more
    ],
)
def test_the_complementarity_condition_walks_no_window_whose_test_vector_is_zero(monkeypatch, rows):
    """A window with X = 0 has q = 0: with every entry <= 0 each solution has the
    image 0, and a family needs a zero column, so the window cannot change the
    report and no support of it is solved."""
    a = ExactMatrix.from_rows(rows)
    zero = [(r0, c0) for r in range(3, a.rows + 1) for r0, c0 in all_windows(a.rows, a.cols, r)]
    table = lcp.MinorTable(a)
    assert all(not any(window_vector(table, r0, c0)[0]) for r0, c0 in zero)
    seen = spy_on_support_solutions(monkeypatch)
    report = tnp_lcp_sufficient_check(a, a.rows)
    assert not seen  # and the 2x2 windows are decided in closed form
    monkeypatch.undo()
    assert report == solver_tnp_sufficient_check(a, a.rows)


def pair_fractions(pair):
    """The solutions Z / d and slacks W / d of a pair of (d, Z, W) points."""
    return tuple((tuple(Fraction(z, d) for z in zs), tuple(Fraction(w, d) for w in ws)) for d, zs, ws in pair)


def generic_two_by_two_outcomes(a):
    """Each 2x2 window with X != 0 that the generic support stream, read from size
    2 as the condition reads larger windows, does not pass: (Q, "family") or (Q,
    the :func:`pair_fractions` of the pair with distinct images)."""
    out = {}
    for rows0, cols0, xs, _, qs, candidates in lcp._lcp_windows(a, 2, False):
        if not any(xs):
            continue
        assert min(qs) >= 0  # 0 solves every such window
        nonzero = []
        for cand in candidates:
            if cand is None:
                out[rows0, cols0] = qs, "family"
                break
            if any(cand[1]):
                nonzero.append(cand)
        else:
            pair = lcp._pair_with_distinct_images(nonzero)
            if pair is not None:
                out[rows0, cols0] = qs, pair_fractions(pair)
    return out


def closed_form_two_by_two_outcomes(a):
    """The same windows and outcomes from the closed form."""
    return {
        (rows0, cols0): (qs, "family" if pair is None else pair_fractions(pair))
        for rows0, cols0, qs, pair in lcp._two_by_two_windows(a)
    }


def assert_closed_form_matches(a):
    """Every order's report equals the Fraction oracle's, and, with no positive
    entry, every 2x2 window ends as the generic support stream ends it."""
    for k in range(1, min(a.rows, a.cols) + 1):
        assert tnp_lcp_sufficient_check(a, k) == solver_tnp_sufficient_check(a, k)
    if a.first_entry_violating(strict=False) is None:
        assert closed_form_two_by_two_outcomes(a) == generic_two_by_two_outcomes(a)


def test_two_by_two_windows_in_closed_form_on_every_small_pattern():
    """Every 2x2 matrix over {0, -1, -2, -3/2} under row scales {1, 1/3, 7/2}: each
    holding, family and violation case of the three-support argument, on
    integer rows of several scales."""
    values = (0, -1, -2, Fraction(-3, 2))
    scales = (1, Fraction(1, 3), Fraction(7, 2))
    seen = set()
    for a11, a12, a21, a22 in itertools.product(values, repeat=4):
        for s1, s2 in itertools.product(scales, repeat=2):
            a = ExactMatrix.from_rows([[a11 * s1, a12 * s1], [a21 * s2, a22 * s2]])
            assert_closed_form_matches(a)
            outcomes = closed_form_two_by_two_outcomes(a).values()
            seen.update(outcome if outcome == "family" else "violation" for _, outcome in outcomes)
            seen.add(tnp_lcp_sufficient_check(a, 2).status)
    assert seen == {"family", "violation", *TnpLcpStatus}


@st.composite
def nonpositive_matrices_with_repeats(draw):
    """2x2 to 4x5 matrices with no positive entry, zeros included, where a row or
    a column may repeat an earlier one up to a positive factor (so that 2x2
    determinants vanish with no zero entry); then every row over its own scale."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    entry = st.sampled_from((0, -1, -2, -3, Fraction(-5, 2), Fraction(-7, 3)))
    rows = [[Fraction(draw(entry)) for _ in range(n)] for _ in range(m)]
    factor = st.sampled_from((1, 2, Fraction(1, 2), Fraction(3, 5)))
    for i in range(1, m):
        if draw(st.booleans()):
            f = draw(factor)
            rows[i] = [f * v for v in rows[draw(st.integers(0, i - 1))]]
    for j in range(1, n):
        if draw(st.booleans()):
            f, src = draw(factor), draw(st.integers(0, j - 1))
            for row in rows:
                row[j] = f * row[src]
    rs = [draw(st.sampled_from((1, 2, Fraction(1, 3), Fraction(7, 2)))) for _ in range(m)]
    return ExactMatrix.from_rows([[v * r for v in row] for row, r in zip(rows, rs)])


@settings(max_examples=200, deadline=None)
@given(nonpositive_matrices_with_repeats())
def test_two_by_two_windows_in_closed_form_on_repeated_rows_and_columns(a):
    assert_closed_form_matches(a)


@pytest.mark.parametrize(
    "rows",
    [
        [[-1, -2], [-3, -1]],  # det < 0: holds
        [[-1, -2], [-2, -4]],  # det = 0 with no zero entry: a family
        [[-3, -1], [-1, -2]],  # det > 0: a violation
        [[0, -1, -2], [-1, -1, -2], [-1, -1, -1]],
        generate_tnp((4, 5), 4, seed=3).matrix.row_list(),
    ],
)
def test_the_complementarity_condition_solves_no_support_of_a_2x2_window(monkeypatch, rows):
    """The 2x2 windows are decided from four entries of the scaled rows: no test
    vector, candidate stream or support step at size 2, and at order 2 the
    minor table is not filled."""
    a = ExactMatrix.from_rows(rows)
    sizes = []

    def spy(name, size_of):
        real = getattr(lcp, name)
        monkeypatch.setattr(lcp, name, lambda *args: sizes.append((name, size_of(*args))) or real(*args))

    spy("_single_vector_ints", lambda table, terms, cols: len(cols[0]))
    spy("_support_candidates", lambda table, rows0, *rest: len(rows0))
    spy("_support_solutions", lambda rows, q, support: len(rows))
    filled = []
    real_fill = lcp.MinorTable.fill
    monkeypatch.setattr(lcp.MinorTable, "fill", lambda table, r: filled.append(r) or real_fill(table, r))
    order = min(a.rows, a.cols)
    reports = [tnp_lcp_sufficient_check(a, k) for k in range(2, order + 1)]
    assert all(size >= 3 for _, size in sizes)
    sizes.clear()
    filled.clear()
    fresh = ExactMatrix.from_rows(rows)
    assert tnp_lcp_sufficient_check(fresh, 2) == reports[0]
    assert not sizes and not filled
    monkeypatch.undo()
    assert reports == [solver_tnp_sufficient_check(a, k) for k in range(2, order + 1)]


def integer_step(rows, q, support):
    """The library's per-support step on the rows of [A | q] scaled to integers,
    with its points and families as the Fractions solve_lcp reports."""
    ints, _ = _rows_as_scaled_ints([[*row, v] for row, v in zip(rows, q)])
    qs = [row.pop() for row in ints]
    points, families = lcp._support_solutions(ints, qs, support)
    return [lcp._fractions(p) for p in points], [lcp._solution_family(support, f) for f in families]


def outcome(step, rows, q, support):
    """A step's (points, families), or the type of the error it raises."""
    try:
        return step(rows, q, support)
    except (ResourceLimitError, InvariantError) as exc:
        return type(exc)


def compare_every_support(rows, q):
    """Assert that the integer step equals the Fraction reference on every support;
    return the kernel shapes met: a kernel dimension, or None for an inconsistent system."""
    rows = [[Fraction(v) for v in row] for row in rows]
    q = [Fraction(v) for v in q]
    shapes = set()
    for size in range(len(rows) + 1):
        for support in itertools.combinations(range(len(rows)), size):
            assert outcome(integer_step, rows, q, support) == outcome(support_solutions_on_fractions, rows, q, support)
            particular, kernel = _solve_linear([[rows[i][j] for j in support] for i in support], [-q[i] for i in support])
            shapes.add(None if particular is None else len(kernel))
    return shapes


@st.composite
def small_systems(draw):
    """A with q, sizes 1 to 5: small integer rows, some replaced by a repeat, a
    zero row or a multiple of an earlier row, or a rank-one block u v^T on a
    leading principal block; then every row of [A | q] over its own denominator."""
    n = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    rows = [[Fraction(draw(small)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        b = draw(st.integers(1, n))
        u = [draw(small) for _ in range(b)]
        v = [draw(small) for _ in range(b)]
        for i in range(b):
            rows[i][:b] = [Fraction(u[i] * vj) for vj in v]
    for i in range(1, n):
        how = draw(st.sampled_from(("keep", "keep", "repeat", "zero", "multiple")))
        if how == "repeat":
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
        elif how == "zero":
            rows[i] = [Fraction(0)] * n
        elif how == "multiple":
            f = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
            rows[i] = [f * v for v in rows[draw(st.integers(0, i - 1))]]
    q = [Fraction(draw(small)) for _ in range(n)]
    dens = [draw(st.sampled_from((1, 2, 3, 6, 7))) for _ in range(n)]
    return [[v / d for v in row] for row, d in zip(rows, dens)], [v / d for v, d in zip(q, dens)]


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_integer_support_step_matches_the_fraction_step(system):
    """Points, families and raised errors of the integer step equal those of the
    Fraction step on every support."""
    compare_every_support(*system)


def test_integer_support_step_meets_every_kernel_shape():
    """Fixed systems on which the comparison meets inconsistent right-hand sides
    and kernels of dimension 1 to 3."""
    third = Fraction(1, 3)
    shapes = set()
    # repeated rows with different right-hand sides: inconsistent, kernel 1
    shapes |= compare_every_support([[-1, 2, 0], [-1, 2, 0], [3, -1, -2]], [1, 2, 0])
    shapes |= compare_every_support([[-1, 2, 0], [-1, 2, 0], [3, -1, -2]], [1, 1, 0])
    # a zero 2x2 block whose feasible region is a half-strip 0 <= t_1 <= 1, t_2 >= 0:
    # the Fourier-Motzkin point takes a midpoint, then a step past a lower bound
    shapes |= compare_every_support([[0, 0, -1], [0, 0, -1], [-1, 0, -1]], [0, 0, 1])
    # a zero 3x3 block with q = 0: kernel 3
    shapes |= compare_every_support([[0, 0, 0, -1], [0, 0, 0, 2], [0, 0, 0, 1], [1, -1, 2, 0]], [0, 0, 0, 1])
    # a rank-one block over mixed row denominators: kernel 2
    shapes |= compare_every_support(
        [[-1, -2, -3], [-third, -Fraction(2, 3), -1], [Fraction(-1, 2), -1, Fraction(-3, 2)]], [1, third, Fraction(1, 2)]
    )
    assert {None, 1, 2, 3} <= shapes


def test_rank_one_tnp_instance_is_checked_on_integers(monkeypatch):
    """Every minor of size 2 or more of a rank-one instance is zero, so each
    singular support of size s >= 3 has a kernel of dimension s - 1 >= 2 and is
    decided by Fourier-Motzkin; the check needs no Fraction rows of any window."""
    a = generate_tnp((5, 5), 5, seed=1).matrix
    assert all(minor_det(a, [i + 1 for i in r], [j + 1 for j in c]) == 0 for r, c in all_windows(5, 5, 2))
    expected = solver_tnp_sufficient_check(a, 5)
    a.integer_rows  # noqa: B018 -- the rows are scaled before row_list is refused

    def refuse(*args):
        raise AssertionError("a window's Fraction rows were built")

    real = lcp._fm_feasible_point
    dims = []
    monkeypatch.setattr(lcp, "_fm_feasible_point", lambda cons, dim: dims.append(dim) or real(cons, dim))
    monkeypatch.setattr(ExactMatrix, "row_list", refuse)
    monkeypatch.setattr(matrix, "submatrix", refuse)
    report = tnp_lcp_sufficient_check(a, 5)
    # the check skips every window of size 3 or more (X = 0 there), so walk the whole one
    full = (0, 1, 2, 3, 4)
    table, xs, _ = whole_window(a)
    list(support_candidates(table, full, full, xs, lcp._scaled_image(table, full, full, xs)))
    monkeypatch.undo()
    assert dims  # Fourier-Motzkin decided some support
    assert report == expected


def test_fourier_motzkin_blow_up_refuses_with_exit_3(monkeypatch, tmp_path, capsys):
    # support {1, 2} has a zero 2x2 block and the slack row -t_1 - t_2 + 1 >= 0, so
    # eliminating t_2 combines it with t_2 >= 0 into one new constraint
    path = tmp_path / "inst.txt"
    path.write_text(ExactMatrix.from_rows([[0, 0, -1], [0, 0, -1], [-1, -1, -1]]).to_text() + "q: 0 0 1\n")
    assert main(["lcp", str(path), "--enumerate", "--json"]) == 0
    monkeypatch.setattr(lcp, "_FM_CONSTRAINT_CAP", 1)
    assert main(["lcp", str(path), "--enumerate", "--json"]) == 3
    assert "Fourier-Motzkin constraint blow-up" in capsys.readouterr().err


def window_stream(enumerate_supports, table, rows0, cols0, xs=None):
    """The candidate stream of one window and the count of minors the table then
    keeps; X is the window's test vector unless given (-1 on a 1x1 window)."""
    if xs is None and len(rows0) == 1:
        xs = [-1]
    elif xs is None:
        xs, _ = window_vector(table, rows0, cols0)
    qs = lcp._scaled_image(table, rows0, cols0, xs)
    return list(enumerate_supports(table, rows0, cols0, xs, qs)), stored_minors(table)


def distinct_values(candidates):
    """The values of a candidate stream in order of first appearance, each once:
    (Z / d, W / d) per candidate and None for a solution family."""
    seen = {}
    for cand in candidates:
        if cand is None:
            seen.setdefault(None)
        else:
            d, zs, ws = cand
            seen.setdefault((tuple(Fraction(z, d) for z in zs), tuple(Fraction(w, d) for w in ws)))
    return list(seen)


def assert_streams_match(rows, windows, xs=None):
    """The kernel and the reference give the same candidate values, in the same
    order of first appearance, and read the same minors, window after window on
    one table each; the kernel yields -x once per window, the reference at every
    support that holds each position where x is nonzero."""
    new, old = (lcp.MinorTable(ExactMatrix.from_rows(rows)) for _ in range(2))
    for rows0, cols0 in windows:
        expected, expected_stored = window_stream(reference_support_candidates, old, rows0, cols0, xs)
        candidates, stored = window_stream(support_candidates, new, rows0, cols0, xs)
        assert distinct_values(candidates) == distinct_values(expected)
        assert stored == expected_stored


@st.composite
def lcp_windows(draw):
    """A matrix of up to 7x7 and one window of it, with the window's test vector or
    a drawn X: small integer entries, some rows and columns zero or repeats of
    earlier ones (singular supports), every row over its own denominator."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    small = st.integers(-3, 3)
    ints = [[draw(small) for _ in range(n)] for _ in range(m)]
    for i in range(1, m):
        how = draw(st.sampled_from(("keep", "keep", "repeat", "zero")))
        if how != "keep":
            ints[i] = list(ints[draw(st.integers(0, i - 1))]) if how == "repeat" else [0] * n
    for j in range(1, n):
        how = draw(st.sampled_from(("keep", "keep", "repeat", "zero")))
        if how != "keep":
            src = draw(st.integers(0, j - 1))
            for row in ints:
                row[j] = row[src] if how == "repeat" else 0
    dens = [draw(st.sampled_from((1, 2, 3, 6, 7))) for _ in range(m)]
    rows = [[Fraction(v, d) for v in row] for row, d in zip(ints, dens)]
    r = draw(st.integers(1, min(m, n)))
    rows0 = tuple(sorted(draw(st.lists(st.integers(0, m - 1), min_size=r, max_size=r, unique=True))))
    cols0 = tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True))))
    xs = draw(st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=r, max_size=r)))
    return rows, rows0, cols0, xs


@settings(max_examples=200, deadline=None)
@given(lcp_windows())
def test_support_plans_give_the_reference_stream_on_random_windows(window):
    rows, rows0, cols0, xs = window
    assert_streams_match(rows, [(rows0, cols0)], xs)


def every_window(a):
    """(rows0, cols0) of every window of a square matrix, sizes ascending as the sweeps read them."""
    return [
        (rows[0], cols[0])
        for r in range(1, a.rows + 1)
        for rows, cols in itertools.product(index_sets(a.rows, r), index_sets(a.cols, r))
    ]


def test_support_plans_give_the_reference_stream_on_every_window_of_certified_instances():
    """Every window of a certified 7x7 TN and of a rank-one 6x6 TNP instance (whose
    supports of size 2 or more are singular), sizes ascending as the sweeps read them."""
    for a in (generate_tn((7, 7), 7, seed=0).matrix, generate_tnp((6, 6), 6, seed=1).matrix):
        assert_streams_match(a.row_list(), every_window(a))


def test_slacks_first_on_whole_levels_give_the_reference_stream_and_store_nothing():
    """With every level up to the window size kept (``fill`` is True), the kernel
    tests the slacks first and reads lookups alone: the same candidate values as
    the reference, on every window of the certified instances, and no minor added
    to the table.  The tnp 6x6 is the singular one of seed 0 (rank 5), whose
    levels are all stored; a rank-one matrix has no stored level above its
    all-zero level 2, so ``fill`` is False there and the kernel takes the
    lookups that may miss."""
    for a in (generate_tn((7, 7), 7, seed=0).matrix, generate_tnp((6, 6), 6, seed=0).matrix):
        new, old = (lcp.MinorTable(ExactMatrix.from_rows(a.row_list())) for _ in range(2))
        for rows0, cols0 in every_window(a):
            assert new.fill(len(rows0))
            stored = stored_minors(new)
            xs = [-1] if len(rows0) == 1 else None
            candidates, after = window_stream(
                lambda *args: support_candidates(*args, whole=True), new, rows0, cols0, xs
            )
            assert after == stored
            expected, _ = window_stream(reference_support_candidates, old, rows0, cols0, xs)
            assert distinct_values(candidates) == distinct_values(expected)


def test_a_window_past_the_retained_plans_matches_the_reference():
    """A 13x13 window is enumerated from plans built as it is read, none of them kept."""
    n = 13
    assert lcp.MAX_ALL_SUBMATRIX_DIM == 12
    band = [[-(1 + i * j % 3) if abs(i - j) <= 1 else 0 for j in range(n)] for i in range(n)]
    full = tuple(range(n))
    xs = [-1] + [0] * (n - 1)
    candidates, stored = window_stream(support_candidates, lcp.MinorTable(ExactMatrix.from_rows(band)), full, full, xs)
    expected, expected_stored = window_stream(
        reference_support_candidates, lcp.MinorTable(ExactMatrix.from_rows(band)), full, full, xs
    )
    assert distinct_values(candidates) == distinct_values(expected)
    assert stored == expected_stored
    # the reference yields -x at each of the 4,096 supports that hold position 1; the
    # kernel at the first of them with d != 0 and at the 380 singular ones
    assert len(candidates) == 2428
    assert max(lcp._PLANS) <= 12


@st.composite
def candidate_lists(draw):
    """Candidates (d, Z, W) of one window: copies of a few solutions, each times some
    d > 0, whose slacks may coincide (repeated -x copies), differ (distinct images)
    or belong to an equal solution (ties in the sorted order)."""
    r = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-2, 3), min_size=r, max_size=r)
    sols = draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, 6))):
        zs, ws = draw(st.sampled_from(sols))
        d = draw(st.integers(1, 4))
        out.append((d, [v * d for v in zs], [v * d for v in ws]))
    return out


@settings(max_examples=300, deadline=None)
@given(candidate_lists())
def test_pair_with_distinct_images_matches_the_reference(candidates):
    assert lcp._pair_with_distinct_images(candidates) == reference_pair_with_distinct_images(candidates)


def test_pair_with_distinct_images_on_copies_distinct_images_and_ties():
    x = [-2, 0, -6]
    copies = [(d, [-v * d for v in x], [0, 5 * d, 0]) for d in (3, 1, 2)]
    assert lcp._pair_with_distinct_images(copies) is None
    assert reference_pair_with_distinct_images(copies) is None
    other = (1, [0, 0, 1], [2, 0, 0])
    for candidates in (copies + [other], [other] + copies):
        pair = lcp._pair_with_distinct_images(candidates)
        assert pair == reference_pair_with_distinct_images(candidates) == (other, copies[0])
    # two copies of one solution with different slacks tie in the order: the first one listed is u
    tie = [(2, [0, 0, 2], [4, 0, 0]), (1, [0, 0, 1], [1, 0, 0])]
    assert lcp._pair_with_distinct_images(tie) == reference_pair_with_distinct_images(tie) == (tie[0], tie[1])


def test_a_cold_single_vector_check_eliminates_no_more_minors(eliminations):
    """The levels up to r are drawn before the windows of size r, so every
    support minor is a lookup: a cold 7x7 check eliminates no minor and keeps
    all 3,431 (the sum over s of C(7, s)^2)."""
    a = parse_matrix(generate_tn((7, 7), 7, seed=0).matrix.to_text())
    eliminations.clear()
    with built_tables() as tables:
        assert lcp_single_vector_check(a, 7).holds
    assert eliminations == []
    (matrix_read, table), = tables
    assert matrix_read is a and stored_minors(table) == 3431

"""Generators must emit oracle-certified instances, deterministically per seed."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import totneg.checks
import totneg.generate
import totneg.matrix
from totneg import AlphaChoice, ClassQuery, ExactMatrix, check_by_minor_definition, det, minors_up_to
from totneg.checks import MAX_ALL_SUBMATRIX_DIM, SINGLE_VECTOR
from totneg.cli import main
from totneg.errors import ResourceLimitError
from totneg.generate import (
    certificate_digest,
    cross_validate,
    generate_near_miss,
    generate_tn,
    generate_tnp,
    random_rational_matrix,
    run_method,
)
from totneg.matrix import det_of_rows, parse_matrix

from oracles import (
    built_tables,
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


def test_cross_validate_builds_one_minor_table():
    """Each call builds one table, for its one complementarity sweep, and
    shares none with the next call on the same matrix."""
    a = generate_tn((4, 4), 4, seed=5).matrix
    with built_tables() as tables:
        tn = cross_validate(a, 4, "tn")
        assert [matrix for matrix, _ in tables] == [a]
        tnp = cross_validate(a, 4, "tnp")
    assert tn.holds and tn.agree and tnp.agree
    assert [matrix for matrix, _ in tables] == [a, a] and tables[0][1] is not tables[1][1]


@st.composite
def single_vector_matrices(draw):
    """1x1 to 5x5: generated tn/tnp/near-miss instances, whose sweeps reach the
    largest windows, or random integer ones with zero and positive entries."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["tn", "tnp", "near-miss", "random"]))
    if kind == "random":
        entry = st.sampled_from([-7, -4, -3, -2, -1, -1, 0, 1])
        return ExactMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))
    generator = {"tn": generate_tn, "tnp": generate_tnp, "near-miss": generate_near_miss}[kind]
    k = min(m, n) if kind != "near-miss" else draw(st.integers(1, min(m, n)))
    return generator((m, n), k, seed=draw(st.integers(0, 20))).matrix


@settings(max_examples=100, deadline=None)
@given(single_vector_matrices(), st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_cross_validate_single_vector_outcomes_match_the_stand_alone_procedures(a, mags):
    """snr and vd decided by one shared sweep give each stand-alone procedure's
    verdict and witness: both classes, every order, the default alpha and a
    custom one of global sign -1 (``--alpha-sign -1``)."""
    method = {"snr_single_vector": "snr", "vd_single_vector": "vd"}
    for cls in ("tn", "tnp"):
        for k in range(1, min(a.rows, a.cols) + 1):
            for alpha in (None, AlphaChoice.of(mags, -1)):
                shared = [m for m in cross_validate(a, k, cls, alpha).methods if m.name in SINGLE_VECTOR]
                assert len(shared) == 2
                for outcome in shared:
                    alone = run_method(a, cls, k, method[outcome.name.removeprefix("tnp_")], alpha)
                    assert (outcome.name, outcome.holds, outcome.witness) == (alone.name, alone.holds, alone.witness)


def test_method_all_solves_each_contiguous_window_once_and_reads_each_level_once(monkeypatch):
    """Under ``--method all`` snr and vd share one sweep: the strict class solves
    every contiguous window once, and the non-positive class streams the
    test vectors off each size's condensation level once, or off none when
    level 2 is all 0 (the rank-one instance of seed 3)."""
    solved, levels = [], []
    solve, stream = totneg.checks.solve_window, totneg.checks._level_solves

    def solve_spy(a, rows0, cols0, coeffs):
        solved.append((rows0, cols0))
        return solve(a, rows0, cols0, coeffs)

    def stream_spy(a, r, *rest):
        levels.append(r)
        return stream(a, r, *rest)

    monkeypatch.setattr(totneg.checks, "solve_window", solve_spy)
    monkeypatch.setattr(totneg.checks, "_level_solves", stream_spy)
    assert cross_validate(generate_tn((4, 5), 4, seed=3).matrix, 4, "tn").holds
    runs = [(r, i, j) for r in range(2, 5) for i in range(5 - r) for j in range(6 - r)]  # 4 rows, 5 columns
    assert solved == [(tuple(range(i, i + r)), tuple(range(j, j + r))) for r, i, j in runs]
    assert levels == []  # the contiguous windows read no level
    assert cross_validate(generate_tnp((4, 5), 4, seed=2).matrix, 4, "tnp").holds
    assert levels == [2, 3, 4]
    assert cross_validate(generate_tnp((4, 5), 4, seed=3).matrix, 4, "tnp").holds
    assert levels == [2, 3, 4]


#: (class, shape, order, seed, SHA-256 of the emitted text, certificate digest,
#: attempts) as the construction on Fraction rows gave them; every byte must
#: stay.  The 5x5 tnp seeds 0, 1, 2, 5, 7 and 19 end on the zero-row, rank-one,
#: tn, duplicate-column, duplicate-row and zero-column strategies.
GOLDEN = [
    ("tn", (7, 7), 7, 0, "4f3ee47569222faae2acb25de89951aa0de973a39e833b26bd2ddf5fbd31fad4", "5534813b6ce0c055ec5d29fe14cee17bdbc2723240310779982430688d7cb3df", 1),
    ("tn", (7, 7), 7, 1, "9ef53c0a7ad80de901a57cda806d45a81753af719b09d6d87ab3ab6f794ab72a", "2382e5b6af5d05bd2ee1fdf9470a669fc6adaadd04f02fa591b8aa580936df76", 1),
    ("tn", (3, 5), 3, 4, "d8c8865a70eef0e150bf4a65abd6ff8ab552e2afc9c2f7ae130f13d502ab3492", "cfdad8fe6ee189b558ea119a3192d813b7e53bb33904514fbaf596b1617c48d9", 1),
    ("tn", (6, 2), 2, 9, "1890ab12192eb9054e9e88a59c9299dd9354be7f7a9a25b7d66a59c32383c3c0", "ca84a237bb767ec88d724ffe62e9b06bf4a0b6b964cbc98eec29351e34d1faf0", 1),
    ("tnp", (5, 5), 5, 0, "8551414d2ed857f75216d5cb815d083bed71387790c59b503489b99965c3dc7d", "b70275a8dacd8cc8d78d9c7c7bcc620c1fdac8803529d5caa5628beff6823c71", 1),
    ("tnp", (5, 5), 5, 1, "689cb3565d62e9c229a17b211a6b8806c294447ff2f4e4c58004547669e340da", "703048d0062fc8764720b0a6c8a34ea6d7307efbd3800ee86537fc737275afa2", 1),
    ("tnp", (5, 5), 5, 2, "47a3a3b6b1b1f59c1acace08bd71463e07e830d54665a1fe7af1914103e692e8", "2d0a22bd7bffdfa7ba7f08ba14db4fb3cb514d4dfed3154a8779d5c22d651cb8", 1),
    ("tnp", (5, 5), 5, 5, "efd750243e91afff2e12246a2fead56926c5b3401a23bb8eadefcc95cb3bc913", "bfe8affcc007ab60a53228594b79fa2570a6f05aae5d6a46805952d66fc3b186", 1),
    ("tnp", (5, 5), 5, 7, "8995ab065fcabfc9f54a63c727034d58435af36d3a66ce6722f279267ce10e8a", "9f733ee8888a9563893f390fb6787bfa3121452ecb82f2c7e89f52d236392f8e", 1),
    ("tnp", (5, 5), 5, 19, "ff331cab631a374a44791af54437f95540c1631526288d18db5175e62de525b6", "615a6a14c7d921c742b58551a38eec36b8aae342b36b36a4ab38d39daf981921", 1),
    ("tnp", (3, 4), 3, 2, "3ebbf224d1748c4cf8a10522d766883e1fe32f8e5bf0ef9c8bfdabbd08feb086", "db56a5b57533b676bfa26213196776f0bb157e75e8da9e2c8dc36fecd73f15b9", 1),
    ("near_miss", (3, 3), 1, 3, "0b256aa7781fb6a3c44be2a1875ab9c18fb499cbcf6eaf56a2b61844e6babb2a", "811cd342ef4247d5068237fd4b5e59df3da36daaf051ce3eb23067040466d295", 1),
    ("near_miss", (4, 4), 2, 8, "ab1cc966630d8980e153cbca34bbbf150bc568cb3450e0cbf3d704d328e8b64e", "8cd923093550de1c28e1a29c90204469d9d4dbe75608468c987efe18af73481e", 1),
    ("near_miss", (4, 4), 3, 11, "6122a06db6ff40dd30d0b6e79effdfa4c5e27fc8577d5989f7fb98f2afa0e656", "8febb53e6342a5f525fcb60fb780de054693c1ce822645d870b66ca4dc79ddde", 2),
    ("near_miss", (5, 5), 4, 2, "5f2f0e2389721a1557507f72ce749a1fbe0d1c066d83e731831a4e306220b783", "ec0a85119a26d1f793eb5441be781743044bc65a618bbc4b55671f64aa8ade66", 2),
    ("near_miss", (6, 6), 5, 3, "2f378dd47749fe6f8ff741bfd340eddca58975f22e8e8b5de90dfbb3ed954e99", "ff0f13baaf34fe1716cbf7da016f01d94502c73a335c53d784e36447633842a3", 1),
]

GENERATORS = {"tn": generate_tn, "tnp": generate_tnp, "near_miss": generate_near_miss}


@pytest.mark.parametrize("klass,shape,k,seed,text_sha,certificate,attempts", GOLDEN)
def test_generated_instances_keep_every_byte(klass, shape, k, seed, text_sha, certificate, attempts):
    inst = GENERATORS[klass](shape, k, seed)
    assert hashlib.sha256(inst.matrix.to_text().encode()).hexdigest() == text_sha
    assert certificate_digest(inst.matrix, k) == certificate
    assert inst.certificate == certificate
    assert inst.attempts == attempts


@pytest.mark.parametrize("klass", ["tn", "tnp"])
def test_generation_condenses_its_instance_once_for_its_check_and_its_certificate(klass, tmp_path, monkeypatch):
    """``totneg generate`` checks each emitted matrix by the minor definition at
    full order and digests its certificate at the order asked for, from one
    condensation sweep: no level of the matrix's scaled rows is condensed
    twice, and the recorded certificate is ``certificate_digest``'s."""
    swept = []
    real = totneg.matrix._condensed_rows
    monkeypatch.setattr(
        totneg.matrix, "_condensed_rows", lambda ints, s, *rest: swept.append((s, [list(r) for r in ints])) or real(ints, s, *rest)
    )
    argv = ["generate", "--class", klass, "--shape", "5x5", "--order", "4", "--count", "1", "--seed", "2"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    a = parse_matrix((tmp_path / f"{klass}_5x5_k4_seed2.txt").read_text())
    sizes = [s for s, ints in swept if ints == a.integer_rows[0]]
    assert sizes == sorted(set(sizes)) and sizes[:1] == [2]
    assert f"certificate={certificate_digest(a, 4)}\n" in (tmp_path / f"{klass}_5x5_k4_seed2.meta").read_text()


def test_generation_and_its_certificate_read_minors_from_the_levels_below(eliminations):
    """Only the moved determinant and the 49 minors of the inverse are
    eliminated while building a 7x7 instance, and none while certifying it: every
    other minor comes from the two levels below it."""
    inst = generate_tn((7, 7), 7, seed=0)
    assert len(eliminations) <= 50
    eliminations.clear()
    certificate_digest(inst.matrix, 7)
    assert eliminations == []


def test_near_miss_reads_its_crossings_from_the_levels(eliminations):
    """Each window holding the moved entry reads its minor W and the entry's
    coefficient C off the condensation levels of the certified base, so a 5x5
    order-4 near miss eliminates only inside its base constructions: 52 in
    all, where reading W and C window by window eliminated 136 more."""
    inst = generate_near_miss((5, 5), 4, 2)
    near_miss = len(eliminations)
    eliminations.clear()
    rng = random.Random(2)
    for _ in range(inst.attempts):
        generate_tn((5, 5), 5, rng.randrange(2**30))
        rng.randrange(5), rng.randrange(5)
    assert near_miss == len(eliminations) == 52


class _Built(Exception):
    """Raised by the construction spy: a generator started building."""


def _construction_spy(n, rng, tries=60):
    raise _Built(n)


@pytest.mark.parametrize("klass", ["tn", "tnp", "near-miss"])
def test_generators_refuse_a_dimension_past_the_cap_before_building(klass, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(totneg.generate, "_tn_square_rows", _construction_spy)
    generate = GENERATORS[klass.replace("-", "_")]
    past = MAX_ALL_SUBMATRIX_DIM + 1
    for shape in ((past, past), (past, 1), (2, past)):
        with pytest.raises(ResourceLimitError):
            generate(shape, 1, seed=0)
    out_dir = tmp_path / "big"
    argv = ["generate", "--class", klass, "--shape", f"{past}x{past}", "--count", "1", "--seed", "0", "--out-dir", str(out_dir)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"resource cap: generation refused for dimensions beyond {MAX_ALL_SUBMATRIX_DIM}\n"
    assert not out_dir.exists()


def test_generation_at_the_cap_reaches_the_construction(monkeypatch):
    monkeypatch.setattr(totneg.generate, "_tn_square_rows", _construction_spy)
    for generate, shape in ((generate_tn, (MAX_ALL_SUBMATRIX_DIM, MAX_ALL_SUBMATRIX_DIM)), (generate_near_miss, (1, MAX_ALL_SUBMATRIX_DIM))):
        with pytest.raises(_Built):
            generate(shape, 1, seed=0)

"""CLI: file formats, exit codes, JSON reports, and offline witness re-checking."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totneg import cli
from totneg.cli import _dumps, build_parser, main
from totneg.errors import InvariantError

from oracles import built_tables


@pytest.fixture()
def files(tmp_path, n3, near_miss, zero_row_tnp, n2):
    from totneg import ExactMatrix

    paths = {}
    paths["n3"] = tmp_path / "n3.txt"
    paths["n3"].write_text(n3.to_text())
    paths["near_miss"] = tmp_path / "near_miss.txt"
    paths["near_miss"].write_text(near_miss.to_text())
    paths["tnp"] = tmp_path / "tnp.txt"
    paths["tnp"].write_text(zero_row_tnp.to_text())
    b = ExactMatrix.from_rows([[-2, -3], [-3, -2]])
    paths["hull"] = tmp_path / "hull.txt"
    paths["hull"].write_text(n2.to_text() + "\n" + b.to_text())
    paths["hull_same"] = tmp_path / "hull_same.txt"
    paths["hull_same"].write_text(n3.to_text() + "\n" + n3.to_text())
    paths["lcp"] = tmp_path / "lcp.txt"
    paths["lcp"].write_text(zero_row_tnp.to_text() + "q: 0 1 1\n")
    paths["lcp_scalar"] = tmp_path / "lcp_scalar.txt"
    paths["lcp_scalar"].write_text("1 1\n-2\nq: 4\n")
    paths["lcp_n2"] = tmp_path / "lcp_n2.txt"
    paths["lcp_n2"].write_text(n2.to_text() + "q: 1 1\n")
    return paths


def test_check_all_methods_holds(files, capsys):
    assert main(["check", str(files["n3"]), "--class", "tn", "--order", "3", "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert "verdict: holds" in out
    for name in ("minor_definition", "contiguous_minors", "snr_single_vector", "vd_single_vector", "lcp_single_vector"):
        assert name in out


def test_check_near_miss_fails_with_witness(files, capsys):
    assert main(["check", str(files["near_miss"]), "--class", "tn", "--order", "2"]) == 1
    out = capsys.readouterr().out
    assert "nonnegative_minor" in out


def test_check_tnp_example(files):
    assert main(["check", str(files["tnp"]), "--class", "tnp", "--order", "3"]) == 0


def test_check_with_alpha_flag(files):
    assert (
        main(
            [
                "check",
                str(files["n3"]),
                "--class",
                "tn",
                "--order",
                "3",
                "--method",
                "snr",
                "--alpha",
                "1 1/2 2",
                "--alpha-sign",
                "-1",
            ]
        )
        == 0
    )


def _refuse(*args, **kwargs):
    raise AssertionError("a procedure of the other class ran")


def test_tn_all_runs_no_tnp_procedure(files, monkeypatch, capsys):
    import totneg.generate

    for name in ("check_tnp_snr", "check_tnp_vd", "tnp_lcp_sufficient_check"):
        monkeypatch.setattr(totneg.generate, name, _refuse)
    assert main(["check", str(files["n3"]), "--class", "tn", "--order", "3", "--method", "all"]) == 0
    assert main(["check", str(files["near_miss"]), "--class", "tn", "--order", "2", "--method", "all"]) == 1
    assert "agreement" not in capsys.readouterr().out


def test_tnp_all_runs_no_tn_procedure(files, monkeypatch, capsys):
    import totneg.generate

    minors = totneg.generate.check_by_minor_definition

    def tnp_minors_only(a, query):
        if query.matrix_class != "tnp":
            _refuse()
        return minors(a, query)

    monkeypatch.setattr(totneg.generate, "check_by_minor_definition", tnp_minors_only)
    for name in ("check_by_contiguous_minors", "check_tn_snr_single_vector", "check_tn_vd_single_vector", "lcp_single_vector_check"):
        monkeypatch.setattr(totneg.generate, name, _refuse)
    assert main(["check", str(files["tnp"]), "--class", "tnp", "--order", "3", "--method", "all"]) == 0
    assert main(["check", str(files["near_miss"]), "--class", "tnp", "--order", "2", "--method", "all"]) == 1
    assert "agreement" not in capsys.readouterr().out


def test_tnp_all_swaps_an_alpha_only_the_tn_tests_reject(tmp_path, capsys):
    """At size 2 the magnitudes "0 0 1" realize the zero vector, which the TN
    test vectors refuse (exit 2); the non-strict class swaps any alpha that is
    not strictly positive for the default and gives its own verdict."""
    path = tmp_path / "fails_tnp.txt"
    path.write_text("3 3\n-1 -2 -3\n-2 -5 -5\n-3 -5 -6\n")
    argv = ["check", str(path), "--order", "3", "--method", "all", "--alpha", "0 0 1", "--json"]
    assert main(argv + ["--class", "tnp"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [m["name"] for m in report["methods"]] == ["minor_definition", "tnp_snr_single_vector", "tnp_vd_single_vector"]
    assert not any(m["holds"] for m in report["methods"])
    assert main(argv + ["--class", "tn"]) == 2
    assert "collapses to the zero vector" in capsys.readouterr().err


def test_lcp_sufficient_status_on_a_failing_tnp_matrix_is_a_disagreement(files, monkeypatch, capsys):
    import totneg.generate
    from totneg import TnpLcpReport, TnpLcpStatus

    argv = ["check", str(files["near_miss"]), "--class", "tnp", "--order", "2", "--json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tnp_lcp_status"] == "violation_found"
    assert "agreement" not in [m["name"] for m in report["methods"]]
    monkeypatch.setattr(
        totneg.generate, "tnp_lcp_sufficient_check", lambda a, k: TnpLcpReport(TnpLcpStatus.SUFFICIENT)
    )
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tnp_lcp_status"] == "sufficient_condition_holds"
    assert report["methods"][-1] == {"name": "agreement", "holds": False, "witness": None, "elapsed_ms": 0.0}
    assert not report["holds"]


def test_one_process_reuses_the_parser_without_leaking_state(files, capsys):
    """main builds its parser once per process; no option of one call carries into the next."""
    near = str(files["near_miss"])
    snr = ["check", near, "--class", "tn", "--order", "2", "--method", "snr", "--json"]

    def witness(argv):
        assert main(argv) == 1
        return json.loads(capsys.readouterr().out)["methods"][0]["witness"]

    default = witness(snr)
    assert witness(snr + ["--alpha", "1 3", "--alpha-sign", "-1"]) != default
    assert witness(snr) == default
    assert main(["check", near, "--class", "tn", "--order", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("minor_definition: FAILS") and out.endswith("verdict: fails\n")
    for bad in (["check", near, "--class", "tn", "--order"], ["lcp", str(files["lcp_n2"]), "--enumerate", "--single-vector"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert main(["check", str(files["n3"]), "--class", "tn", "--order", "3"]) == 0
        assert capsys.readouterr().out.endswith("verdict: holds\n")
    assert main(["lcp", str(files["lcp_n2"]), "--single-vector", "--order", "2"]) == 0


def _outcome(run, argv, capsys):
    """(exit code, stdout, stderr) of run(argv), a usage error's SystemExit included."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _top_level_main(argv):
    """``main`` as it reads argv with the top-level parser alone."""
    args = build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["frobnicate", "{near}"],
        ["--json", "check", "{near}", "--class", "tn", "--order", "2"],
        ["check", "{near}", "--order", "2"],
        ["check", "{near}", "--class", "tx", "--order", "2"],
        ["check", "{near}", "--class", "tn", "--order", "1", "--bogus"],
        ["check", "{near}", "--class", "tn", "--order", "1", "extra"],
        ["check", "{near}", "--class", "tn", "--ord", "2"],
        ["check", "-h"],
        ["check", "{near}", "--class", "tn", "--order", "x"],
        ["lcp", "{lcp_n2}", "--enumerate", "--single-vector"],
        ["hull", "{hull}", "--class", "tn", "--order", "2"],
    ],
)
def test_one_pass_parsing_matches_the_top_level_parser(files, capsys, argv):
    """Every exit code, stdout and stderr byte is what the top-level parser gives."""
    argv = [a.format(near=files["near_miss"], lcp_n2=files["lcp_n2"], hull=files["hull"]) for a in argv]
    assert _outcome(main, argv, capsys) == _outcome(_top_level_main, argv, capsys)


@pytest.mark.parametrize("command", ["check", "hull"])
def test_a_valid_command_is_parsed_once_by_its_subcommand_parser(files, monkeypatch, capsys, command):
    """A valid argv never reaches the top-level parser, and yields its namespace;
    one with arguments left over goes to it."""
    path = str(files["near_miss"] if command == "check" else files["hull"])
    argv = [command, path, "--class", "tn", "--order", "2", "--json"]
    parser, _ = cli._parsers()
    seen = []
    monkeypatch.setattr(parser, "parse_args", lambda args: seen.append(args) or build_parser().parse_args(args))
    assert cli._parse(argv) == build_parser().parse_args(argv)
    assert main(argv) == 1 and json.loads(capsys.readouterr().out)["holds"] is False
    assert seen == []
    with pytest.raises(SystemExit):
        main(argv + ["--bogus"])
    assert seen == [argv + ["--bogus"]]
    assert "totneg: error: unrecognized arguments: --bogus" in capsys.readouterr().err


def test_hull_exit_codes(files):
    assert main(["hull", str(files["hull_same"]), "--class", "tn", "--order", "3"]) == 0
    assert main(["hull", str(files["hull"]), "--class", "tn", "--order", "2"]) == 1
    assert main(["hull", str(files["hull"]), "--class", "tn", "--order", "0"]) == 2


def test_lcp_enumerate_prints_solutions(files, capsys):
    assert main(["lcp", str(files["lcp_scalar"]), "--enumerate"]) == 0
    out = capsys.readouterr().out
    assert "finite" in out and "(2)" in out.replace(", ", ",").replace("(2)", "(2)")
    assert main(["lcp", str(files["lcp"]), "--enumerate"]) == 0
    out = capsys.readouterr().out
    assert "infinite" in out and "family on support [1]" in out


def test_lcp_single_vector_mode(files):
    assert main(["lcp", str(files["lcp_n2"]), "--single-vector", "--order", "2"]) == 0
    assert main(["lcp", str(files["lcp_n2"]), "--single-vector"]) == 2


def test_parse_failure_is_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\n")
    assert main(["check", str(bad), "--class", "tn", "--order", "1"]) == 2
    missing = tmp_path / "missing.txt"
    assert main(["check", str(missing), "--class", "tn", "--order", "1"]) == 2


def test_a_line_past_the_input_is_exit_2(tmp_path, capsys):
    """A third data row under a 2 x 2 header fails check and hull with exit 2,
    as does a line after the q values of lcp: none is judged on the leading
    block alone."""
    matrix = "2 2\n-1 -2\n-3 -4\n"
    cases = [
        (["check", "--class", "tn", "--order", "2"], matrix + "5 6\n", "expected 2 data rows, found 3"),
        (["hull", "--class", "tnp", "--order", "2"], matrix + "\n" + matrix + "5 6\n", "expected 2 data rows, found 3"),
        (["lcp", "--enumerate"], matrix + "q: 1 1\n7 7\n", "expected no line after the q values"),
    ]
    for i, (argv, text, message) in enumerate(cases):
        path = tmp_path / f"extra{i}.txt"
        path.write_text(text)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert message in capsys.readouterr().err


def test_failing_verdict_with_a_long_witness_exits_1(tmp_path, capsys):
    """A witness beyond the 4,300-digit int/str limit still prints and re-checks."""
    src = tmp_path / "huge.txt"
    src.write_text("2 2\n1e5000 -1\n-1 -1\n")
    assert main(["check", str(src), "--class", "tn", "--order", "2", "--method", "minors", "--json"]) == 1
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["methods"][0]["witness"]["detail"] == "1" + "0" * 5000
    report_path = tmp_path / "huge_report.json"
    report_path.write_text(out)
    assert main(["verify-witness", str(report_path)]) == 0


def test_long_decimal_exponents_are_parse_errors(tmp_path, capsys):
    """A ten-byte entry such as 1e5000000 is refused at parse time with exit 2,
    in matrix files, in the q line and in --alpha; the bound itself is accepted."""
    from totneg.matrix import MAX_DECIMAL_EXPONENT

    entry = tmp_path / "entry.txt"
    entry.write_text("1 1\n1e5000000\n")
    assert main(["check", str(entry), "--class", "tn", "--order", "1", "--json"]) == 2
    assert "exponent" in capsys.readouterr().err
    q_line = tmp_path / "q.txt"
    q_line.write_text("1 1\n-2\nq: 4E-5000000\n")
    assert main(["lcp", str(q_line), "--enumerate"]) == 2
    edge = tmp_path / "edge.txt"
    edge.write_text(f"1 1\n-1e{MAX_DECIMAL_EXPONENT}\n")
    assert main(["check", str(edge), "--class", "tn", "--order", "1"]) == 0
    alpha = ["check", str(edge), "--class", "tn", "--order", "1", "--method", "snr", "--alpha"]
    assert main(alpha + ["1e+0_5000000"]) == 2
    assert main(alpha + [f"1e-{MAX_DECIMAL_EXPONENT}"]) == 0


def test_resource_cap_is_exit_3(tmp_path):
    rows = ["13 13"] + [" ".join(["0"] * 13) for _ in range(13)]
    big = tmp_path / "big.txt"
    big.write_text("\n".join(rows) + "\n")
    hull = tmp_path / "bighull.txt"
    hull.write_text(big.read_text() + "\n" + big.read_text())
    assert main(["hull", str(hull), "--class", "tnp", "--order", "1"]) == 3
    for cls in ("tn", "tnp"):
        assert main(["check", str(big), "--class", cls, "--order", "1", "--method", "all"]) == 3


def test_minor_enumeration_past_the_cap_is_exit_3(tmp_path, capsys):
    """``--method minors`` of either class, and ``--class tnp --method contiguous``,
    which delegates to it, refuse a dimension past 12 before any sweep, even when
    a positive entry alone fails the class (exit 1 before the refusal); the TN
    contiguous check, which reads only the contiguous windows, still decides."""
    rows = [["-1"] * 13 for _ in range(13)]
    rows[6][6] = "1"
    big = tmp_path / "big.txt"
    big.write_text("13 13\n" + "\n".join(" ".join(row) for row in rows) + "\n")
    for cls, method in (("tn", "minors"), ("tnp", "minors"), ("tnp", "contiguous")):
        assert main(["check", str(big), "--class", cls, "--order", "13", "--method", method]) == 3
        assert capsys.readouterr().err == "resource cap: all-submatrix sweep refused for dimensions beyond 12\n"
    assert main(["check", str(big), "--class", "tn", "--order", "13", "--method", "contiguous"]) == 1


def test_all_window_single_vector_checks_past_the_cap_refuse_before_the_entry_check(tmp_path, capsys):
    """The TNP sign non-reversal and variation tests sweep every window, so on a
    13x13 with a positive entry they refuse (exit 3) before the entry check, as
    ``--method minors``, ``--method all`` and the complementarity condition do;
    the TN tests read only the contiguous windows and still fail at the entry."""
    rows = [["-1"] * 13 for _ in range(13)]
    rows[6][6] = "1"
    big = tmp_path / "big.txt"
    big.write_text("13 13\n" + "\n".join(" ".join(row) for row in rows) + "\n")
    for order in ("1", "13"):
        for method in ("snr", "vd"):
            assert main(["check", str(big), "--class", "tnp", "--order", order, "--method", method]) == 3
            assert capsys.readouterr().err == "resource cap: all-submatrix sweep refused for dimensions beyond 12\n"
            assert main(["check", str(big), "--class", "tn", "--order", order, "--method", method]) == 1


def test_json_report_round_trips(files, capsys):
    assert main(["check", str(files["near_miss"]), "--class", "tn", "--order", "2", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["class"] == "tn" and report["order"] == 2
    assert report["input"]["matrix"]["entries"] == [["-1", "-2"], ["-2", "-5"]]
    assert json.loads(json.dumps(report)) == report
    failing = [m for m in report["methods"] if not m["holds"]]
    assert failing and all(m["witness"] for m in failing)


def test_verify_witness_accepts_emitted_reports(files, tmp_path, capsys):
    assert main(["check", str(files["near_miss"]), "--class", "tn", "--order", "2", "--json"]) == 1
    report_path = tmp_path / "report.json"
    report_path.write_text(capsys.readouterr().out)
    assert main(["verify-witness", str(report_path)]) == 0
    assert "all witnesses verified" in capsys.readouterr().out


def test_verify_witness_accepts_hull_reports(files, tmp_path, capsys):
    assert main(["hull", str(files["hull"]), "--class", "tn", "--order", "2", "--json"]) == 1
    report_path = tmp_path / "hull_report.json"
    report_path.write_text(capsys.readouterr().out)
    assert main(["verify-witness", str(report_path)]) == 0


def test_verify_witness_accepts_lcp_reports(tmp_path, near_miss, capsys):
    src = tmp_path / "lcp_bad.txt"
    src.write_text(near_miss.to_text() + "q: 1 1\n")
    assert main(["lcp", str(src), "--single-vector", "--order", "2", "--json"]) == 1
    report_path = tmp_path / "lcp_report.json"
    report_path.write_text(capsys.readouterr().out)
    assert main(["verify-witness", str(report_path)]) == 0


def test_verify_witness_rejects_tampered_reports(files, tmp_path, capsys):
    assert main(["check", str(files["near_miss"]), "--class", "tn", "--order", "2", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    report["input"]["matrix"]["entries"] = [["-1", "-2"], ["-2", "-1"]]
    report_path = tmp_path / "tampered.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 1


def _matrix_file(tmp_path, rows):
    path = tmp_path / f"m{len(list(tmp_path.iterdir()))}.txt"
    path.write_text(f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return path


TN2 = [[-1, -2], [-3, -1]]  # totally negative
TNP_ZERO = [[0, -4], [-1, -2]]  # totally non-positive; adj(S) (0, -1) = (-4, 0) fails the weak variation judge
NOT_TN3 = [[-3, -1, -3], [-2, -3, -3], [-3, -1, -4]]  # det -7, a positive 2x2 minor; adj(S) (1, -1, 1) = (4, -5, 0)


@pytest.mark.parametrize(
    "rows, cls, method, kind, vector, rc",
    [
        (TN2, "tn", "snr", "sign_reversal", ["1", "1"], 1),
        (TN2, "tn", "snr", "sign_reversal", ["0", "0"], 1),
        (TN2, "tn", "snr", "sign_reversal", ["1"], 1),  # a 1x1 window reverses every vector
        (TN2, "tn", "vd", "variation_increase", ["1", "1"], 1),
        (TN2, "tn", "vd", "equality_sign_clause", ["1", "1"], 1),
        (TN2, "tnp", "snr", "sign_reversal", ["0", "0"], 1),
        (TN2, "tnp", "vd", "equality_sign_clause", ["1", "1"], 1),
        (TNP_ZERO, "tnp", "vd", "equality_sign_clause", ["-4", "0"], 1),
        (NOT_TN3, "tn", "snr", "sign_reversal", ["4", "-5", "0"], 0),
    ],
)
def test_verify_witness_rechecks_a_vector_witness_with_its_procedures_judge(
    tmp_path, capsys, rows, cls, method, kind, vector, rc
):
    """A vector witness verifies only when it is the test vector adj(S) alpha of
    its window S for an alpha the class admits, or S's determinant breaks the
    class.  Every row but the last is a hand-written witness on a matrix that
    does not fail that way; the last is a genuine one off the determinant path."""
    path = _matrix_file(tmp_path, rows)
    main(["check", str(path), "--class", cls, "--order", str(len(rows)), "--method", method, "--json"])
    report = json.loads(capsys.readouterr().out)
    window = list(range(1, len(vector) + 1))
    witness = {"kind": kind, "rows": window, "cols": window, "vector": vector, "detail": None}
    report["methods"][0].update(holds=False, witness=witness)
    report_path = tmp_path / "forged.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == rc
    captured = capsys.readouterr()
    assert ("witness FAILED" in captured.err) == (rc == 1)


def test_verify_witness_accepts_every_single_vector_witness(tmp_path, capsys):
    """Every failing report verifies, and a test vector witness relabelled with
    another kind does not."""
    vector_kinds = ("sign_reversal", "variation_increase", "equality_sign_clause")
    matrices = [
        [[-1, -2], [-2, -5]],
        [[-5, -1, -13], [-8, -5, -5], [-5, -13, -1]],
        [[-1, -2, -3], [-1, -2, -1], [-3, -3, -1]],
        [[-1, -5, -1], [-3, -3, -2], [0, -1, -8]],
        [[-1, -1], [-3, -2], [-3, -2]],
    ]
    alphas = ([], ["--alpha", "1 1/2 3", "--alpha-sign", "-1"], ["--alpha", "0 1"])
    seen = set()
    for rows in matrices:
        path = _matrix_file(tmp_path, rows)
        for cls, method, alpha in itertools.product(("tn", "tnp"), ("snr", "vd"), alphas):
            if cls == "tnp" and "0 1" in alpha:
                continue
            argv = ["check", str(path), "--class", cls, "--order", str(min(len(rows), len(rows[0])))]
            if main(argv + ["--method", method, "--json", *alpha]) == 0:
                capsys.readouterr()
                continue
            out = capsys.readouterr().out
            witness = json.loads(out)["methods"][0]["witness"]
            seen.add((cls, witness["kind"]))
            report_path = tmp_path / "report.json"
            report_path.write_text(out)
            assert main(["verify-witness", str(report_path)]) == 0, (rows, cls, method, alpha)
            capsys.readouterr()
            if witness["kind"] in vector_kinds:
                report = json.loads(out)
                report["methods"][0]["witness"]["kind"] = next(k for k in vector_kinds if k != witness["kind"])
                report_path.write_text(json.dumps(report))
                assert main(["verify-witness", str(report_path)]) == 1
                assert "the judge finds" in capsys.readouterr().err
    assert {("tn", k) for k in vector_kinds} | {("tnp", "sign_reversal"), ("tnp", "equality_sign_clause")} <= seen


ORDER_2_ONLY = [[-2, -5, -3], [-7, -5, -2], [-9, -4, -1]]  # TN and TNP of order 2; det 2
VD_ORDER_2_ONLY = [[-1, -3, -4], [-2, -4, -5], [-6, -4, -3]]  # its vd witness is a variation increase


@pytest.mark.parametrize(
    "command, rows, cls, kind",
    [
        (["check", "--method", "minors"], ORDER_2_ONLY, "tn", "nonnegative_minor"),
        (["check", "--method", "minors"], ORDER_2_ONLY, "tnp", "positive_minor"),
        (["check", "--method", "snr"], ORDER_2_ONLY, "tn", "sign_reversal"),
        (["check", "--method", "vd"], VD_ORDER_2_ONLY, "tn", "variation_increase"),
        (["check", "--method", "vd"], ORDER_2_ONLY, "tnp", "equality_sign_clause"),
        (["check", "--method", "lcp"], ORDER_2_ONLY, "tn", "lcp_solution_mismatch"),
        (["hull"], ORDER_2_ONLY, "tn", "nonnegative_minor"),
        (["hull"], ORDER_2_ONLY, "tnp", "positive_minor"),
    ],
)
def test_verify_witness_rejects_a_window_above_the_reports_order(tmp_path, capsys, command, rows, cls, kind):
    """A witness of each kind that verifies in its order-3 report is rejected
    once the report claims order 2: a size-3 window shows failure only at
    orders 3 and above.  A report with a witness and no order is a usage error."""
    path = _matrix_file(tmp_path, rows)
    if command == ["hull"]:
        path.write_text(path.read_text() + "\n" + path.read_text())
    assert main([command[0], str(path), "--class", cls, "--order", "3", *command[1:], "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    witness = report["methods"][0]["witness"]
    assert (witness["violation"] if command == ["hull"] else witness)["kind"] == kind
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 0
    report["order"] = 2
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify-witness", str(report_path)]) == 1
    assert "a window of size 3 cannot fail order 2" in capsys.readouterr().err
    report["order"] = None
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 2


@pytest.mark.parametrize(
    "command, rows, cls, kind",
    [
        (["check", "--method", "minors"], [[-1, -1], [-1, -1]], "tn", "nonnegative_minor"),
        (["check", "--method", "minors"], ORDER_2_ONLY, "tnp", "positive_minor"),
        (["check", "--method", "snr"], ORDER_2_ONLY, "tn", "sign_reversal"),
        (["check", "--method", "vd"], ORDER_2_ONLY, "tnp", "equality_sign_clause"),
        (["check", "--method", "lcp"], ORDER_2_ONLY, "tn", "lcp_solution_mismatch"),
        (["hull"], ORDER_2_ONLY, "tn", "nonnegative_minor"),
        (["hull"], ORDER_2_ONLY, "tnp", "positive_minor"),
    ],
)
def test_verify_witness_rejects_a_witness_of_the_other_class(tmp_path, capsys, command, rows, cls, kind):
    """A witness of each kind that verifies in its report is rejected once the
    report names the other class: a zero minor, say, does not break total
    non-positivity.  A report with a witness and no class is a usage error."""
    path = _matrix_file(tmp_path, rows)
    if command == ["hull"]:
        path.write_text(path.read_text() + "\n" + path.read_text())
    order = str(len(rows))
    assert main([command[0], str(path), "--class", cls, "--order", order, *command[1:], "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    witness = report["methods"][0]["witness"]
    assert (witness["violation"] if command == ["hull"] else witness)["kind"] == kind
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 0
    capsys.readouterr()
    report["class"] = "tnp" if cls == "tn" else "tn"
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 1
    assert f"does not show that class {report['class']} fails" in capsys.readouterr().err
    del report["class"]
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 2


@pytest.mark.parametrize(
    "window, vector, message",
    [
        ([1, 2, 3], ["1", "0", "1"], "does not match the construction"),
        # the construction on the leading 2x2 window [[-2, -5], [-7, -5]]: -x = (5, 0)
        ([1, 2], ["5", "0"], "solution set matches after all"),
    ],
)
def test_verify_witness_rejects_a_forged_complementarity_witness(tmp_path, capsys, window, vector, message):
    """The complementarity witness of ORDER_2_ONLY at order 3 verifies; a vector
    that is not the construction, or a window whose solution set is 0 and -x, does not."""
    path = _matrix_file(tmp_path, ORDER_2_ONLY)
    assert main(["check", str(path), "--class", "tn", "--order", "3", "--method", "lcp", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    witness = report["methods"][0]["witness"]
    assert witness["kind"] == "lcp_solution_mismatch" and witness["vector"] == ["3", "0", "17"]
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 0
    capsys.readouterr()
    witness.update(rows=window, cols=window, vector=vector)
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 1
    assert message in capsys.readouterr().err


def _edited(report, path):
    """A copy of report without the key at path, or with a new value where path ends in (key, value)."""
    copy = json.loads(json.dumps(report))
    *head, last = path
    parent = copy
    for step in head:
        parent = parent[step]
    if isinstance(last, tuple):
        parent[last[0]] = last[1]
    else:
        del parent[last]
    return copy


@pytest.mark.parametrize("command", ["check", "hull"])
def test_verify_witness_refuses_a_malformed_report_as_a_usage_error(tmp_path, capsys, command):
    """Removing any key the witness checks read, or giving it a value of another
    type, is exit 2 with a message, never a traceback or exit 1."""
    path = _matrix_file(tmp_path, [[-2, -1], [-1, -2]])
    if command == "hull":
        path.write_text(path.read_text() + "\n" + path.read_text())
    assert main([command, str(path), "--class", "tn", "--order", "2", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 0
    capsys.readouterr()
    method = ["methods", 0]
    witness = method + ["witness"] + (["violation"] if command == "hull" else [])
    matrices = [["input", "matrix"]]
    if command == "hull":
        matrices = [["input", "a"], ["input", "b"], method + ["witness", "member"]]
    paths = [["input"], ["input", "kind"], ["class"], ["methods"], ["order"], *matrices]
    paths += [p + ["entries"] for p in matrices] + [method + [key] for key in ("name", "holds", "witness")]
    paths += [witness + [key] for key in ("kind", "rows", "cols", "vector", "detail")]
    if command == "hull":
        paths += [method + ["witness", key] for key in ("violation", "z", "zt")]
    mistyped = [
        [("class", ["tn"])],
        [("class", "TN")],
        [("methods", {})],
        method + [("holds", "no")],
        method + [("witness", [])],
        witness + [("rows", "12")],
        witness + [("cols", [1, "2"])],
        witness + [("vector", [1, 1])],
        witness + [("detail", 3)],
        matrices[0] + [("entries", [[-2, -1], [-1, -2]])],
    ]
    for edit in paths + mistyped:
        report_path.write_text(json.dumps(_edited(report, edit)))
        assert main(["verify-witness", str(report_path)]) == 2, edit
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err, edit
    report_path.write_text("[]")
    assert main(["verify-witness", str(report_path)]) == 2
    assert "malformed report" in capsys.readouterr().err


def test_an_unusable_alpha_is_refused_before_any_sweep(tmp_path, monkeypatch, capsys):
    import totneg.generate

    fails = _matrix_file(tmp_path, [[-1, -2, -3], [-2, -5, -5], [-3, -5, -6]])
    monkeypatch.setattr(totneg.generate, "check_by_minor_definition", _refuse)
    argv = ["check", str(fails), "--class", "tn", "--order", "3", "--method", "all", "--alpha", "0 0 1"]
    assert main(argv) == 2
    assert "collapses to the zero vector" in capsys.readouterr().err
    positive_entry = str(_matrix_file(tmp_path, [[1, -1], [-1, -1]]))
    for cls, alpha, message in (("tn", "0 0 1", "collapses"), ("tnp", "0 1", "strictly positive")):
        for method in ("snr", "vd"):
            assert main(["check", positive_entry, "--class", cls, "--order", "2", "--method", method, "--alpha", alpha]) == 2
            assert message in capsys.readouterr().err


def test_single_vector_table_is_keyed_by_each_procedures_method(n3):
    from totneg import checks

    methods = {
        checks.check_tn_snr_single_vector(n3, 3).method: "tn",
        checks.check_tn_vd_single_vector(n3).method: "tn",
        checks.check_tnp_snr(n3, 3).method: "tnp",
        checks.check_tnp_vd(n3).method: "tnp",
    }
    assert methods == {method: cls for method, (cls, _, _) in checks.SINGLE_VECTOR.items()}


def test_generate_subcommand(tmp_path, capsys):
    out = tmp_path / "gen"
    assert (
        main(
            [
                "generate",
                "--class",
                "tn",
                "--shape",
                "3x3",
                "--order",
                "3",
                "--count",
                "1",
                "--seed",
                "7",
                "--out-dir",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    txts = list(out.glob("*.txt"))
    metas = list(out.glob("*.meta"))
    assert len(txts) == 1 and len(metas) == 1
    meta = metas[0].read_text()
    assert "class=tn" in meta and "seed=7" in meta and "certificate=" in meta
    assert main(["check", str(txts[0]), "--class", "tn", "--order", "3", "--method", "minors"]) == 0
    capsys.readouterr()


def test_generate_near_miss_subcommand(tmp_path, capsys):
    out = tmp_path / "gen_nm"
    assert (
        main(
            [
                "generate",
                "--class",
                "near-miss",
                "--shape",
                "2x2",
                "--order",
                "2",
                "--count",
                "1",
                "--seed",
                "3",
                "--out-dir",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    txt = next(out.glob("*.txt"))
    assert main(["check", str(txt), "--class", "tn", "--order", "2", "--method", "minors"]) == 1
    capsys.readouterr()


def test_generate_count_zero_is_usage_error(tmp_path):
    assert (
        main(
            [
                "generate",
                "--class",
                "tn",
                "--shape",
                "2x2",
                "--count",
                "0",
                "--seed",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        == 2
    )


_json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u00e9\u20ac\U0001f600'), st.characters()))
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=-(10**400), max_value=10**400),
        st.floats(),
        st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf]),
        _json_text,
    ),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(_json_text, inner)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_report_emitter_writes_what_json_dumps_writes(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def _assert_canonical(out):
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_every_json_report_is_canonical(files, tmp_path, near_miss, capsys):
    """check (every method, both classes), hull (holding and failing, both classes) and
    lcp (both modes) write exactly what json.dumps(indent=2, sort_keys=True) writes."""
    cpm = tmp_path / "cpm.txt"
    cpm.write_text("3 2\n-2 -2\n0 0\n-2 -2\n\n3 2\n-1 -1\n0 0\n-1 -1\n")
    lcp_bad = tmp_path / "lcp_bad.txt"
    lcp_bad.write_text(near_miss.to_text() + "q: 1 1\n")
    calls = [
        (["check", str(files[name]), "--class", cls, "--order", "2", "--method", method], rc)
        for cls, holding, methods in (
            ("tn", "n3", ("minors", "contiguous", "snr", "vd", "lcp", "all")),
            ("tnp", "tnp", ("minors", "contiguous", "snr", "vd", "all")),
        )
        for name, rc in ((holding, 0), ("near_miss", 1))
        for method in methods
    ]
    calls += [
        (["hull", str(files["hull_same"]), "--class", "tn", "--order", "3"], 0),
        (["hull", str(files["hull"]), "--class", "tn", "--order", "2"], 1),
        (["hull", str(files["hull_same"]), "--class", "tnp", "--order", "3"], 0),
        (["hull", str(cpm), "--class", "tnp", "--order", "2"], 1),
        (["lcp", str(files["lcp"]), "--enumerate"], 0),
        (["lcp", str(files["lcp_scalar"]), "--enumerate"], 0),
        (["lcp", str(files["lcp_n2"]), "--single-vector", "--order", "2"], 0),
        (["lcp", str(lcp_bad), "--single-vector", "--order", "2"], 1),
    ]
    for argv, rc in calls:
        assert main(argv + ["--json"]) == rc, argv
        _assert_canonical(capsys.readouterr().out)


def test_a_zero_denominator_is_a_usage_error(files, tmp_path, capsys):
    """In --alpha and in a report handed to verify-witness, as in a matrix file."""
    near = str(files["near_miss"])
    assert main(["check", near, "--class", "tn", "--order", "2", "--alpha", "1/0 1"]) == 2
    assert "zero denominator" in capsys.readouterr().err
    assert main(["check", near, "--class", "tn", "--order", "2", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    report["methods"][0]["witness"]["detail"] = "1/0"
    report_path = tmp_path / "zero.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify-witness", str(report_path)]) == 2
    entry = tmp_path / "entry.txt"
    entry.write_text("1 1\n-1/0\n")
    assert main(["check", str(entry), "--class", "tn", "--order", "1"]) == 2


def test_verify_witness_on_a_deeply_nested_report_is_a_usage_error(tmp_path, capsys):
    """A report nested past the JSON reader's recursion limit is malformed: exit 2
    with a message, not a RecursionError traceback with exit 1, the code of a
    failed witness check."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["verify-witness", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed report: ") and "Traceback" not in err


def test_a_broken_internal_invariant_exits_4(files, monkeypatch, capsys):
    """An InvariantError marks a defect in the program, never a verdict: the
    command prints it as an internal error and exits 4, not 1."""
    import totneg.generate

    def broken(a, k):
        raise InvariantError("support solution [1] / 1 is not complementary")

    monkeypatch.setattr(totneg.generate, "lcp_single_vector_check", broken)
    assert main(["check", str(files["n3"]), "--class", "tn", "--order", "3", "--method", "lcp"]) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: support solution [1] / 1 is not complementary\n"


def test_only_a_complementarity_sweep_builds_a_minor_table(files, tmp_path, capsys):
    """Each complementarity sweep builds one minor table and no command runs
    two: ``check --method all`` of either class, ``--method lcp`` and
    ``lcp --single-vector`` build one each, and every other command builds none."""
    n3, tnp, near = str(files["n3"]), str(files["tnp"]), str(files["near_miss"])
    report = tmp_path / "lcp_report.json"
    one = [
        ["check", n3, "--class", "tn", "--order", "3", "--method", "all"],
        ["check", tnp, "--class", "tnp", "--order", "3", "--method", "all"],
        ["check", n3, "--class", "tn", "--order", "3", "--method", "lcp"],
        ["check", near, "--class", "tn", "--order", "2", "--method", "lcp", "--json"],
        ["lcp", str(files["lcp_n2"]), "--single-vector", "--order", "2"],
    ]
    none = [
        ["check", path, "--class", cls, "--order", order, "--method", method]
        for path, cls, order in ((n3, "tn", "3"), (tnp, "tnp", "3"), (near, "tn", "2"))
        for method in ("minors", "contiguous", "snr", "vd")
    ]
    none += [["hull", str(files[name]), "--class", cls, "--order", "2"] for name in ("hull", "hull_same") for cls in ("tn", "tnp")]
    none += [
        ["lcp", str(files["lcp"]), "--enumerate"],
        ["generate", "--class", "tn", "--shape", "3x3", "--count", "1", "--seed", "0", "--out-dir", str(tmp_path / "gen")],
        ["verify-witness", str(report)],
    ]
    for argv in one + none:
        with built_tables() as tables:
            assert main(argv) in (0, 1), argv
        out = capsys.readouterr().out
        if "--json" in argv:
            report.write_text(out)
        assert len(tables) == (1 if argv in one else 0), argv
    assert json.loads(report.read_text())["methods"][0]["witness"]["kind"] == "lcp_solution_mismatch"

"""Self-tests of the benchmark: deterministic inputs, a gate that catches bad
reports, and a tracer that leaves no wrapper behind.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json

import pytest

from bench import gate, measure, workloads
from bench.contention import PROBE_REF_MS, Probes
from bench.tracing import Tracer


def is_clean():
    """True when no traced binding carries a wrapper."""
    return not any(hasattr(vars(owner)[attr], "__wrapped__") for owner, attr in Tracer().targets())


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def hull_plan(tmp_path_factory):
    out = tmp_path_factory.mktemp("hull")
    return out, workloads.build("hull-sweep", 7, out)


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, hull_plan):
    first, _ = hull_plan
    workloads.build("hull-sweep", 7, tmp_path / "again")
    workloads.build("hull-sweep", 8, tmp_path / "other")
    assert _tree(first) == _tree(tmp_path / "again")
    assert _tree(first) != _tree(tmp_path / "other")


def _failing_call(calls, oracle, klass="tnp"):
    for call in calls:
        if call.klass == klass and not oracle[(call.instance.path, klass)]:
            return call
    raise AssertionError("plan has no failing entry")


def test_gate_flags_corrupted_reports(tmp_path, hull_plan):
    _, calls = hull_plan
    oracle = gate.build_oracle(calls)
    call = _failing_call(calls, oracle)
    rc, stdout, _ = measure.run_call(call)
    report = json.loads(stdout)
    assert rc == 1 and gate.check_verdict(call, rc, report, oracle) == []
    assert gate.verify_witnesses(stdout, tmp_path / "good.json") == []

    flipped = dict(report, holds=True)
    assert gate.check_verdict(call, 0, flipped, oracle)
    assert gate.check_verdict(call, 2, report, oracle)
    disagree = dict(report, methods=report["methods"] + [{"name": "agreement", "holds": False, "witness": None}])
    assert gate.check_verdict(call, rc, disagree, oracle)

    report["methods"][0]["witness"]["violation"]["detail"] = "12345/7"
    assert gate.verify_witnesses(json.dumps(report), tmp_path / "bad.json")
    assert gate.verdict_digest(rc, report) != gate.verdict_digest(rc, json.loads(stdout))


def test_digest_ignores_timings_and_seed(hull_plan):
    _, calls = hull_plan
    rc, stdout, _ = measure.run_call(calls[1])
    report = json.loads(stdout)
    moved = dict(report, elapsed_ms=report["elapsed_ms"] + 1, seed=12345)
    moved["methods"] = [dict(m, elapsed_ms=0.5) for m in report["methods"]]
    assert gate.verdict_digest(rc, moved) == gate.verdict_digest(rc, report)


def test_traced_run_restores_every_binding(hull_plan):
    _, calls = hull_plan
    tracer = Tracer()
    targets = tracer.targets()
    before = [vars(owner)[attr] for owner, attr in targets]
    with tracer.installed():
        assert not is_clean()
        keeper = measure.Gatekeeper(gate.build_oracle(calls[:8]), None)
        outcomes = measure.run_pass(calls[:8], keeper, tracer)
    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert is_clean()
    assert all(not o.problems for o in outcomes)
    metrics = tracer.layer_metrics()
    assert metrics["lcp.solve_calls"][0] == 0
    assert metrics["hull.members"][0] > 0
    assert metrics["matrix.det_calls"][0] > 0


def test_traced_names_include_the_cross_module_calls():
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr in Tracer().targets()}
    for expected in (
        ("totneg.checks", "adjugate"),
        ("totneg.lcp", "solve_lcp"),
        ("totneg.hull", "check_by_minor_definition"),
        ("ExactMatrix", "matvec"),
        ("totneg.checks", "minors_up_to"),
    ):
        assert expected in names


def test_contention_correction_scales_by_the_probes_around_a_call():
    probes = Probes()
    probes.at, probes.ms = [0.0, 100.0, 1000.0, 1100.0], [0.4, 0.8, 0.8, 0.8]
    # probes at 0 and 100 ms surround a call at 10-60 ms; the mean probe is 0.6 ms
    assert probes.correct(10.0, 50.0) == pytest.approx(50.0 * PROBE_REF_MS / 0.6)
    # a call far from every probe still counts the nearest probe on each side
    assert probes.correct(500.0, 10.0) == pytest.approx(10.0 * PROBE_REF_MS / 0.8)
    probes.take()
    assert len(probes.ms) == 5 and probes.ms[-1] > 0

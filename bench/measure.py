"""Run one workload: set up, measure a closed loop of ``totneg`` calls, gate, report.

The client is one thread calling ``totneg.cli.main`` in-process with stdout
captured; the next call starts when the previous one returns.  One call is one
verdict.  The measured phase runs whole passes over the plan, so every run
weighs every plan entry equally, and starts another pass only while it still
fits in ``--seconds``.  Every time reported is corrected for host contention
(see ``contention``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from totneg import cli

from . import gate, workloads
from .contention import Probes, now_ms
from .tracing import Tracer

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 3
#: Whole passes per untraced run; each entry's time is the median of its
#: contention-corrected samples.  Two, because a third whole pass of
#: corpus-mixed takes 6-10 s on a contended host, and the run budget has no room for it.
MIN_PASSES = 2


@dataclass
class Outcome:
    """One measured call and what the gate found."""

    call: workloads.Call
    start_ms: float
    ms: float
    problems: list[str]


@dataclass
class Gatekeeper:
    """Applies the gate to each call; remembers first reports and digests per plan entry."""

    oracle: gate.Oracle
    expected: dict[str, str] | None
    digests: dict[str, str] = field(default_factory=dict)
    failing_reports: dict[str, str] = field(default_factory=dict)

    def check(self, call: workloads.Call, rc: int | None, stdout: str) -> list[str]:
        if rc is None:
            return [stdout]
        report = gate.parse_report(stdout)
        digest = gate.verdict_digest(rc, report)
        first = self.digests.get(call.key)
        if first is not None:
            return [] if digest == first else ["output differs from an earlier call of the same entry"]
        self.digests[call.key] = digest
        problems = gate.check_verdict(call, rc, report, self.oracle)
        if self.expected is not None and self.expected.get(call.key) != digest:
            problems.append("digest differs from the one recorded for the default seed")
        if not problems and rc == 1:
            self.failing_reports[call.key] = stdout
        return problems


def run_call(call: workloads.Call) -> tuple[int | None, str, float]:
    """One verdict: (exit code or None on an uncaught exception, stdout, wall ms)."""
    out = io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(call.argv)
    except Exception:  # a crash is a failed verdict, not a failed benchmark
        return None, traceback.format_exc(), (time.perf_counter_ns() - start) / 1e6
    return rc, out.getvalue(), (time.perf_counter_ns() - start) / 1e6


def run_pass(
    calls: list[workloads.Call], keeper: Gatekeeper, tracer: Tracer | None = None, probes: Probes | None = None
) -> list[Outcome]:
    """One call per plan entry; with ``probes``, a probe after each call."""
    outcomes = []
    for call in calls:
        start = now_ms()
        if tracer is None:
            rc, stdout, ms = run_call(call)
        else:
            with tracer.verdict(call.key):
                rc, stdout, ms = run_call(call)
        if probes is not None:
            probes.take()
        outcomes.append(Outcome(call, start, ms, keeper.check(call, rc, stdout)))
    return outcomes


def verify_failing_reports(keeper: Gatekeeper, report_dir: Path) -> dict[str, list[str]]:
    """Run ``totneg verify-witness`` on the first failing report of each entry (untimed)."""
    report_dir.mkdir(parents=True, exist_ok=True)
    bad = {}
    for i, (key, text) in enumerate(sorted(keeper.failing_reports.items())):
        problems = gate.verify_witnesses(text, report_dir / f"report{i:03d}.json")
        if problems:
            bad[key] = problems
    return bad


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


Segments = list[tuple[float, float]]


def set_up(
    workload: str, seed: int, work: Path, reps: int, probes: Probes
) -> tuple[list[workloads.Call], list[Segments], bool]:
    """Build the inputs ``reps`` times, with a probe between instances.

    Returns the first plan, each set-up's timed segments as (start ms, wall ms),
    and whether all copies match.
    """
    setups, digests, plan = [], set(), None
    for rep in range(reps):
        out_dir = work / f"inputs{rep}"
        segments: Segments = []
        probes.take()
        mark = now_ms()

        def tick() -> None:
            nonlocal mark
            segments.append((mark, now_ms() - mark))
            probes.take()
            mark = now_ms()

        calls = workloads.build(workload, seed, out_dir, tick)
        tick()
        setups.append(segments)
        digests.add(_tree_digest(out_dir))
        if plan is None:
            plan = calls
    return plan, setups, len(digests) == 1


def setup_seconds(segments: Segments, probes: Probes | None = None) -> float:
    """One set-up's time: raw, or corrected for contention when given ``probes``."""
    if probes is None:
        return sum(ms for _, ms in segments) / 1000
    return sum(probes.correct(start, ms) for start, ms in segments) / 1000


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def best_times(outcomes: list[Outcome]) -> dict[str, float]:
    """Each plan entry's lowest wall time over the passes that ran it."""
    best: dict[str, float] = {}
    for o in outcomes:
        best[o.call.key] = min(o.ms, best.get(o.call.key, o.ms))
    return best


def entry_times(outcomes: list[Outcome], probes: Probes) -> dict[str, float]:
    """Each plan entry's median contention-corrected time over the passes that ran it."""
    samples: dict[str, list[float]] = {}
    for o in outcomes:
        samples.setdefault(o.call.key, []).append(probes.correct(o.start_ms, o.ms))
    return {key: statistics.median(times) for key, times in samples.items()}


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted mean of all order statistics.

    Per-entry times jump between shape clusters, so the one or two order
    statistics a plain quantile reads move by a cluster gap whenever a seed
    swaps two entries around it; the weights spread over the neighbouring
    entries (about sqrt(p(1-p)n) of them on each side).
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) if 0 < x < 1 else 0.0

    weights = []
    for i in range(n):  # Simpson's rule with 16 steps over [i/n, (i+1)/n]
        lo, h = i / n, 1 / (16 * n)
        inner = sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, 16))
        weights.append((density(lo) + inner + density(lo + 16 * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_metrics(times: list[float]) -> tuple[dict, int]:
    """End-to-end latency metrics over per-entry times, and the number of entries beyond p90."""
    p90 = hd_quantile(times, 0.9)
    metrics = {
        "verdicts_per_s": _metric(len(times) / (sum(times) / 1000), "1/s"),
        "verdict_ms.p50": _metric(hd_quantile(times, 0.5), "ms"),
        "verdict_ms.p90": _metric(p90, "ms"),
    }
    return metrics, sum(1 for t in times if t > p90)


def measure(
    calls: list[workloads.Call], keeper: Gatekeeper, seconds: float, probes: Probes
) -> tuple[list[Outcome], int]:
    """MIN_PASSES whole passes, then passes that skip the costliest twentieth of the
    plan while another fits in ``seconds``; returns the outcomes and the number of passes.

    Extra samples of cheap entries cost little, while the costliest twentieth
    takes a third of a pass or more; the entries around p90 stay in.
    """
    outcomes: list[Outcome] = []
    todo, passes = calls, 0
    start = time.perf_counter()
    probes.take()
    while True:
        outcomes += run_pass(todo, keeper, probes=probes)
        passes += 1
        best = best_times(outcomes)
        if passes == MIN_PASSES:
            cutoff = statistics.quantiles(best.values(), n=20)[18]
            todo = [c for c in calls if best[c.key] <= cutoff]
        latest = {o.call.key: o.ms for o in outcomes}  # the pace of the host right now
        next_pass = sum(latest[c.key] for c in todo) / 1000
        if passes >= MIN_PASSES and time.perf_counter() - start + next_pass > seconds:
            return outcomes, passes


def trace(calls: list[workloads.Call], keeper: Gatekeeper, trace_file: Path) -> tuple[list[Outcome], dict]:
    """One traced pass, then the same pass untraced to price the tracing; per-layer metrics."""
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(calls, keeper, tracer)
    untraced = run_pass(calls, keeper)
    trace_file.write_text(json.dumps([v.to_json() for v in tracer.verdicts]))
    traced_rate = len(traced) / (sum(o.ms for o in traced) / 1000)
    untraced_rate = len(untraced) / (sum(o.ms for o in untraced) / 1000)
    metrics = {name: _metric(v, unit) for name, (v, unit) in tracer.layer_metrics().items()}
    attempts = sum({c.instance.path: c.instance.attempts for c in calls}.values())
    metrics["generate.setup_attempts"] = _metric(attempts, "count")
    metrics["trace.verdicts_per_s"] = _metric(traced_rate, "1/s")
    metrics["trace.untraced_verdicts_per_s"] = _metric(untraced_rate, "1/s")
    metrics["trace.overhead_ratio"] = _metric(untraced_rate / traced_rate, "ratio")
    return traced + untraced, metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool, root: Path, record: bool = False) -> dict:
    """Run one workload; returns notes to print and the result object (the last output line)."""
    work = root / ".bench_work" / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    notes: list[str] = []
    problems: dict[str, list[str]] = {}
    probes = Probes()
    try:
        calls, setups, identical = set_up(workload, seed, work, 1 if traced else SETUP_REPS, probes)
        if not identical:
            problems["set-up"] = ["the same seed gave different input files"]
        keeper = Gatekeeper(gate.build_oracle(calls), None if record else gate.load_expected(workload, seed))
        if traced:
            trace_file = root / ".bench_work" / f"trace-{workload}-seed{seed}.json"
            outcomes, metrics = trace(calls, keeper, trace_file)
            notes.append(f"spans written to {trace_file.relative_to(root)}")
        else:
            outcomes, passes = measure(calls, keeper, seconds, probes)
            metrics, beyond = latency_metrics(list(entry_times(outcomes, probes).values()))
            setup_times = [setup_seconds(s, probes) for s in setups]
            metrics["setup_s"] = _metric(statistics.median(setup_times), "s")
            metrics["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            raw, _ = latency_metrics(list(best_times(outcomes).values()))
            notes += [
                f"{len(outcomes)} verdicts in {passes} passes over {len(calls)} entries, the first {MIN_PASSES} whole; "
                f"{beyond} entries beyond p90; corrected set-ups {', '.join(f'{t:.3f}' for t in setup_times)} s",
                f"uncorrected: best-pass verdicts_per_s {raw['verdicts_per_s']['value']:.4g}, "
                f"p50 {raw['verdict_ms.p50']['value']:.4g} ms, p90 {raw['verdict_ms.p90']['value']:.4g} ms; "
                f"set-ups {', '.join(f'{setup_seconds(s):.3f}' for s in setups)} s",
                f"{len(probes.ms)} probes: min {min(probes.ms):.3f} ms, median {statistics.median(probes.ms):.3f} ms",
            ]
        problems.update(verify_failing_reports(keeper, work / "reports"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad_keys = {o.call.key for o in outcomes if o.problems} | set(problems)
    failed = sum(1 for o in outcomes if o.call.key in bad_keys)
    if record and failed == 0 and not problems:
        gate.record_expected(workload, keeper.digests)
        notes.append(f"recorded {len(keeper.digests)} digests in {gate.DIGESTS_FILE.name}")
    notes += [f"FAILED {key}: {'; '.join(found)}" for key, found in sorted(problems.items())[:5]]
    notes += [f"FAILED {o.call.key}: {'; '.join(o.problems)}" for o in outcomes if o.problems][:5]
    return {
        "notes": notes,
        "result": {"correct": failed == 0 and not problems, "attempted": len(outcomes), "failed": failed, "metrics": metrics},
    }

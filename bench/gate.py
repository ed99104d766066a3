"""Correctness gate: every measured verdict is checked against an oracle.

A verdict counts as failed when its exit code is not 0 or 1, when ``--method
all`` reports an ``agreement`` failure, when ``holds`` differs from the minor
oracle computed at set-up or from the class a certified instance was generated
in, when ``totneg verify-witness`` rejects a failing report, or when its digest
(exit code, verdicts and witnesses; no timings, no seed) differs from an
earlier call of the same plan entry or from the digest recorded for the
default seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from totneg import cli
from totneg.matrix import ExactMatrix, minors_up_to, parse_matrix, parse_matrix_pair

from .workloads import Call, Instance

#: The seed whose per-call digests are recorded in ``expected_digests.json``.
DEFAULT_SEED = 0
DIGESTS_FILE = Path(__file__).resolve().parent / "expected_digests.json"

Oracle = dict[tuple[Path, str], bool]


def _minor_signs(a: ExactMatrix, k: int) -> tuple[bool, bool]:
    """(every minor up to order k is negative, every one is non-positive)."""
    tn = tnp = True
    for rec in minors_up_to(a, k):
        if rec.value > 0:
            return False, False
        if rec.value == 0:
            tn = False
    return tn, tnp


def _hull_members(a: ExactMatrix, b: ExactMatrix):
    """Every sign-word member of the hull, each once: (z, zt) and (-z, -zt) coincide."""
    m, n = a.shape
    mid = [(x + y) / 2 for x, y in zip(a.entries, b.entries)]
    rad = [abs(x - y) / 2 for x, y in zip(a.entries, b.entries)]
    for tail in itertools.product((1, -1), repeat=m + n - 1):
        word = (1,) + tail
        z, zt = word[:m], word[m:]
        yield ExactMatrix(
            m, n, tuple(mid[i * n + j] - z[i] * zt[j] * rad[i * n + j] for i in range(m) for j in range(n))
        )


def oracle_verdicts(instance: Instance) -> dict[str, bool]:
    """Minor-oracle verdicts of one input for both classes at its full order."""
    text = instance.path.read_text()
    if instance.kind == "matrix":
        tn, tnp = _minor_signs(parse_matrix(text), instance.order)
        return {"tn": tn, "tnp": tnp}
    tn = tnp = True
    for member in _hull_members(*parse_matrix_pair(text)):
        member_tn, member_tnp = _minor_signs(member, instance.order)
        tn, tnp = tn and member_tn, tnp and member_tnp
        if not tnp:
            break
    return {"tn": tn, "tnp": tnp}


def build_oracle(calls: list[Call]) -> Oracle:
    oracle: Oracle = {}
    for call in calls:
        inst = call.instance
        if (inst.path, call.klass) not in oracle:
            for klass, holds in oracle_verdicts(inst).items():
                oracle[(inst.path, klass)] = holds
    return oracle


def verdict_digest(rc: int, report: dict | None) -> str:
    """Digest of what a verdict decided: exit code, verdicts and witnesses only."""
    body: dict = {"exit": rc}
    if report is not None:
        body["holds"] = report.get("holds")
        body["methods"] = [{k: m.get(k) for k in ("name", "holds", "witness")} for m in report.get("methods", [])]
        body["tnp_lcp_status"] = report.get("tnp_lcp_status")
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def parse_report(stdout: str) -> dict | None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None


def check_verdict(call: Call, rc: int, report: dict | None, oracle: Oracle) -> list[str]:
    """Problems with one verdict; empty when it passes the gate."""
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    if report is None or not isinstance(report.get("holds"), bool):
        return ["no JSON report with a verdict"]
    problems = []
    holds = report["holds"]
    if holds != (rc == 0):
        problems.append(f"exit code {rc} contradicts holds={holds}")
    if any(m.get("name") == "agreement" for m in report.get("methods", [])):
        problems.append("procedures disagree")
    expected = oracle[(call.instance.path, call.klass)]
    if holds != expected:
        problems.append(f"holds={holds} but the minor oracle says {expected}")
    origin = call.instance.origin
    if call.instance.kind == "matrix" and origin in ("tn", "tnp") and (origin == call.klass or origin == "tn"):
        if not holds:
            problems.append(f"a generated {origin} instance fails the {call.klass} class")
    return problems


def verify_witnesses(report_text: str, path: Path) -> list[str]:
    """Re-check a failing report's witnesses offline with ``totneg verify-witness``."""
    path.write_text(report_text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["verify-witness", str(path)])
    return [] if rc == 0 else [f"verify-witness exited {rc}: {err.getvalue().strip()}"]


def load_expected(workload: str, seed: int) -> dict[str, str] | None:
    """Recorded per-call digests, when ``seed`` is the default seed."""
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads(DIGESTS_FILE.read_text())
    return recorded[workload]


def record_expected(workload: str, digests: dict[str, str]) -> None:
    recorded = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    recorded[workload] = digests
    DIGESTS_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

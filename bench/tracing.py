"""Per-layer tracing from outside the program.

While installed, a :class:`Tracer` rebinds the names ``totneg`` modules call
each other by (``totneg.checks.adjugate``, ``totneg.hull.check_by_minor_definition``,
``ExactMatrix.matvec``, ...) and a few intra-module hot names
(``totneg.matrix.det_of_rows``, ``totneg.lcp.solve_lcp``, ``totneg.hull.i_matrix``)
with wrappers that record spans.  A layer is a module of the package.  Spans
are aggregated per verdict and per (caller, callee) name, so the trace stays
small however hot a kernel is; a layer's self time is its spans' time minus
the time of the spans they caused.  Leaving the ``installed()`` block restores
every original binding.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from totneg import checks, cli, generate, hull, lcp, matrix, signs
from totneg.matrix import ExactMatrix

MODULES = (cli, generate, checks, hull, lcp, matrix, signs)

#: Intra-module bindings traced in addition to every cross-module one.
INTRA_MODULE = ((matrix, "det_of_rows"), (lcp, "solve_lcp"), (hull, "i_matrix"), (checks, "check_by_minor_definition"))

#: Hot kernel counted (calls, distinct inputs, result size) without a span of its own;
#: it only runs inside ``matrix`` spans, so its time is already that layer's.
COUNTED_ONLY = {"matrix.det_of_rows"}


def _layer(fn: Callable) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


@dataclass
class VerdictTrace:
    """Everything recorded while one verdict ran."""

    key: str
    spans: dict[tuple[str, str], list[int]] = field(default_factory=dict)  # (parent, name) -> [calls, total_ns, self_ns]
    self_ns: dict[str, int] = field(default_factory=dict)  # layer -> self time
    det_calls: int = 0
    det_inputs: set = field(default_factory=set)
    max_bits: int = 0
    minors_yielded: int = 0
    lcp_supports: int = 0
    lcp_useful: int = 0
    members: set = field(default_factory=set)

    def calls(self, name: str) -> int:
        return sum(v[0] for (_, n), v in self.spans.items() if n == name)

    def total_ns(self, name: str) -> int:
        """Inclusive time of ``name``, not counting calls nested in another call of it."""
        return sum(v[1] for (p, n), v in self.spans.items() if n == name and p != name)

    def layer_calls(self, layer: str) -> int:
        return sum(v[0] for (_, n), v in self.spans.items() if n.split(".", 1)[0] == layer)

    def to_json(self) -> dict[str, Any]:
        return {
            "verdict": self.key,
            "spans": [
                {"parent": p, "name": n, "calls": v[0], "total_ns": v[1], "self_ns": v[2]}
                for (p, n), v in sorted(self.spans.items())
            ],
            "self_ns": self.self_ns,
            "det_calls": self.det_calls,
            "det_distinct": len(self.det_inputs),
            "max_bits": self.max_bits,
            "minors_yielded": self.minors_yielded,
            "lcp_supports": self.lcp_supports,
            "lcp_useful": self.lcp_useful,
            "hull_distinct_members": len(self.members),
        }


class Tracer:
    def __init__(self) -> None:
        self.verdicts: list[VerdictTrace] = []
        self._current: VerdictTrace | None = None
        self._stack: list[list] = []  # frames: [name, layer, start_ns, child_ns]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        name, layer, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        rec = self._current
        if rec is None:
            return
        agg = rec.spans.setdefault((parent[0] if parent else "", name), [0, 0, 0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        rec.self_ns[layer] = rec.self_ns.get(layer, 0) + dur - child

    @contextlib.contextmanager
    def verdict(self, key: str) -> Iterator[None]:
        """Trace one verdict; its root span is the ``cli`` layer."""
        self._current = VerdictTrace(key)
        self._enter("cli.main", "cli")
        try:
            yield
        finally:
            self._exit()
            self.verdicts.append(self._current)
            self._current = None

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn: Callable, name: str, layer: str, after: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None and self._current is not None:
                after(self._current, args, result)
            return result

        return wrapper

    def _generator_span(self, fn: Callable, name: str, layer: str) -> Callable:
        """Time a generator across its whole iteration, one span per step."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._enter(name, layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit()
                if self._current is not None:
                    self._current.minors_yielded += 1
                yield item

        return wrapper

    def _det_counter(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(rows):
            rec = self._current
            if rec is not None:
                rec.det_calls += 1
                rec.det_inputs.add(tuple(map(tuple, rows)))
            result = fn(rows)
            if rec is not None:
                bits = max(result.numerator.bit_length(), result.denominator.bit_length())
                rec.max_bits = max(rec.max_bits, bits)
            return result

        return wrapper

    def _wrap(self, fn: Callable) -> Callable:
        layer = _layer(fn)
        name = f"{layer}.{fn.__name__}"
        if name in COUNTED_ONLY:
            return self._det_counter(fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(fn, name, layer)
        after = None
        if fn.__name__ == "solve_lcp":
            after = _count_lcp
        elif fn.__name__ == "i_matrix":
            after = _count_member
        return self._span(fn, name, layer, after)

    def targets(self) -> list[tuple[object, str]]:
        """Every (owner, attribute) the tracer rebinds."""
        found: list[tuple[object, str]] = []
        for mod in MODULES:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__.startswith("totneg.") and obj.__module__ != mod.__name__:
                    found.append((mod, attr))
        found.extend(INTRA_MODULE)
        found.append((ExactMatrix, "matvec"))
        return found

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        targets = self.targets()
        try:
            for owner, attr in targets:
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged per traced verdict (ratios over the whole run)."""
        n = max(len(self.verdicts), 1)
        vs = self.verdicts

        def per_verdict_ms(total_ns: float) -> tuple[float, str]:
            return total_ns / n / 1e6, "ms/verdict"

        def per_verdict(count: float) -> tuple[float, str]:
            return count / n, "count/verdict"

        def ratio(num: float, den: float) -> tuple[float, str]:
            return (num / den if den else 0.0), "ratio"

        def total(name: str) -> tuple[float, str]:
            return per_verdict_ms(sum(v.total_ns(name) for v in vs))

        def self_ms(layer: str) -> tuple[float, str]:
            return per_verdict_ms(sum(v.self_ns.get(layer, 0) for v in vs))

        det_calls = sum(v.det_calls for v in vs)
        member_calls = sum(v.calls("hull.i_matrix") for v in vs)
        supports = sum(v.lcp_supports for v in vs)
        return {
            "cli.self_ms": self_ms("cli"),
            "generate.cross_validate.self_ms": per_verdict_ms(
                sum(agg[2] for v in vs for (_, name), agg in v.spans.items() if name == "generate.cross_validate")
            ),
            "checks.minor_definition.ms": total("checks.check_by_minor_definition"),
            "checks.contiguous_minors.ms": total("checks.check_by_contiguous_minors"),
            "checks.tn_snr.ms": total("checks.check_tn_snr_single_vector"),
            "checks.tn_vd.ms": total("checks.check_tn_vd_single_vector"),
            "checks.tnp_snr.ms": total("checks.check_tnp_snr"),
            "checks.tnp_vd.ms": total("checks.check_tnp_vd"),
            "checks.self_ms": self_ms("checks"),
            "matrix.det_calls": per_verdict(det_calls),
            "matrix.distinct_det_ratio": ratio(sum(len(v.det_inputs) for v in vs), det_calls),
            "matrix.adjugate_calls": per_verdict(sum(v.calls("matrix.adjugate") for v in vs)),
            "matrix.minors_yielded": per_verdict(sum(v.minors_yielded for v in vs)),
            "matrix.matvec_calls": per_verdict(sum(v.calls("matrix.matvec") for v in vs)),
            "matrix.max_bits": (float(max((v.max_bits for v in vs), default=0)), "bits"),
            "matrix.self_ms": self_ms("matrix"),
            "signs.calls": per_verdict(sum(v.layer_calls("signs") for v in vs)),
            "signs.self_ms": self_ms("signs"),
            "lcp.solve_calls": per_verdict(sum(v.calls("lcp.solve_lcp") for v in vs)),
            "lcp.supports": per_verdict(supports),
            "lcp.useful_support_ratio": ratio(sum(v.lcp_useful for v in vs), supports),
            "lcp.solve.ms": total("lcp.solve_lcp"),
            "lcp.single_vector.ms": total("lcp.lcp_single_vector_check"),
            "lcp.tnp_sufficient.ms": total("lcp.tnp_lcp_sufficient_check"),
            "lcp.self_ms": self_ms("lcp"),
            "hull.tn.ms": total("hull.hull_is_totally_negative"),
            "hull.tnp.ms": total("hull.hull_is_totally_nonpositive"),
            "hull.members": per_verdict(member_calls),
            "hull.distinct_member_ratio": ratio(sum(len(v.members) for v in vs), member_calls),
            "hull.self_ms": self_ms("hull"),
        }


def _count_lcp(rec: VerdictTrace, args: tuple, result: Any) -> None:
    rec.lcp_supports += 1 << args[0].matrix.rows
    rec.lcp_useful += len(result.solutions) + len(result.families)


def _count_member(rec: VerdictTrace, args: tuple, result: ExactMatrix) -> None:
    rec.members.add(result.entries)


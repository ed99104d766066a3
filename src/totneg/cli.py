"""Command-line front end: certify matrices, hulls, and complementarity instances.

Exit codes: 0 verdict holds / success, 1 verdict fails (with witness),
2 usage or parse problem, 3 an exact sweep hit its resource cap, 4 an internal
invariant failed (a defect in the program, never a verdict).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Sequence

from .checks import (
    TN,
    TNP,
    SINGLE_VECTOR,
    AlphaChoice,
    Violation,
    ViolationKind,
    verify_vector_witness,
)
from .errors import InvariantError, ResourceLimitError
from .generate import (
    cross_validate,
    generate_near_miss,
    generate_tn,
    generate_tnp,
    run_method,
)
from .hull import IntervalHull, hull_is_totally_negative, hull_is_totally_nonpositive, i_matrix
from .lcp import (
    LCPInstance,
    lcp_single_vector_check,
    solve_lcp,
)
from .matrix import (
    ExactMatrix,
    cofactor_minor,
    format_fraction,
    minor_det,
    parse_lcp_input,
    parse_matrix,
    parse_matrix_pair,
    parse_rational,
    submatrix,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _matrix_json(a: ExactMatrix) -> dict[str, Any]:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[format_fraction(v) for v in row] for row in a.row_list()],
    }


def _key(obj: Any, key: str, kind: type | tuple[type, ...], item: type | None = None) -> Any:
    """``obj[key]`` if it is a ``kind`` (a list of ``item`` when item is given); else a ValueError."""
    value = obj.get(key, ...) if isinstance(obj, dict) else ...
    if not isinstance(value, kind) or item is not None and not all(isinstance(x, item) for x in value or ()):
        raise ValueError(f"malformed report: key {key!r} is missing or of the wrong type")
    return value


def _matrix_from_json(obj: Any) -> ExactMatrix:
    rows = _key(obj, "entries", list, list)
    if not all(isinstance(t, str) for row in rows for t in row):
        raise ValueError("malformed report: a matrix entry is not a string")
    return ExactMatrix.from_rows([[parse_rational(t) for t in row] for row in rows])


def _violation_json(v: Violation | None) -> dict[str, Any] | None:
    if v is None:
        return None
    return {
        "kind": v.kind.value,
        "rows": list(v.rows),
        "cols": list(v.cols),
        "vector": [format_fraction(x) for x in v.vector] if v.vector is not None else None,
        "detail": format_fraction(v.detail) if v.detail is not None else None,
    }


def _violation_from_json(obj: Any) -> Violation:
    vector, detail = _key(obj, "vector", (list, type(None)), str), _key(obj, "detail", (str, type(None)))
    return Violation(
        kind=ViolationKind(_key(obj, "kind", str)),
        rows=tuple(_key(obj, "rows", list, int)),
        cols=tuple(_key(obj, "cols", list, int)),
        vector=tuple(parse_rational(t) for t in vector) if vector else None,
        detail=parse_rational(detail) if detail else None,
    )


def _dumps(o: Any, newline: str = "\n") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)``, byte for byte, for string
    keys, without the pure-Python encoder that an indent selects in the
    standard library; every JSON report goes out through here.  ``newline`` is
    a line break and the indent of the level ``o`` is nested at."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in o]) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(report: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(_dumps(report))
        return
    for method in report["methods"]:
        line = f"{method['name']}: {'holds' if method['holds'] else 'FAILS'}"
        if method.get("witness"):
            w = method["witness"]
            line += f"  [{w['kind']} at rows {w['rows']} cols {w['cols']}"
            if w.get("detail") is not None:
                line += f", value {w['detail']}"
            line += "]"
        print(line)
    print(f"verdict: {'holds' if report['holds'] else 'fails'}")


def _parse_alpha(args: argparse.Namespace) -> AlphaChoice | None:
    if not args.alpha:
        return None
    mags = [parse_rational(tok) for tok in args.alpha.split()]
    return AlphaChoice.of(mags, global_sign=args.alpha_sign)


def _method_entry(name: str, holds: bool, witness: Violation | None, elapsed_ms: float) -> dict[str, Any]:
    return {
        "name": name,
        "holds": holds,
        "witness": _violation_json(witness),
        "elapsed_ms": round(elapsed_ms, 3),
    }


def cmd_check(args: argparse.Namespace) -> int:
    raw = Path(args.path).read_bytes()
    a = parse_matrix(raw.decode())
    k = args.order
    alpha = _parse_alpha(args)
    cls = args.matrix_class
    start = time.perf_counter()
    extra: dict[str, Any] = {}
    if args.method == "all":
        report = cross_validate(a, k, cls, alpha)
        methods = [_method_entry(m.name, m.holds, m.witness, m.elapsed_ms) for m in report.methods]
        if not report.agree:
            methods.append({"name": "agreement", "holds": False, "witness": None, "elapsed_ms": 0.0})
        if report.lcp_status is not None:
            extra["tnp_lcp_status"] = report.lcp_status
        holds = report.holds
    else:
        outcome = run_method(a, cls, k, args.method, alpha)
        methods = [_method_entry(outcome.name, outcome.holds, outcome.witness, outcome.elapsed_ms)]
        holds = outcome.holds
    report_obj = {
        "command": ["check", str(args.path), cls, f"order={k}", f"method={args.method}"],
        "input_digest": _digest(raw),
        "input": {"kind": "matrix", "matrix": _matrix_json(a)},
        "class": cls,
        "order": k,
        "methods": methods,
        "holds": holds,
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
        **extra,
    }
    _emit(report_obj, args.json)
    return EXIT_HOLDS if holds else EXIT_FAILS


def cmd_hull(args: argparse.Namespace) -> int:
    raw = Path(args.path).read_bytes()
    a, b = parse_matrix_pair(raw.decode())
    h = IntervalHull(a, b)
    k = args.order
    start = time.perf_counter()
    if args.matrix_class == TN:
        verdict = hull_is_totally_negative(h, k)
    else:
        verdict = hull_is_totally_nonpositive(h, k)
    elapsed = (time.perf_counter() - start) * 1000
    witness_json: dict[str, Any] | None = None
    if not verdict.holds:
        z, zt = verdict.failing_sign_words
        witness_json = {
            "z": list(z),
            "zt": list(zt),
            "member": _matrix_json(i_matrix(h, z, zt)),
            "violation": _violation_json(verdict.witness),
        }
    report_obj = {
        "command": ["hull", str(args.path), args.matrix_class, f"order={k}"],
        "input_digest": _digest(raw),
        "input": {"kind": "hull", "a": _matrix_json(a), "b": _matrix_json(b)},
        "class": args.matrix_class,
        "order": k,
        "methods": [
            {
                "name": verdict.method,
                "holds": verdict.holds,
                "witness": witness_json,
                "elapsed_ms": round(elapsed, 3),
            }
        ],
        "holds": verdict.holds,
        "elapsed_ms": round(elapsed, 3),
    }
    _emit_hull(report_obj, args.json)
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def _emit_hull(report: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(_dumps(report))
        return
    m = report["methods"][0]
    if m["holds"]:
        print(f"{m['name']}: holds for the entire hull")
    else:
        w = m["witness"]
        print(f"{m['name']}: FAILS at sign words z={w['z']} zt={w['zt']}")
        v = w["violation"]
        print(f"  member minor at rows {v['rows']} cols {v['cols']} has value {v['detail']}")
    print(f"verdict: {'holds' if report['holds'] else 'fails'}")


def cmd_lcp(args: argparse.Namespace) -> int:
    raw = Path(args.path).read_bytes()
    a, q = parse_lcp_input(raw.decode())
    start = time.perf_counter()
    if args.enumerate:
        sols = solve_lcp(LCPInstance(a, q))
        body: dict[str, Any] = {
            "kind": sols.kind,
            "solutions": [[format_fraction(v) for v in s] for s in sols.solutions],
            "families": [
                {
                    "support": list(f.support),
                    "particular": [format_fraction(v) for v in f.particular],
                    "directions": [[format_fraction(v) for v in d] for d in f.directions],
                    "t_range": [None if b is None else format_fraction(b) for b in f.t_range]
                    if f.t_range is not None
                    else None,
                }
                for f in sols.families
            ],
        }
        report_obj = {
            "command": ["lcp", str(args.path), "enumerate"],
            "input_digest": _digest(raw),
            "input": {"kind": "lcp", "matrix": _matrix_json(a), "q": [format_fraction(v) for v in q]},
            "class": None,
            "order": None,
            "methods": [{"name": "solve_lcp", "holds": True, "witness": None}],
            "solution_set": body,
            "holds": True,
            "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
        }
        if args.json:
            print(_dumps(report_obj))
        else:
            print(f"solution set is {body['kind']}")
            for s in body["solutions"]:
                print("  (" + ", ".join(s) + ")")
            for f in body["families"]:
                rng = f["t_range"]
                desc = f"t in [{rng[0]}, {rng[1] if rng[1] is not None else 'inf'}]" if rng else "underdescribed"
                print(
                    f"  family on support {f['support']}: base ("
                    + ", ".join(f["particular"])
                    + ") + t * ("
                    + ", ".join(f["directions"][0])
                    + f"), {desc}"
                )
        return EXIT_HOLDS
    k = args.order
    if k is None:
        raise ValueError("--single-vector requires --order")
    verdict = lcp_single_vector_check(a, k)
    elapsed = (time.perf_counter() - start) * 1000
    report_obj = {
        "command": ["lcp", str(args.path), f"single-vector order={k}"],
        "input_digest": _digest(raw),
        "input": {"kind": "lcp", "matrix": _matrix_json(a), "q": [format_fraction(v) for v in q]},
        "class": TN,
        "order": k,
        "methods": [_method_entry(verdict.method, verdict.holds, verdict.witness, elapsed)],
        "holds": verdict.holds,
        "elapsed_ms": round(elapsed, 3),
    }
    _emit(report_obj, args.json)
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def cmd_generate(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    try:
        m_str, n_str = args.shape.lower().split("x")
        shape = (int(m_str), int(n_str))
    except ValueError as exc:
        raise ValueError(f"bad --shape {args.shape!r}, expected MxN") from exc
    out_dir = Path(args.out_dir)
    order = args.order if args.order is not None else min(shape)
    for idx in range(args.count):
        seed = args.seed + idx
        if args.matrix_class == TN:
            inst = generate_tn(shape, order, seed)
        elif args.matrix_class == TNP:
            inst = generate_tnp(shape, order, seed)
        else:
            inst = generate_near_miss(shape, order, seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{inst.klass}_{shape[0]}x{shape[1]}_k{order}_seed{seed}"
        (out_dir / f"{stem}.txt").write_text(inst.matrix.to_text())
        meta = "\n".join(
            [
                f"class={inst.klass}",
                f"order={order}",
                f"shape={shape[0]}x{shape[1]}",
                f"seed={seed}",
                f"attempts={inst.attempts}",
                f"certificate={inst.certificate}",
            ]
        )
        (out_dir / f"{stem}.meta").write_text(meta + "\n")
        print(f"wrote {out_dir / (stem + '.txt')}")
    return EXIT_HOLDS


def _verify_minor_witness(a: ExactMatrix, v: Violation) -> str | None:
    value = minor_det(a, v.rows, v.cols)
    if v.detail is not None and value != v.detail:
        return f"recomputed minor {value} != recorded {v.detail}"
    if v.kind is ViolationKind.NONNEGATIVE_MINOR and value < 0:
        return "recorded nonnegative minor is negative"
    if v.kind is ViolationKind.POSITIVE_MINOR and value <= 0:
        return "recorded positive minor is nonpositive"
    return None


#: The class whose failure a minor or complementarity witness shows; a test-vector
#: witness shows that of its procedure (``SINGLE_VECTOR``).
_KIND_CLASS = {
    ViolationKind.NONNEGATIVE_MINOR: TN, ViolationKind.LCP_SOLUTION_MISMATCH: TN, ViolationKind.POSITIVE_MINOR: TNP
}


def _verify_witness_entry(a: ExactMatrix, method: str, v: Violation) -> str | None:
    """Re-check one recorded violation against the parsed input; None when it verifies."""
    if v.kind in (ViolationKind.NONNEGATIVE_MINOR, ViolationKind.POSITIVE_MINOR):
        return _verify_minor_witness(a, v)
    if v.kind is not ViolationKind.LCP_SOLUTION_MISMATCH:
        return verify_vector_witness(a, method, v)
    # the construction of lcp._single_vector_ints, rebuilt from Bareiss minors
    sub = submatrix(a, v.rows, v.cols)
    x = tuple(cofactor_minor(sub, 1, j) if j % 2 else Fraction(0) for j in range(1, sub.rows + 1))
    if v.vector is not None and tuple(-t for t in x) != v.vector:
        return "recorded expected solution does not match the construction"
    sols = solve_lcp(LCPInstance(sub, sub.matvec(x)))
    zero = tuple(Fraction(0) for _ in range(sub.rows))
    expected = {zero, tuple(-t for t in x)}
    mismatch = not (sols.is_finite and set(sols.solutions) == expected)
    return None if mismatch else "solution set matches after all"


def cmd_verify_witness(args: argparse.Namespace) -> int:
    try:
        report = json.loads(Path(args.path).read_text())
    except RecursionError:
        raise ValueError("malformed report: nested too deeply to read") from None
    given = _key(report, "input", dict)
    hull = _key(given, "kind", str) == "hull"
    # every key the checks read is read and typed here, before any witness is checked
    witnessed: list[tuple[str, Violation, tuple[ExactMatrix, list[int], list[int]] | None]] = []
    for m in _key(report, "methods", list):
        w = _key(m, "witness", (dict, type(None)))
        if _key(m, "holds", bool) or not w:
            continue
        member = _matrix_from_json(_key(w, "member", dict)) if hull else None
        signs = (member, _key(w, "z", list, int), _key(w, "zt", list, int)) if hull else None
        v = _violation_from_json(_key(w, "violation", dict) if hull else w)
        witnessed.append((_key(m, "name", str), v, signs))
    order, cls = report.get("order"), report.get("class")
    if witnessed and type(order) is not int:
        raise ValueError(f"a report with a witness needs an integer order, got {order!r}")
    if witnessed and cls not in (TN, TNP):
        raise ValueError(f"a report with a witness needs the class {TN!r} or {TNP!r}, got {cls!r}")
    if witnessed and hull:
        h = IntervalHull(_matrix_from_json(_key(given, "a", dict)), _matrix_from_json(_key(given, "b", dict)))
    elif witnessed:
        a = _matrix_from_json(_key(given, "matrix", dict))
    problems: list[str] = []
    for name, v, signs in witnessed:
        if len(v.rows) > order:
            # a window of size r shows failure only at orders r and above
            problem = f"a window of size {len(v.rows)} cannot fail order {order}"
        elif _KIND_CLASS.get(v.kind, SINGLE_VECTOR.get(name, (cls,))[0]) != cls:
            problem = f"a {v.kind.value} witness of {name} does not show that class {cls} fails"
        elif signs is None:
            problem = _verify_witness_entry(a, name, v)
        elif i_matrix(h, signs[1], signs[2]) != signs[0]:
            problem = "recorded member does not match its sign words"
        else:
            problem = _verify_minor_witness(signs[0], v)
        if problem:
            problems.append(f"{name}: {problem}")
    if problems:
        for p in problems:
            print(f"witness FAILED: {p}", file=sys.stderr)
        return EXIT_FAILS
    print(f"all witnesses verified ({len(witnessed)} checked)")
    return EXIT_HOLDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totneg",
        description="Certify total negativity / non-positivity of matrices and interval hulls.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_check = sub.add_parser("check", help="certify a single matrix")
    p_check.add_argument("path")
    p_check.add_argument("--class", dest="matrix_class", choices=[TN, TNP], required=True)
    p_check.add_argument("--order", type=int, required=True)
    p_check.add_argument(
        "--method", choices=["minors", "contiguous", "snr", "vd", "lcp", "all"], default="all"
    )
    p_check.add_argument("--alpha", help="test coefficient magnitudes, e.g. '1 1/2 2'")
    p_check.add_argument("--alpha-sign", type=int, choices=[1, -1], default=1)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_hull = sub.add_parser("hull", help="certify an entire interval hull")
    p_hull.add_argument("path")
    p_hull.add_argument("--class", dest="matrix_class", choices=[TN, TNP], required=True)
    p_hull.add_argument("--order", type=int, required=True)
    p_hull.add_argument("--json", action="store_true")
    p_hull.set_defaults(func=cmd_hull)

    p_lcp = sub.add_parser("lcp", help="solve or certify a complementarity instance")
    p_lcp.add_argument("path")
    group = p_lcp.add_mutually_exclusive_group(required=True)
    group.add_argument("--enumerate", action="store_true")
    group.add_argument("--single-vector", action="store_true")
    p_lcp.add_argument("--order", type=int)
    p_lcp.add_argument("--json", action="store_true")
    p_lcp.set_defaults(func=cmd_lcp)

    p_gen = sub.add_parser("generate", help="emit oracle-certified instances")
    p_gen.add_argument("--class", dest="matrix_class", choices=[TN, TNP, "near-miss"], required=True)
    p_gen.add_argument("--shape", required=True, help="MxN")
    p_gen.add_argument("--order", type=int)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify-witness", help="re-check the witnesses in a JSON report")
    p_verify.add_argument("path")
    p_verify.set_defaults(func=cmd_verify_witness)
    return parser


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The process's one parser and the subcommand parsers it registers, built
    on first use; parsing leaves no state in them."""
    parser = build_parser()
    return parser, next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _parse(argv: list[str]) -> argparse.Namespace:
    """The top-level ``parse_args(argv)``, from the one pass of the subcommand's parser
    over argv[1:] that it delegates; with no subcommand first, or arguments left
    over, the top-level parser runs, so every usage message stays its own."""
    parser, subparsers = _parsers()
    if argv and argv[0] in subparsers:
        args, rest = subparsers[argv[0]].parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

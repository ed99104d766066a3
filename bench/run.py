"""Benchmark entry point.

    python3 bench/run.py --workload {corpus-mixed,certified-large,hull-sweep,all}
                         --seed N --seconds S --trace {0,1}

Builds nothing: it imports the ``totneg`` sources under ``src/`` of the
checkout it sits in, and refuses to run without them.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  ``--workload all`` runs each workload in a fresh
process, one after another, and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None, workloads: tuple[str, ...]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="store this run's verdict digests as the reference for the default seed",
    )
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, workloads: tuple[str, ...]) -> int:
    """Each workload in its own process, in sequence; echoes every metric line with its unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={ratio:g}")
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "totneg" / "__init__.py").is_file():
        print(f"error: no totneg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import totneg

    if Path(totneg.__file__).resolve().parent != SRC / "totneg":
        print(f"error: imported totneg from {totneg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from bench import gate, measure, workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)

    if args.record_digests and args.seed != gate.DEFAULT_SEED:
        print(f"error: digests are recorded for seed {gate.DEFAULT_SEED} only", file=sys.stderr)
        return 2
    out = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, args.record_digests)
    for note in out["notes"]:
        print(note)
    for name, metric in out["result"]["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

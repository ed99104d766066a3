"""Workload inputs and call plans.

Set-up turns a seed into input files: certified instances come from the
program's own ``totneg generate`` command (whose ``.meta`` sidecars record the
generator's attempt counts), random matrices from
``totneg.generate.random_rational_matrix``, and hulls from the bench's own
recipe over generated bases.  The measured calls see only those files.

Every plan is a fixed list of strata (shape, input kind, method) that does not
depend on the seed; the seed only draws the instances inside each stratum, so
two seeds load the program with the same mix of work.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from totneg import ClassQuery, ExactMatrix, IntervalHull, c_plus_minus, check_by_minor_definition, cli
from totneg.generate import random_rational_matrix
from totneg.matrix import parse_matrix

WORKLOADS = ("corpus-mixed", "certified-large", "hull-sweep")

TN_METHODS = ("minors", "contiguous", "snr", "vd", "lcp")
TNP_METHODS = ("minors", "snr", "vd")

#: corpus-mixed cycles the shapes from 1x1 to 6x6 with at most 25 entries for each
#: input kind.  5x6, 6x5 and 6x6 cost 1-3 s per call; three of them made up half of
#: a pass, and their per-seed variance alone broke the bound on verdicts_per_s.
CORPUS_SHAPES = tuple((m, n) for m in range(1, 7) for n in range(1, 7) if m * n <= 25)
#: Input kinds of one corpus block, in the acceptance corpus's 2:2:2:5 proportions.
CORPUS_BLOCK = ("tn", "tnp", "near-miss", "random", "random", "tn", "tnp", "near-miss", "random", "random", "random")
#: 374 calls: with half as many, which entries sit next to p50 and p90 changed
#: enough from seed to seed to move both by 10-16%.
CORPUS_BLOCKS = 34
RANDOM_STYLES = ("any", "negative", "nonpositive")

#: certified-large strata: (shape, tn instances, tnp instances).  No tnp instance
#: above 35 entries: tnp SNR/VD take 1.5-4.7 s per call at 6x7, 7x6 and 7x7, so
#: one of them would be a fifth of a pass and its per-seed variance would break
#: the bounds (8x8, at ~17 s per call, is out for the same reason).  The third
#: 5x5 pair brings the plan to 117 calls, so at least ten lie beyond p90.
LARGE_STRATA = (
    ((5, 5), 3, 3),
    ((5, 6), 2, 1),
    ((6, 5), 2, 1),
    ((6, 6), 2, 2),
    ((5, 7), 2, 1),
    ((7, 5), 2, 1),
    ((6, 7), 2, 0),
    ((7, 6), 2, 0),
    ((7, 7), 1, 0),
)

#: hull-sweep strata: (shape, hull recipes); each hull is checked for tn and for tnp.
HULL_STRATA = (
    *(((m, n), ("bump", "random-any", "flat", "dip")) for m, n in ((2, 4), (4, 2), (3, 3))),
    *(((m, n), ("bump", "random-negative", "flat", "dip")) for m, n in ((2, 5), (5, 2), (3, 4), (4, 3))),
    *(((m, n), ("bump", "random-any", "flat", "dip")) for m, n in ((2, 6), (6, 2), (4, 4))),
    *(((m, n), ("bump", "random-any", "flat", "dip", "bump")) for m, n in ((3, 5), (5, 3))),
    *(((m, n), ("bump", "flat", "bump")) for m, n in ((2, 7), (7, 2))),
    *(((m, n), ("bump", "random-negative")) for m, n in ((3, 6), (6, 3))),
)


class SetupError(RuntimeError):
    """The program failed to produce an input during set-up."""


@dataclass(frozen=True)
class Instance:
    """One input file.  ``origin`` is the generated class or recipe."""

    path: Path
    kind: str  # "matrix" or "hull"
    origin: str
    shape: tuple[int, int]
    attempts: int  # generator attempts recorded in the .meta sidecars (0 when none)

    @property
    def order(self) -> int:
        return min(self.shape)


@dataclass(frozen=True)
class Call:
    """One verdict: a ``totneg`` invocation on one instance."""

    key: str
    instance: Instance
    klass: str
    method: str  # a check method, or "hull"

    @property
    def argv(self) -> list[str]:
        path = str(self.instance.path)
        order = str(self.instance.order)
        if self.method == "hull":
            return ["hull", path, "--class", self.klass, "--order", order, "--json"]
        return ["check", path, "--class", self.klass, "--order", order, "--method", self.method, "--json"]


def _shape_arg(shape: tuple[int, int]) -> str:
    return f"{shape[0]}x{shape[1]}"


def _generate(klass: str, shape: tuple[int, int], seed: int, out_dir: Path) -> tuple[Path, int]:
    """Run ``totneg generate`` for one instance; returns its file and attempt count."""
    argv = ["generate", "--class", klass, "--shape", _shape_arg(shape), "--order", str(min(shape)),
            "--count", "1", "--seed", str(seed), "--out-dir", str(out_dir)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SetupError(f"totneg {' '.join(argv)} exited {rc}")
    path = Path(out.getvalue().split()[-1])
    meta = dict(line.split("=", 1) for line in path.with_suffix(".meta").read_text().splitlines())
    return path, int(meta["attempts"])


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _random_instance(shape: tuple[int, int], seed: int, style: str, out_dir: Path) -> Instance:
    a = random_rational_matrix(shape, seed, style)
    path = _write(out_dir / f"random_{style}_{_shape_arg(shape)}_seed{seed}.txt", a.to_text())
    return Instance(path, "matrix", "random", shape, 0)


def _matrix_instance(klass: str, shape: tuple[int, int], seed: int, out_dir: Path) -> Instance:
    path, attempts = _generate(klass, shape, seed, out_dir)
    return Instance(path, "matrix", klass, shape, attempts)


def _bump_hull(base: ExactMatrix, rng: random.Random) -> ExactMatrix:
    """Upper endpoint base + bump, the bump shrunk until the hull stays strictly negative.

    The criterion-3 bump (a quarter of the smallest entry over m+n) breaks
    large minors once m+n passes 6, so it is divided by 16 until both
    checkerboard members are totally negative, at most ten times.
    """
    m, n = base.shape
    delta = min(abs(v) for v in base.entries) / (4 * (m + n))
    steps = [[Fraction(rng.randint(0, 4), 4) for _ in range(n)] for _ in range(m)]
    query = ClassQuery("tn", min(m, n))
    for _ in range(10):
        top = base.add(ExactMatrix.from_rows([[delta * s for s in row] for row in steps]))
        if all(check_by_minor_definition(c, query).holds for c in c_plus_minus(IntervalHull(base, top))):
            break
        delta /= 16
    return top


def _hull_instance(recipe: str, shape: tuple[int, int], seed: int, out_dir: Path) -> Instance:
    """A hull after the acceptance suite's criterion-3 recipes."""
    rng = random.Random(seed)
    m, n = shape
    attempts = 0
    if recipe.startswith("random-"):
        style = recipe.split("-", 1)[1]
        a = random_rational_matrix(shape, seed, style)
        b = random_rational_matrix(shape, seed + 1, style)
    elif recipe == "bump":
        base_path, attempts = _generate("tn", shape, seed, out_dir / "bases")
        a = parse_matrix(base_path.read_text())
        b = _bump_hull(a, rng)
    else:
        base_path, attempts = _generate("tnp", shape, seed, out_dir / "bases")
        a = parse_matrix(base_path.read_text())
        if recipe == "flat":
            b = a
        else:  # dip: lower some entries by up to 1/4
            b = a.add(ExactMatrix.from_rows([[-Fraction(rng.randint(0, 2), 8) for _ in range(n)] for _ in range(m)]))
    path = _write(out_dir / f"hull_{recipe}_{_shape_arg(shape)}_seed{seed}.txt", a.to_text() + "\n" + b.to_text())
    return Instance(path, "hull", recipe, shape, attempts)


def build(workload: str, seed: int, out_dir: Path, tick: Callable[[], None] | None = None) -> list[Call]:
    """Write the workload's inputs for ``seed`` under ``out_dir``; return its call plan.

    ``tick``, when given, is called after each instance is written.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")

    def draw() -> int:
        return rng.randrange(1 << 30)

    def made(inst: Instance) -> Instance:
        if tick is not None:
            tick()
        return inst

    calls: list[Call] = []
    if workload == "corpus-mixed":
        counters = {kind: 0 for kind in set(CORPUS_BLOCK)}
        for j in range(CORPUS_BLOCKS * len(CORPUS_BLOCK)):
            kind = CORPUS_BLOCK[j % len(CORPUS_BLOCK)]
            i = counters[kind]
            counters[kind] += 1
            shape = CORPUS_SHAPES[i % len(CORPUS_SHAPES)]
            if kind == "random":
                inst = made(_random_instance(shape, draw(), RANDOM_STYLES[i % len(RANDOM_STYLES)], out_dir))
            else:
                inst = made(_matrix_instance(kind, shape, draw(), out_dir))
            klass = "tn" if j % 2 == 0 else "tnp"
            calls.append(Call(f"{j:03d}-{kind}-{_shape_arg(shape)}/{klass}", inst, klass, "all"))
    elif workload == "certified-large":
        j = 0
        for shape, tn_count, tnp_count in LARGE_STRATA:
            for klass, count, methods in (("tn", tn_count, TN_METHODS), ("tnp", tnp_count, TNP_METHODS)):
                for _ in range(count):
                    inst = made(_matrix_instance(klass, shape, draw(), out_dir))
                    for method in methods:
                        calls.append(Call(f"{j:03d}-{klass}-{_shape_arg(shape)}/{method}", inst, klass, method))
                        j += 1
    else:
        j = 0
        for shape, recipes in HULL_STRATA:
            for recipe in recipes:
                inst = made(_hull_instance(recipe, shape, draw(), out_dir))
                for klass in ("tn", "tnp"):
                    calls.append(Call(f"{j:03d}-{recipe}-{_shape_arg(shape)}/{klass}", inst, klass, "hull"))
                    j += 1
    return calls

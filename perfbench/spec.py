"""Workload definitions and correctness gates shared by the benchmark's
driver (run.py) and its child processes (child.py).

Nothing here imports degenpoly: the driver process stays free of the
package, so every cost of the package lands in the child processes it
times.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

WORKLOADS = ("verify-n12", "tabulate-n20", "eval-grid")

VERIFY_N12 = ("verify", "--identity", "all", "--n-max", "12", "--order", "14",
              "--format", "json")
# Smaller verify pass of the scaling record (traced runs only).
VERIFY_N9 = ("verify", "--identity", "all", "--n-max", "9", "--order", "11",
             "--format", "json")

FAMILIES = (
    "deg-bernoulli-num", "deg-euler-num", "deg-bernoulli", "deg-euler",
    "deg-cosine", "deg-sine", "deg-cos-euler", "deg-sin-euler",
    "deg-cos-bernoulli", "deg-sin-bernoulli",
)
STIRLING_KINDS = ("first", "second", "degenerate-second")
KERNELS = ("bernoulli", "euler", "cos", "sin", "exp-1", "exp-x")

# eval-grid: family(kind, EVAL_ORDER) for every kind, rows 0..EVAL_ORDER,
# each evaluated at EVAL_POINTS seeded rational points (l, x, y).
EVAL_ORDER = 12
EVAL_POINTS = 6
# Coordinates are reduced fractions whose numerator and denominator both
# lie in this range, so every seed gives operands of the same bit length and
# the same amount of work; only the values change.
EVAL_COORD_RANGE = (8, 16)


def tabulate_commands(seed: int) -> list[tuple[str, ...]]:
    """The 19 tabulate-n20 commands, in the order the seed picks."""
    cmds = [("table", "--family", f, "--n-max", "20") for f in FAMILIES]
    cmds += [("stirling", "--kind", k, "--n-max", "20") for k in STIRLING_KINDS]
    cmds += [("series", "--kernel", k, "--order", "20") for k in KERNELS]
    random.Random(seed).shuffle(cmds)
    return cmds


def grid_points(seed: int, count: int = EVAL_POINTS) -> list[dict[str, Fraction]]:
    """Seeded rational points (l, x, y), all coordinates nonzero."""
    rng = random.Random(seed)
    lo, hi = EVAL_COORD_RANGE

    def coord() -> Fraction:
        while True:
            num, den = rng.randrange(lo, hi), rng.randrange(lo, hi)
            if math.gcd(num, den) == 1:
                return Fraction(rng.choice((-1, 1)) * num, den)

    return [{"l": coord(), "x": coord(), "y": coord()} for _ in range(count)]


# -- correctness gates -------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_key(argv) -> str:
    return " ".join(argv)


def load_golden() -> dict[str, str]:
    """sha256 of stdout for every CLI command the benchmark runs, recorded
    from the seed commit by record_golden.py."""
    return json.loads(GOLDEN_PATH.read_text())["stdout_sha256"]


def output_ok(golden: dict[str, str], argv, stdout: bytes) -> bool:
    expected = golden.get(command_key(argv))
    return expected is not None and digest(stdout) == expected


def re_im(value) -> tuple[Fraction, Fraction]:
    """Real and imaginary parts of a coefficient or value as Fractions."""
    if hasattr(value, "re"):
        return Fraction(value.re), Fraction(value.im)
    if isinstance(value, (int, Fraction)):
        return Fraction(value), Fraction(0)
    return Fraction(value.real), Fraction(value.imag)


def reference_evaluate(terms, point: dict[str, Fraction]) -> tuple[Fraction, Fraction]:
    """Evaluate a term map {(el, ex, ey, er): coeff} with plain Fractions."""
    powers = {}
    re = im = Fraction(0)
    for exps, coeff in terms.items():
        mono = Fraction(1)
        for var, power in zip("lxyr", exps):
            if power:
                key = (var, power)
                if key not in powers:
                    powers[key] = point[var] ** power
                mono *= powers[key]
        c_re, c_im = re_im(coeff)
        re += c_re * mono
        im += c_im * mono
    return re, im


def value_ok(got, expected: tuple[Fraction, Fraction]) -> bool:
    return re_im(got) == expected


def gate_self_check(golden: dict[str, str]) -> bool:
    """Feed the gates one corrupted digest and one perturbed value; both
    must register as failures (and their unaltered forms as passes)."""
    key = command_key(VERIFY_N12)
    corrupted = dict(golden)
    corrupted[key] = digest(b"corrupted")
    digest_caught = not output_ok(corrupted, VERIFY_N12, b"")
    digest_passes = output_ok({key: digest(b"x")}, VERIFY_N12, b"x")
    terms = {(1, 1, 0, 0): Fraction(3, 7), (0, 0, 2, 0): Fraction(-1, 2)}
    point = {"l": Fraction(9, 13), "x": Fraction(-11, 8), "y": Fraction(15, 14)}
    ref = reference_evaluate(terms, point)
    perturbed = (ref[0] + Fraction(1, 10 ** 30), ref[1])
    value_caught = not value_ok(perturbed[0], ref)
    value_passes = value_ok(ref[0], ref)
    return digest_caught and digest_passes and value_caught and value_passes


# -- host calibration --------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop (imports no degenpoly).

    Reported next to the timings so that a slow host can be told apart
    from a slow program."""
    start = time.perf_counter()
    acc = Fraction(0)
    step = Fraction(1, 3)
    for k in range(1, 20001):
        acc = acc * step + Fraction(k, k + 1)
        if acc.denominator > 1 << 256:
            acc = Fraction(acc.numerator >> 200, (acc.denominator >> 200) or 1)
    return time.perf_counter() - start

"""Acceptance suite.

Runs every acceptance criterion at its stated scale and prints one
pass/fail line per criterion.  All comparisons are exact polynomial or
rational equality; there are no tolerances anywhere.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from degenpoly.combinat import StirlingKind, falling_factorial, stirling_table
from degenpoly.families import (
    FamilyKind,
    classical_kernel_series,
    complex_series,
    family,
    family_closed,
)
from degenpoly.multipoly import MPoly

N_MAX = 20
ORDER = 22

VERIFY_ARGS = [
    sys.executable, "-m", "degenpoly",
    "verify", "--identity", "all", "--n-max", str(N_MAX), "--order", str(ORDER),
    "--format", "json",
]


@pytest.fixture(scope="module")
def verify_runs():
    """Two consecutive CLI runs of the full identity suite."""
    runs = []
    for _ in range(2):
        start = time.monotonic()
        proc = subprocess.run(VERIFY_ARGS, capture_output=True, text=True)
        runs.append((proc, time.monotonic() - start))
    return runs


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_identity_suite(verify_runs):
    proc, elapsed = verify_runs[0]
    lines = proc.stdout.splitlines()
    reports = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    ok = proc.returncode == 0
    ok = ok and summary["fails"] == 0
    ok = ok and summary["checks"] == len(reports)
    seen_tags = {r["id"] for r in reports}
    ok = ok and len(seen_tags) == 29
    for r in reports:
        if r["id"] in ("T7_stirling_euler_cos", "T7_stirling_euler_sin"):
            ok = ok and r["verdict"] in ("holds", "holds_variant")
        else:
            ok = ok and r["verdict"] == "holds"
        ok = ok and r["residual"] == "0"
    ok = ok and elapsed < 60.0
    _report(1, f"identity suite (all tags, n <= {N_MAX}, order {ORDER})", ok)


def test_criterion_2_classical_limits():
    n = 20
    bern = family(FamilyKind.DEG_BERNOULLI, n)
    euler = family(FamilyKind.DEG_EULER, n)
    b_oracle = classical_kernel_series("bernoulli", n)
    e_oracle = classical_kernel_series("euler", n)
    from degenpoly.families import classical_exp_series

    x = MPoly.variable("x")
    b_poly_oracle = b_oracle * classical_exp_series(x, n)
    e_poly_oracle = e_oracle * classical_exp_series(x, n)
    ok = True
    for k in range(n + 1):
        ok = ok and bern[k].substitute("x", 0).substitute("l", 0) == b_oracle[k]
        ok = ok and euler[k].substitute("x", 0).substitute("l", 0) == e_oracle[k]
        ok = ok and bern[k].substitute("l", 0) == b_poly_oracle[k]
        ok = ok and euler[k].substitute("l", 0) == e_poly_oracle[k]
    ok = ok and b_oracle[2] == MPoly.constant(Fraction(1, 6))
    ok = ok and b_oracle[12] == MPoly.constant(Fraction(-691, 2730))
    ok = ok and e_oracle[2] == MPoly.zero()
    _report(2, "classical limits at l = 0 for n <= 20", ok)


def test_criterion_3_route_equivalence():
    kinds = (
        FamilyKind.DEG_COSINE,
        FamilyKind.DEG_SINE,
        FamilyKind.DEG_COS_EULER,
        FamilyKind.DEG_SIN_EULER,
        FamilyKind.DEG_COS_BERNOULLI,
        FamilyKind.DEG_SIN_BERNOULLI,
    )
    ok = True
    for kind in kinds:
        direct = family(kind, N_MAX)
        closed = family_closed(kind, N_MAX)
        for n in range(N_MAX + 1):
            ok = ok and direct[n] == closed[n]
    _report(3, "route equivalence for the six cosine/sine families", ok)


def test_criterion_4_decomposition():
    ce = complex_series("euler", N_MAX)
    cb = complex_series("bernoulli", N_MAX)
    cos_e = family(FamilyKind.DEG_COS_EULER, N_MAX)
    sin_e = family(FamilyKind.DEG_SIN_EULER, N_MAX)
    cos_b = family(FamilyKind.DEG_COS_BERNOULLI, N_MAX)
    sin_b = family(FamilyKind.DEG_SIN_BERNOULLI, N_MAX)
    ok = True
    for n in range(N_MAX + 1):
        e_re, e_im = ce[n].split_real_imag()
        b_re, b_im = cb[n].split_real_imag()
        ok = ok and e_re == cos_e[n] and e_im == sin_e[n]
        ok = ok and b_re == cos_b[n] and b_im == sin_b[n]
    _report(4, f"real/imaginary decomposition for n <= {N_MAX}", ok)


def test_criterion_5_stirling_reconstruction():
    n_max = 14
    x = MPoly.variable("x")
    first = stirling_table(StirlingKind.FIRST, n_max)
    second = stirling_table(StirlingKind.SECOND, n_max)
    deg_second = stirling_table(StirlingKind.DEGENERATE_SECOND, n_max)
    ok = True
    for n in range(n_max + 1):
        recombined = MPoly.zero()
        for k in range(n + 1):
            recombined = recombined + first.entry(n, k) * x ** k
        ok = ok and recombined == falling_factorial(x, n)
        power = MPoly.zero()
        for k in range(n + 1):
            power = power + second.entry(n, k) * falling_factorial(x, k)
        ok = ok and power == x ** n
        for k in range(n + 1):
            ok = ok and deg_second.entry(n, k).substitute("l", 0) == second.entry(n, k)
    _report(5, "Stirling reconstructions and classical limit for n <= 14", ok)


def test_criterion_6_typo_adjudication(verify_runs):
    proc, _ = verify_runs[0]
    reports = [json.loads(line) for line in proc.stdout.splitlines()[:-1]]
    variant_reports = [
        r for r in reports
        if r["id"] in ("T7_stirling_euler_cos", "T7_stirling_euler_sin")
        and r["verdict"] == "holds_variant"
    ]
    ok = bool(variant_reports)
    survivors = set()
    for r in variant_reports:
        note = r.get("variant_note", "")
        ok = ok and "surviving variant: " in note
        survivors.add(note.split("surviving variant: ", 1)[1].split(";", 1)[0])
        ok = ok and "residual: " in note
        residual = note.split("residual: ", 1)[1]
        ok = ok and residual not in ("", "0")
    ok = ok and len(survivors) == 1
    _report(6, f"typo adjudication (survivor: {sorted(survivors)})", ok)


def test_criterion_7_determinism(verify_runs):
    (first, _), (second, _) = verify_runs
    ok = first.stdout == second.stdout and first.returncode == second.returncode == 0
    _report(7, "byte-identical JSON over two consecutive runs", ok)

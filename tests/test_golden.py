"""Byte-identity gate: every command keyed in perfbench/golden.json must print
exactly the stdout whose sha256 is recorded there, and so must the larger
verify run keyed in LARGE.

The golden.json digests were recorded from the package's output before any
optimisation, LARGE at the commit named beside it; the commands run in-process
through ``degenpoly.cli.main``.

The benchmark also reads values: its eval-grid gate compares ``evaluate``
against its own Fraction evaluation of ``terms``, so that reader contract is
pinned here too.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from degenpoly.cli import main
from degenpoly.families import FamilyKind, complex_series, family

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["stdout_sha256"]


# Recorded at commit b8a0b9a, before the check layer's sums were regrouped.
LARGE = {
    "verify --identity all --n-max 20 --order 22 --format json":
        "c08d2fcb0509e4aa1cd5baddf3b4c6cbbf3e928fc254569f2fc31e412c31c1cf",
}
DIGESTS = {**GOLDEN, **LARGE}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_matches_golden_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


def _load_spec():
    """perfbench/spec.py, the benchmark's workloads and value gates."""
    loader = importlib.util.spec_from_file_location("perfbench_spec", PERFBENCH / "spec.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_benchmark_reads_the_values_evaluate_and_terms_hand_out():
    spec = _load_spec()
    points = spec.grid_points(1)[:2]
    for kind in FamilyKind:
        for p in family(kind, 6).polys:
            for point in points:
                expected = spec.reference_evaluate(p.terms, point)
                assert spec.value_ok(p.evaluate(point), expected), (kind, point)
    values = [c for p in complex_series("euler", 6).coeffs for c in p.terms.values()]
    assert any(ei for p in complex_series("euler", 6).coeffs for *_, ei in p.terms)
    assert all(spec.re_im(c) == (c, 0) for c in values)

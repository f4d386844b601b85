"""Byte-identity gate: every command keyed in perfbench/golden.json must print
exactly the stdout whose sha256 is recorded there, and so must the larger
verify run keyed in LARGE and the degree-20 evaluations keyed in EVALUATION.

The golden.json digests were recorded from the package's output before any
optimisation, LARGE and EVALUATION at the commits named beside them; the
commands run in-process through ``degenpoly.cli.main``.

The benchmark also reads values: its eval-grid gate compares ``evaluate``
against its own Fraction evaluation of ``terms``, so that reader contract is
pinned here too, as is the package surface perfbench/child.py and
perfbench/tracing.py use.
"""

import ast
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import degenpoly
from degenpoly import combinat
from degenpoly.cli import main
from degenpoly.families import FamilyKind, complex_series, family

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["stdout_sha256"]


# Recorded at commit b8a0b9a, before the check layer's sums were regrouped.
LARGE = {
    "verify --identity all --n-max 20 --order 22 --format json":
        "c08d2fcb0509e4aa1cd5baddf3b4c6cbbf3e928fc254569f2fc31e412c31c1cf",
}
# Recorded at commit d9b505b, before evaluate took its power-table sizes from the
# OR of the keys; at degree 20 = 0b10100 that OR can exceed the real degree.
EVALUATION = {
    f"table --family {kind} --n-max 20 --l=-3/7 --x 5/11 --y 2/3 --format json": digest
    for kind, digest in [
        ("deg-cos-bernoulli", "8946daa9278b629ae3328c0d1c2d4c8daacfc4ed75d409dcfdf19ee0c03455e6"),
        ("deg-sin-euler", "76ba0e52df2789a1b83e3c35580b30a7e326bb8cd513b9e033cbbef8431a5305"),
    ]
}
DIGESTS = {**GOLDEN, **LARGE, **EVALUATION}


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


def test_package_surface_the_benchmark_reads():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in ("dp", "degenpoly")}
    assert "family" in read
    for name in read:
        if name.startswith("__"):
            assert hasattr(degenpoly, name), name
        elif importlib.util.find_spec(f"degenpoly.{name}") is None:  # not a submodule
            assert name in degenpoly.__all__ and hasattr(degenpoly, name), name
    # perfbench/tracing.py unwraps the classmethod to time each build.
    assert isinstance(combinat.StirlingTable.__dict__["build"], classmethod)
    seq = family(FamilyKind.DEG_COS_EULER, 4)
    assert isinstance(seq.polys, tuple) and len(seq.polys) == 5
    assert all(seq[n] is seq.polys[n] for n in range(5))


def test_all_lists_exactly_the_public_names_the_package_binds():
    tree = ast.parse(Path(degenpoly.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert set(degenpoly.__all__) == {name for name in bound if not name.startswith("_")}

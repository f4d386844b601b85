"""Byte-identity gate: every command keyed in perfbench/golden.json must print
exactly the stdout whose sha256 is recorded there, and so must the larger
verify run keyed in LARGE, the degree-20 evaluations keyed in EVALUATION, the
single rows keyed in SINGLE_ROW and the output formats keyed in FORMATS.

The golden.json digests were recorded from the package's output before any
optimisation, the others at the commits named beside them; the
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
# Recorded at commit fbabc00, while `table` still built two degrees past the
# highest row it printed; no other digest covers the single-row `--n` path.
SINGLE_ROW = {
    f"table --family {kind} --n 12 --format json": digest
    for kind, digest in [
        ("deg-bernoulli", "0fab50bdb9dbe6bc515a0c292fc751eb7d49b1ce883c8c0c6b2c52b2900be83d"),
        ("deg-bernoulli-num", "d6e68826aa4637f19f16a5538e0a608e77f48ad72baff62385c787278bb8109a"),
        ("deg-cos-bernoulli", "b5b8d2155c261e7cbbbb014309691022d02ba36329a40726d3b242b53691ce8f"),
        ("deg-cos-euler", "87351e7a1a63285e625bbc4ea2f67d684849f32d561b20ef585f8af4a62d8054"),
        ("deg-cosine", "7dadc85a77b8e48c4046054d08f4b732853be9f0230e7c5612cec6eeffda5535"),
        ("deg-euler", "eac64681bf118933cd5fd4b57940127990fa427cf06e9928795f1ad2bf7bf288"),
        ("deg-euler-num", "fc571b78ef59c10883abd423744b981cf86d5cbf1a4cb92ef75d4bf0538fef57"),
        ("deg-sin-bernoulli", "f7f419ffea3a12bc16f26c88f8cf36efac269854e7a96518601f909958f5bc71"),
        ("deg-sin-euler", "7ff724e9362bb3116ccdc0995fbc899908b18c602cdb3b60479f6a3aab116b6f"),
        ("deg-sine", "9658701ddb74dccca394956896e6dd984ccf82a8fcb67e1babeba75f026aa960"),
    ]
}
# Recorded at commit dd1e6ce, before the CLI wrote its rows through one writer;
# no other digest covers these formats, bindings in text or a variant note.
FORMATS = {
    "stirling --kind first --n-max 6 --format json":
        "cc630b74c255ac874620f66fe2e9eb264443b3de8fa086be8fd4015264e56aaf",
    "series --kernel cos --order 6 --format json":
        "64d2b2a61aacc00566f127a307da268f539dcf47f303c3e3bf5ea660500efadd",
    "table --family deg-sine --n 3 --format csv":
        "9f88ec8b6bd374f6c89ea26765a7a2b50f69b7d2b46e12e0047f70147853b138",
    "table --family deg-cos-euler --n-max 4 --l 1/2 --x 3 --y 1/3":
        "8f2cc61fd7502120854bfc142f1a5d713fb8320b881305c64818d9e6d1c1ff69",
    "verify --identity T7_stirling_euler_cos --n-max 3 --format text":
        "4ab2940b0d9d69810ad825f7f58588ee6340c0b597043ee90a1474e858b24a50",
}
DIGESTS = {**GOLDEN, **LARGE, **EVALUATION, **SINGLE_ROW, **FORMATS}


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
    values = [c for p in complex_series("euler", 6).polys for c in p.terms.values()]
    assert any(ei for p in complex_series("euler", 6).polys for *_, ei in p.terms)
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

import json

import pytest

from degenpoly.cli import main
from degenpoly.families import FamilyKind, family
from degenpoly.multipoly import VARIABLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_single_index(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "deg-cosine", "--n", "2")
    assert code == 0
    assert out == "x^2 - l*x - y^2\n"


def test_table_sine_degree_zero(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "deg-sine", "--n", "0")
    assert code == 0
    assert out == "0\n"


def test_table_rows_and_formats(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "deg-euler", "--n-max", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "0,1"
    assert lines[2] == "1,x - 1/2"

    code, out, _ = run_cli(
        capsys, "table", "--family", "deg-euler", "--n-max", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "deg-euler"
    assert doc["rows"][1]["value"] == "x - 1/2"


def test_table_evaluation(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "deg-cosine", "--n", "2",
        "--l", "1/2", "--x", "2", "--y", "1",
    )
    assert code == 0
    assert out == "2\n"


@pytest.mark.parametrize("binding, expected", [
    # argparse reads "-3/7" as an option, so a negative rational is joined by "=".
    (["--l=-3/7"], "27/7\n"),
    (["--l", "-3"], "9\n"),
])
def test_table_negative_binding(capsys, binding, expected):
    code, out, _ = run_cli(
        capsys, "table", "--family", "deg-cosine", "--n", "2", *binding, "--x", "2", "--y", "1"
    )
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("index, order", [("--n", 3), ("--n-max", 5)])
def test_table_builds_exactly_its_highest_row(capsys, monkeypatch, index, order):
    import degenpoly.cli as cli

    asked = []

    def recording(kind, order):
        asked.append(order)
        return family(kind, order)

    monkeypatch.setattr(cli, "family", recording)
    code, _, _ = run_cli(capsys, "table", "--family", "deg-euler", index, str(order))
    assert code == 0
    assert asked == [order]


def test_table_has_no_order_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--family", "deg-euler", "--n-max", "2", "--order", "5"])
    assert exc.value.code == 2


def test_table_has_no_r_option(capsys):
    # r is only the symbolic shift of the verify checks; no family holds it.
    with pytest.raises(SystemExit) as exc:
        main(["table", "--family", "deg-cosine", "--n", "2", "--r", "1"])
    assert exc.value.code == 2


def test_unknown_option_is_reported_by_the_subcommand(capsys):
    # The subcommand's own usage lists the options it does take.
    with pytest.raises(SystemExit) as exc:
        main(["table", "--family", "deg-cosine", "--n", "2", "--r", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: degenpoly table" in err and "--family" in err
    assert "degenpoly table: error: unrecognized arguments: --r 1" in err


def test_table_bad_rational_exits_before_any_build(capsys, monkeypatch):
    import degenpoly.cli as cli

    def unreachable(kind, order):
        raise AssertionError("family built before the bindings were parsed")

    monkeypatch.setattr(cli, "family", unreachable)
    code, out, err = run_cli(
        capsys, "table", "--family", "deg-cos-euler", "--n-max", "5", "--x", "1/0"
    )
    assert code == 2
    assert out == ""
    assert "invalid rational" in err


def test_table_binds_exactly_the_variables_its_families_hold(capsys):
    import degenpoly.cli as cli

    held = {VARIABLES[j] for kind in FamilyKind for p in family(kind, 4).polys
            for mono in p.terms for j in range(len(VARIABLES)) if mono[j]}
    parser, offered = cli._build_parser(), set()
    for var in VARIABLES:
        try:
            parser.parse_args(["table", "--family", "deg-cosine", "--n", "0", f"--{var}", "1"])
        except SystemExit:
            continue
        offered.add(var)
    assert offered == held == {"l", "x", "y"}


def test_table_row_without_a_variable_needs_no_binding(capsys):
    # Whether a row holds l depends on the row, so evaluate finds an unbound one.
    code, out, _ = run_cli(capsys, "table", "--family", "deg-euler-num", "--n", "1", "--x", "3")
    assert code == 0
    assert out == "-1/2\n"


def test_table_unbound_evaluation_is_error(capsys):
    code, out, err = run_cli(
        capsys, "table", "--family", "deg-cosine", "--n", "2", "--x", "2"
    )
    assert code == 2
    assert out == ""
    assert "unbound" in err


def test_any_value_error_is_reported_as_error_with_exit_2(capsys, monkeypatch):
    import degenpoly.cli as cli

    def rejecting(kind, order):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "family", rejecting)
    code, out, err = run_cli(capsys, "table", "--family", "deg-cosine", "--n", "2")
    assert code == 2
    assert out == ""
    assert err == "error: boom\n"


def test_stirling_csv(capsys):
    code, out, _ = run_cli(capsys, "stirling", "--kind", "first", "--n-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert "3,2,-3" in lines
    assert "3,1,2" in lines


def test_stirling_degenerate_second(capsys):
    code, out, _ = run_cli(
        capsys, "stirling", "--kind", "degenerate-second", "--n-max", "2"
    )
    assert code == 0
    assert "2,1,-l + 1" in out.splitlines()


def test_series_kernel(capsys):
    code, out, _ = run_cli(capsys, "series", "--kernel", "euler", "--order", "2")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t-1/2", "2\t1/2*l"]


def test_verify_json_and_exit_status(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "T2_cos,T6_reflect_sin",
        "--n-max", "3", "--format", "json",
    )
    assert code == 0
    lines = out.splitlines()
    reports = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    assert summary["fails"] == 0 and summary["ok"] is True
    assert all(r["verdict"] == "holds" for r in reports)
    assert all(r["residual"] == "0" for r in reports)


def test_verify_json_names_every_failing_equation(capsys, monkeypatch):
    # A deg-cosine family off by r fails T2_cos, whose one equation is the
    # closed form; T2_sin reads no cosine family and its lines stay as they were.
    import degenpoly.identities as identities
    from degenpoly.egfseries import EgfSeries
    from degenpoly.families import FamilyKind
    from degenpoly.multipoly import MPoly

    def perturbed(kind, order):
        seq, r = family(kind, order), MPoly.variable("r")
        return EgfSeries([p + r for p in seq.polys]) if kind is FamilyKind.DEG_COSINE else seq

    monkeypatch.setattr(identities, "family", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--identity", "T2_cos,T2_sin",
                           "--n-max", "2", "--format", "json")
    assert code == 1
    *reports, summary = [json.loads(line) for line in out.splitlines()]
    assert summary["summary"]["fails"] == 3 and summary["summary"]["ok"] is False
    for rep in reports:
        if rep["id"] == "T2_cos":
            assert rep["verdict"] == "fails"
            assert rep["failing"] == {"closed": "r"} and rep["residual"] == "r"
        else:
            assert rep["verdict"] == "holds" and "failing" not in rep


def test_verify_text_names_every_failing_equation(capsys, monkeypatch):
    # The text twin of the JSON test above: each failing equation is printed
    # as residual[<name>]=<text>, in the order its check returns them (both
    # T7 readings fail with deg-cos-euler off by r), and passing lines keep
    # their form.
    import degenpoly.identities as identities
    from degenpoly.egfseries import EgfSeries
    from degenpoly.families import FamilyKind
    from degenpoly.multipoly import MPoly

    def perturbed(kind, order):
        seq, r = family(kind, order), MPoly.variable("r")
        off = kind in (FamilyKind.DEG_COSINE, FamilyKind.DEG_COS_EULER)
        return EgfSeries([p + r for p in seq.polys]) if off else seq

    monkeypatch.setattr(identities, "family", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--identity", "T2_cos,T2_sin,T7_stirling_euler_cos",
                           "--n-max", "2", "--format", "text")
    assert code == 1
    assert out.splitlines() == [
        "T2_cos n=0 fails residual[closed]=r",
        "T2_cos n=1 fails residual[closed]=r",
        "T2_cos n=2 fails residual[closed]=r",
        "T2_sin n=0 holds",
        "T2_sin n=1 holds",
        "T2_sin n=2 holds",
        "T7_stirling_euler_cos n=0 holds",
        "T7_stirling_euler_cos n=1 fails residual[binom(n,k)]=-x*r residual[binom(n,l)]=-x*r",
        "T7_stirling_euler_cos n=2 fails residual[binom(n,k)]=-x^2*r + l*x*r - 2*x*r"
        " residual[binom(n,l)]=-x^2*r + 2*l*x*r + l*x - 3*x*r - x",
        "FAILED: 4 hold, 0 hold (variant), 5 fail",
    ]


def test_verify_unknown_tag(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "bogus", "--n-max", "2")
    assert code == 2
    assert "unknown identity tag" in err


def test_verify_repeated_tag(capsys):
    # Run twice, a repeated tag would print and count its reports twice.
    code, out, err = run_cli(capsys, "verify", "--identity", "T2_cos,T2_cos", "--n-max", "1",
                             "--format", "text")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: repeated identity tag 'T2_cos'"


def test_verify_order_violation(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-max", "5", "--order", "3")
    assert code == 2
    assert "order" in err


def test_verify_default_order_is_named_as_the_default(capsys):
    # No --order was given, so the message names where 32768 came from.
    code, out, err = run_cli(capsys, "verify", "--n-max", "32766")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the default order n_max + 2 must be below 32768, got 32768")


# Each case has an explicit id, so deleting one never renames the others; the
# ids keep the names the cases had when pytest numbered them.
@pytest.mark.parametrize("argv", [
    pytest.param(["table", "--family", "deg-cosine", "--n", "40000"], id="argv0"),
    pytest.param(["table", "--family", "deg-euler", "--n-max", "32768"], id="argv1"),
    pytest.param(["verify", "--identity", "T2_cos", "--n-max", "40000"], id="argv2"),
    pytest.param(["verify", "--n-max", "3", "--order", "32768"], id="argv3"),
    pytest.param(["stirling", "--kind", "first", "--n-max", "32768"], id="argv4"),
    pytest.param(["series", "--kernel", "euler", "--order", "32768"], id="argv5"),
])
def test_sizes_past_the_exponent_field_fail_fast(capsys, argv):
    # Exponents must stay below 2^15; such a size is rejected before any build.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "32768" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["table", "--family", "deg-cosine", "--n", "-1"], id="argv0"),
    pytest.param(["table", "--family", "deg-euler", "--n-max", "-1"], id="argv1"),
    pytest.param(["stirling", "--kind", "first", "--n-max", "-1"], id="argv2"),
    pytest.param(["verify", "--identity", "T2_cos", "--n-max", "-1"], id="argv3"),
    pytest.param(["verify", "--n-max", "3", "--order", "-1"], id="argv4"),
    pytest.param(["series", "--kernel", "euler", "--order", "-1"], id="argv5"),
])
def test_negative_sizes_fail_fast(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "-1" in err


def test_verify_reports_do_not_depend_on_the_order(capsys):
    # verify builds to degree n_max + 1 whatever the order, so even an order
    # at the exponent limit returns at once; the order is still checked and
    # echoed in the summary.
    outputs = {}
    for order in (7, 40, 32767):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "6", "--order", str(order))
        assert code == 0
        *reports, summary = out.splitlines()
        outputs[order] = reports, json.loads(summary)["summary"]
    reports, summary = outputs[7]
    assert len(reports) == 29 * 7 and summary["order"] == 7
    for order in (40, 32767):
        assert outputs[order] == (reports, {**summary, "order": order})


def test_verify_output_is_deterministic(capsys):
    args = ["verify", "--identity", "T4_cos", "--n-max", "4", "--format", "json"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_invalid_rational_binding(capsys):
    code, _, err = run_cli(
        capsys, "table", "--family", "deg-euler", "--n", "1", "--x", "nope"
    )
    assert code == 2
    assert "invalid rational" in err

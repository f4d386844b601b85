import json
from fractions import Fraction

import pytest

from degenpoly.families import FamilyKind, family
from degenpoly.identities import (
    CITATIONS,
    IdentityEngine,
    IdentityId,
    summarize,
    verify,
    verify_all,
)
from degenpoly.multipoly import MPoly


@pytest.fixture(scope="module")
def engine():
    return IdentityEngine(n_max=6, order=8)


def test_every_tag_has_a_citation():
    assert set(CITATIONS) == set(IdentityId)


def test_order_precondition():
    with pytest.raises(ValueError, match="order"):
        IdentityEngine(n_max=5, order=3)


def test_unknown_tag_rejected(engine):
    with pytest.raises(ValueError):
        engine.verify("not-a-tag")


def test_t2_sin_degree_zero_holds(engine):
    rep = engine.verify(IdentityId.T2_SIN)[0]
    assert rep.verdict == "holds"
    assert rep.lhs_minus_rhs.is_zero()


def test_single_check_builds_only_its_family():
    fresh = IdentityEngine(4, 6)
    fresh.verify(IdentityId.T2_SIN)
    assert set(fresh.polys) == {FamilyKind.DEG_SINE}
    assert not fresh.x0


def test_t9_degree_zero_by_hand(engine):
    # C_0 = 1 must equal the first forward difference of the degree-1
    # cosine-Bernoulli polynomial; worked by hand: beta1^c = x + (l-1)/2 - ...
    bc = family(FamilyKind.DEG_COS_BERNOULLI, engine.order)
    diff = bc[1].substitute("x", MPoly.variable("x") + 1) - bc[1]
    assert diff == MPoly.one()
    assert engine.verify(IdentityId.T9_DIFF_COS)[0].verdict == "holds"


def test_reflection_sample(engine):
    reports = engine.verify(IdentityId.T6_REFLECT_COS)
    assert all(r.verdict == "holds" for r in reports)


def test_shift_specializations(engine):
    # The symbolic-r shift identity must survive specializing r.
    ce = family(FamilyKind.DEG_COS_EULER, engine.order)
    from degenpoly.combinat import gen_falling_factorial
    import math

    for r_value in (1, Fraction(-1, 2)):
        for n in range(5):
            lhs = ce[n].substitute("x", MPoly.variable("x") + r_value)
            rhs = MPoly.zero()
            for l in range(n + 1):
                rhs = rhs + (
                    ce[l]
                    * gen_falling_factorial(MPoly.constant(r_value), n - l)
                ).scale(math.comb(n, l))
            assert lhs == rhs


def test_all_tags_hold(engine):
    reports, summary = engine.verify_all()
    assert summary["fails"] == 0
    assert summary["ok"] is True
    for rep in reports:
        assert rep.verdict in ("holds", "holds_variant")
        if rep.verdict == "holds":
            assert rep.lhs_minus_rhs.is_zero()


def test_t7_variant_adjudication(engine):
    reports = engine.verify(IdentityId.T7_STIRLING_EULER_COS)
    variants = [r for r in reports if r.verdict == "holds_variant"]
    assert variants, "the binomial-index discrepancy should appear at some degree"
    for rep in variants:
        assert "surviving variant: binom(n,k)" in rep.variant_note
        assert "binom(n,l) residual:" in rep.variant_note
        # The losing variant's residual is attached and nonzero.
        residual_text = rep.variant_note.split("residual: ", 1)[1]
        assert residual_text not in ("", "0")


def test_reports_serialize_to_json(engine):
    reports = engine.verify(IdentityId.D_DECOMPOSITION)
    for rep in reports:
        blob = json.dumps(rep.to_json_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["id"] == "D_decomposition"
        assert parsed["verdict"] == "holds"
        assert parsed["residual"] == "0"
        assert parsed["citation"]


def test_module_level_helpers():
    reports = verify(IdentityId.T4_COS, 3, 5)
    assert [r.n for r in reports] == [0, 1, 2, 3]
    all_reports, summary = verify_all(2, 4)
    assert summary == summarize(all_reports)
    assert summary["fails"] == 0


def test_degenerate_run_all_hold_at_n_zero():
    _, summary = verify_all(0, 2)
    assert summary["fails"] == 0


# Perturbing one family must make exactly the checks that read it fail; a
# sin check that re-read the cos family would still report a zero residual.
_MUTATION_MAP = {
    FamilyKind.DEG_BERNOULLI_NUM: {"L0_classical_limits"},
    FamilyKind.DEG_EULER_NUM: {"L0_classical_limits"},
    FamilyKind.DEG_BERNOULLI: {
        "E61_E62_x0", "L0_classical_limits", "TB_closed_cos", "TB_closed_sin"},
    FamilyKind.DEG_EULER: {
        "L0_classical_limits", "T1_conj", "T1_expand", "T3_cos", "T3_sin"},
    **{
        kind: {"C10_" + trig, "L0_classical_limits", "T2_" + trig, "T3_" + trig,
               "T4_" + trig, "T9_diff_" + trig, "TB_closed_" + trig}
        for kind, trig in ((FamilyKind.DEG_COSINE, "cos"), (FamilyKind.DEG_SINE, "sin"))
    },
    **{
        kind: {"D_decomposition", "L0_classical_limits", "P5_shift_" + trig,
               "T3_" + trig, "T4_" + trig, "T6_reflect_" + trig,
               "T7_stirling_euler_" + trig}
        for kind, trig in ((FamilyKind.DEG_COS_EULER, "cos"),
                           (FamilyKind.DEG_SIN_EULER, "sin"))
    },
    **{
        kind: {"C10_" + trig, "D_decomposition", shift, "E61_E62_x0",
               "E63_stirling_bern_" + trig, "L0_classical_limits",
               "T8_reflect_" + trig, "TB_closed_" + trig}
        for kind, trig, shift in (
            (FamilyKind.DEG_COS_BERNOULLI, "cos", "E57_shift_cos"),
            (FamilyKind.DEG_SIN_BERNOULLI, "sin", "E58_shift_sin"))
    },
}


@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda kind: kind.value)
def test_each_check_reads_its_own_family(monkeypatch, kind):
    import degenpoly.identities as identities
    from degenpoly.families import FamilySequence

    def perturbed(asked, order):
        seq = family(asked, order)
        if asked is not kind:
            return seq
        r = MPoly.variable("r")
        return FamilySequence(tuple(p + r for p in seq.polys))

    monkeypatch.setattr(identities, "family", perturbed)
    reports, _ = IdentityEngine(4, 6).verify_all()
    failing = {rep.id.value for rep in reports if rep.verdict == "fails"}
    assert failing == _MUTATION_MAP[kind]

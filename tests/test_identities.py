import json
import operator
from fractions import Fraction
from functools import reduce

import pytest

from degenpoly import combinat, families, multipoly
from degenpoly.families import FamilyKind, family
from degenpoly.identities import CITATIONS, IdentityEngine, IdentityId, summarize
from degenpoly.multipoly import MPoly


@pytest.fixture(scope="module")
def engine():
    return IdentityEngine(n_max=6)


def _verify_all(engine):
    reports = [rep for tag in IdentityId for rep in engine.verify(tag)]
    return reports, summarize(reports)


def test_every_tag_has_a_citation():
    assert set(CITATIONS) == set(IdentityId)


@pytest.mark.parametrize("n_max", [True, 2.0])
def test_engine_sizes_must_be_ints(n_max):
    # A bool would run as 0 or 1 and a float would fail late, inside range.
    with pytest.raises(TypeError, match="must be an int"):
        IdentityEngine(n_max)


def test_unknown_tag_rejected(engine):
    with pytest.raises(ValueError):
        engine.verify("not-a-tag")


def test_t2_sin_degree_zero_holds(engine):
    rep = engine.verify(IdentityId.T2_SIN)[0]
    assert rep.verdict == "holds"
    assert rep.failing == ()


def test_single_check_builds_only_its_family(monkeypatch):
    import degenpoly.identities as identities

    asked = []

    def recording(kind, size):
        asked.append(kind)
        return family(kind, size)

    monkeypatch.setattr(identities, "family", recording)
    fresh = IdentityEngine(4)
    fresh.verify(IdentityId.T2_SIN)
    assert set(asked) == {FamilyKind.DEG_SINE}
    assert not fresh._x0


def test_theorem_1_checks_both_of_its_displays(monkeypatch):
    # T1_conj expands over the paper's ascending factorials on iy and iy - x.
    # Read as the y -> -y image of T1_expand, it would ask for T1_expand's
    # descending factorials and prove nothing T1_expand does not.
    import degenpoly.identities as identities
    from degenpoly.combinat import gen_falling_factorial

    asked = []

    def recording(u, n, step=-1):
        asked.append((u, step))
        return gen_falling_factorial(u, n, step)

    monkeypatch.setattr(identities, "gen_falling_factorial", recording)
    fresh = IdentityEngine(4)
    iy, x = MPoly.variable("y") * MPoly.I, MPoly.variable("x")
    for tag, step, args in ((IdentityId.T1_EXPAND, -1, (iy, x + iy)),
                            (IdentityId.T1_CONJ, 1, (iy, iy - x))):
        asked.clear()
        assert all(rep.verdict == "holds" for rep in fresh.verify(tag))
        assert set(asked) == {(u, step) for u in args}, tag


def test_t9_degree_zero_by_hand(engine):
    # C_0 = 1 must equal the first forward difference of the degree-1
    # cosine-Bernoulli polynomial; worked by hand: beta1^c = x + (l-1)/2 - ...
    bc = family(FamilyKind.DEG_COS_BERNOULLI, engine.degree)
    diff = bc[1].substitute("x", MPoly.variable("x") + 1) - bc[1]
    assert diff == MPoly.one()
    assert engine.verify(IdentityId.T9_DIFF_COS)[0].verdict == "holds"


def test_reflection_sample(engine):
    reports = engine.verify(IdentityId.T6_REFLECT_COS)
    assert all(r.verdict == "holds" for r in reports)


def test_shift_specializations(engine):
    # The symbolic-r shift identity must survive specializing r.
    ce = family(FamilyKind.DEG_COS_EULER, engine.degree)
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
    reports, summary = _verify_all(engine)
    assert summary["fails"] == 0
    assert summary["ok"] is True
    for rep in reports:
        assert rep.verdict in ("holds", "holds_variant")
        if rep.verdict == "holds":
            assert rep.failing == ()


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
    reports = IdentityEngine(3).verify(IdentityId.T4_COS)
    assert [r.n for r in reports] == [0, 1, 2, 3]
    all_reports, summary = _verify_all(IdentityEngine(2))
    assert summary["checks"] == len(all_reports) == 3 * len(IdentityId)
    assert summary["holds"] + summary["holds_variant"] == summary["checks"]
    assert summary["fails"] == 0


def test_degenerate_run_all_hold_at_n_zero():
    _, summary = _verify_all(IdentityEngine(0))
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


def _failing_names(kind, tag):
    """The equations a check with several must name when ``kind`` is perturbed,
    or None for the checks this does not pin."""
    if tag in ("L0_classical_limits", "D_decomposition"):
        return {kind.value}
    if tag.startswith(("T3_", "TB_closed_")):
        # The lhs family enters both equations; a factor family only the convolution.
        kernel = "euler" if tag.startswith("T3_") else "bernoulli"
        lhs = families._KIND[kernel, tag.rsplit("_", 1)[1]]
        return {"conv", "closed"} if kind is lhs else {"conv"}
    if tag.startswith("T7_"):
        return {"binom(n,k)", "binom(n,l)"}
    return None


@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda kind: kind.value)
def test_each_check_reads_its_own_family(monkeypatch, kind):
    import degenpoly.identities as identities
    from degenpoly.egfseries import EgfSeries

    r = MPoly.variable("r")

    def perturbed(asked, order):
        seq = family(asked, order)
        if asked is not kind:
            return seq
        return EgfSeries([p + r for p in seq.polys])

    monkeypatch.setattr(identities, "family", perturbed)
    reports, _ = _verify_all(IdentityEngine(4))
    failing = {rep.id.value for rep in reports if rep.verdict == "fails"}
    assert failing == _MUTATION_MAP[kind]
    for rep in reports:
        if rep.verdict != "fails":
            assert rep.failing == ()
            continue
        # Every unequal equation is named; the residual shown is the first one's.
        names = {name for name, _ in rep.failing}
        assert rep.to_json_dict()["residual"] == rep.failing[0][1].to_text()
        assert all(residual != MPoly.zero() for _, residual in rep.failing)
        assert names == (_failing_names(kind, rep.id.value) or names), (rep.id, rep.n)
    if kind is FamilyKind.DEG_COSINE:
        # T2_cos compares the family with its closed form: the residual is r.
        t2 = [rep for rep in reports if rep.id is IdentityId.T2_COS]
        assert all(rep.verdict == "fails" and rep.failing == (("closed", r),) for rep in t2)


def test_engine_builds_nothing_past_degree_n_max_plus_one(monkeypatch):
    # The polynomials do not depend on a truncation order, so the engine
    # builds nothing past the degree n_max + 1 that T9 reads.
    import degenpoly.identities as identities

    asked = []

    def recording(builder):
        def build(which, size):
            asked.append((builder.__name__, size))
            return builder(which, size)
        return build

    names = {"family", "family_closed", "classical_family", "complex_series", "stirling_table"}
    for name in names:
        monkeypatch.setattr(identities, name, recording(getattr(identities, name)))
    _, summary = _verify_all(IdentityEngine(4))
    assert summary["fails"] == 0
    assert {name for name, _ in asked} == names
    assert max(size for _, size in asked) == 5


def _clear_package_caches():
    for module in (multipoly, combinat, families):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_factorial_ladder_defect_fails_the_checks_that_read_it(monkeypatch):
    # T4 and C10 read (1)_{n,l} from the ring's ladder, through combinat, on their
    # right-hand sides.  The kernels are read off e_l(t), so a defect in the
    # ladder cannot cancel out of these checks, and the checks that read only
    # the generating-function families still hold.
    lv = MPoly.variable("l")
    ladder = combinat._ladder

    def defective(u, n, step):
        if not (u == 1 and step == -lv):
            return ladder(u, n, step)
        # The third factor 1 - 2l gains l^2; computed afresh, never cached.
        factors = (MPoly.one() - lv.scale(j) + (lv * lv if j == 2 else 0) for j in range(n))
        return reduce(operator.mul, factors, MPoly.one())

    _clear_package_caches()
    monkeypatch.setattr(combinat, "_ladder", defective)
    try:
        reports, _ = _verify_all(IdentityEngine(8))
    finally:
        monkeypatch.undo()
        _clear_package_caches()
    failing = {rep.id.value for rep in reports if rep.verdict == "fails"}
    assert failing >= {"T4_cos", "T4_sin", "C10_cos", "C10_sin"}
    assert not {tag for tag in failing if tag.startswith(("T6_", "T8_", "T9_"))}

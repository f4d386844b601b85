from fractions import Fraction

import pytest

from degenpoly.combinat import StirlingKind, gen_falling_factorial, stirling_table
from degenpoly.egfseries import EgfSeries
from degenpoly.families import (
    FamilyKind,
    classical_family,
    classical_cos_sin_series,
    classical_kernel_series,
    complex_euler,
    complex_series,
    deg_cos_sin_series,
    deg_exp_series,
    family,
    family_closed,
    kernel_series,
    trig_stirling_rows,
)
from degenpoly.multipoly import MPoly

L = MPoly.variable("l")
X = MPoly.variable("x")
Y = MPoly.variable("y")
I = MPoly.I

N = 8


def test_deg_exp_series_of_one():
    s = deg_exp_series(MPoly.one(), 4)
    assert s[0] == MPoly.one()
    assert s[1] == MPoly.one()
    assert s[2] == MPoly.one() - L
    assert s[3] == (MPoly.one() - L) * (MPoly.one() - L.scale(2))


def test_deg_exp_series_of_zero_is_unit():
    s = deg_exp_series(MPoly.zero(), 4)
    assert s[0] == MPoly.one()
    for n in range(1, 5):
        assert s[n] == MPoly.zero()


def test_deg_exp_series_classical_limit():
    s = deg_exp_series(X, 5)
    for n in range(6):
        assert s[n].substitute("l", 0) == X ** n


def test_deg_cos_sin_low_coefficients():
    cos, sin = deg_cos_sin_series(4)
    assert cos[0] == MPoly.one()
    assert cos[2] == -(Y * Y)
    assert cos[3] == (L * Y * Y).scale(3)
    assert sin[0] == MPoly.zero()
    assert sin[1] == Y


def test_deg_cos_sin_series_are_real():
    cos, sin = deg_cos_sin_series(N)
    for c in list(cos.polys) + list(sin.polys):
        _, im = c.split_real_imag()
        assert im == MPoly.zero()


def test_cos_sin_series_match_the_paper_definitions():
    # The paper defines cos_l = (E(iy) + E(-iy)) / 2 and sin_l = (E(iy) - E(-iy)) / 2i;
    # the package reads them as the two parts of E(iy) alone.
    plus, minus = deg_exp_series(Y * I, 20).polys, deg_exp_series(-(Y * I), 20).polys
    cos, sin = deg_cos_sin_series(20)
    assert list(cos.polys) == [(p + m).scale(Fraction(1, 2)) for p, m in zip(plus, minus)]
    assert list(sin.polys) == [((m - p) * I).scale(Fraction(1, 2)) for p, m in zip(plus, minus)]
    # The classical ones are the parity-filtered (-1)^k y^(2k) and (-1)^k y^(2k+1).
    cos, sin = classical_cos_sin_series(20)
    for n in range(21):
        y_n = (Y ** n).scale((-1) ** (n // 2))
        assert (cos[n], sin[n]) == (
            (y_n, MPoly.zero()) if n % 2 == 0 else (MPoly.zero(), y_n)), n


def test_deg_cos_sin_closed_matches_series():
    # The closed-form cosine/sine polynomials at x = 0 are the series coefficients.
    series = deg_cos_sin_series(N)
    for kind, coeffs in zip((FamilyKind.DEG_COSINE, FamilyKind.DEG_SINE), series):
        closed = family_closed(kind, N)
        assert [p.substitute("x", 0) for p in closed.polys] == list(coeffs.polys)


def test_trig_stirling_rows_are_parts_of_factorial_at_iy():
    # The cos/sin rows are built from the first-kind Stirling table; they must
    # be the real and imaginary parts of (iy)_{m,l} = prod_j (iy - j*l).
    iy = Y * I
    cos_rows, sin_rows = trig_stirling_rows("cos", 14), trig_stirling_rows("sin", 14)
    for m in range(15):
        assert (cos_rows[m], sin_rows[m]) == gen_falling_factorial(iy, m).split_real_imag()


def test_euler_kernel_coefficients():
    k = kernel_series("euler", 4)
    assert k[0] == MPoly.one()
    assert k[1] == MPoly.constant(Fraction(-1, 2))
    assert k[2] == L.scale(Fraction(1, 2))


def test_bernoulli_kernel_coefficients():
    k = kernel_series("bernoulli", 4)
    assert k[0] == MPoly.one()
    assert k[1] == (L - 1).scale(Fraction(1, 2))


def test_unknown_kernel_rejected():
    # Each builder names the bad value: "tan" is no trig (odd j alone would
    # read it as sine), and a family's CLI name is no FamilyKind.
    cases = [(kernel_series, "gamma"), (trig_stirling_rows, "tan"), (family, "deg-cosine"),
             (family_closed, "deg-cosine"), (classical_family, "deg-cosine")]
    for build, bad in cases:
        with pytest.raises(ValueError, match=repr(bad)):
            build(bad, 4)


def test_classical_bernoulli_numbers_from_oracle():
    b = classical_kernel_series("bernoulli", 12)
    assert b[2] == MPoly.constant(Fraction(1, 6))
    assert b[12] == MPoly.constant(Fraction(-691, 2730))


def test_family_examples():
    assert family(FamilyKind.DEG_COSINE, N)[2] == X * X - L * X - Y * Y
    assert family(FamilyKind.DEG_COSINE, N)[0] == MPoly.one()
    assert family(FamilyKind.DEG_SINE, N)[0] == MPoly.zero()
    assert family(FamilyKind.DEG_EULER, N)[1] == X - MPoly.constant(Fraction(1, 2))


def test_sine_families_start_at_zero():
    for kind in (FamilyKind.DEG_SINE, FamilyKind.DEG_SIN_EULER, FamilyKind.DEG_SIN_BERNOULLI):
        assert family(kind, N)[0] == MPoly.zero()


def test_all_families_are_real():
    for kind in FamilyKind:
        for p in family(kind, N).polys:
            _, im = p.split_real_imag()
            assert im == MPoly.zero()


def test_family_closed_matches_family():
    for kind in (
        FamilyKind.DEG_COSINE,
        FamilyKind.DEG_SINE,
        FamilyKind.DEG_COS_EULER,
        FamilyKind.DEG_SIN_EULER,
        FamilyKind.DEG_COS_BERNOULLI,
        FamilyKind.DEG_SIN_BERNOULLI,
    ):
        direct = family(kind, N)
        closed = family_closed(kind, N)
        for n in range(N + 1):
            assert direct[n] == closed[n], (kind, n)


def test_family_closed_rejects_number_kinds():
    with pytest.raises(ValueError):
        family_closed(FamilyKind.DEG_EULER_NUM, 4)
    with pytest.raises(ValueError):
        family_closed(FamilyKind.DEG_BERNOULLI_NUM, 4)


@pytest.mark.parametrize("kind", [FamilyKind.DEG_BERNOULLI, FamilyKind.DEG_EULER],
                         ids=lambda kind: kind.value)
def test_family_closed_rejects_kinds_without_trig_factor(kind):
    # The paper proves closed forms only for the cosine/sine families.
    with pytest.raises(ValueError, match="no closed-form route"):
        family_closed(kind, 4)


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: deg_exp_series(X, -1), ValueError, id="deg_exp_series"),
    pytest.param(lambda: deg_exp_series(X, True), TypeError, id="deg_exp_series-True"),
    pytest.param(lambda: EgfSeries.from_function(True, lambda n: X), TypeError,
                 id="from_function-True"),
    pytest.param(lambda: deg_cos_sin_series(-1), ValueError, id="deg_cos_sin_series"),
    pytest.param(lambda: family_closed(FamilyKind.DEG_COSINE, -1), ValueError,
                 id="family_closed"),
    *(pytest.param(lambda kind=kind: family(kind, -1), ValueError, id=f"family-{kind.value}")
      for kind in FamilyKind),
])
def test_negative_order_rejected(build, error):
    # deg_exp_series(u, -1) returned an order-0 series, so family(deg-cosine, -1)
    # returned one coefficient where every kernel kind raised.  An order of
    # True is not order 1: a bool raises like any other non-int.
    with pytest.raises(error):
        build()


def test_numbers_equal_polynomials_at_x_zero():
    for num_kind, poly_kind in (
        (FamilyKind.DEG_EULER_NUM, FamilyKind.DEG_EULER),
        (FamilyKind.DEG_BERNOULLI_NUM, FamilyKind.DEG_BERNOULLI),
    ):
        nums = family(num_kind, N)
        polys = family(poly_kind, N)
        for n in range(N + 1):
            assert nums[n] == polys[n].substitute("x", 0)


def test_y_zero_collapse():
    cos_euler = family(FamilyKind.DEG_COS_EULER, N)
    sin_euler = family(FamilyKind.DEG_SIN_EULER, N)
    euler = family(FamilyKind.DEG_EULER, N)
    for n in range(N + 1):
        assert cos_euler[n].substitute("y", 0) == euler[n]
        assert sin_euler[n].substitute("y", 0) == MPoly.zero()


def test_complex_euler_low_degrees():
    assert complex_euler(0, 4) == MPoly.one()
    e1 = complex_euler(1, 4)
    assert e1 == X + Y * I - MPoly.constant(Fraction(1, 2))
    assert e1 == complex_series("euler", 4)[1]
    re, im = e1.split_real_imag()
    assert re == X - MPoly.constant(Fraction(1, 2))
    assert im == Y


def test_conjugate_euler_is_the_y_reflection():
    # The Euler polynomial at x - iy, built as its own product of series,
    # is the image under y -> -y of the one at x + iy.
    conj = kernel_series("euler", 14) * deg_exp_series(X - Y * I, 14)
    series = complex_series("euler", 14)
    for n in range(15):
        assert series[n].substitute("y", -Y) == conj[n], n


def test_complex_bernoulli_low_degrees():
    series = complex_series("bernoulli", 4)
    assert series[0] == MPoly.one()
    b1 = series[1]
    assert b1 == X + Y * I + (L - 1).scale(Fraction(1, 2))
    _, im = b1.split_real_imag()
    assert im == Y


def test_classical_family_limits():
    for kind in FamilyKind:
        deg = family(kind, 6)
        cls = classical_family(kind, 6)
        for n in range(7):
            assert deg[n].substitute("l", 0) == cls[n], (kind, n)


CACHED_FUNCTIONS = [
    (deg_cos_sin_series, ()),
    (kernel_series, ("euler",)),
    (family, (FamilyKind.DEG_COS_EULER,)),
    (trig_stirling_rows, ("sin",)),
    (family_closed, (FamilyKind.DEG_COS_EULER,)),
    (complex_series, ("bernoulli",)),
    (classical_kernel_series, ("euler",)),
    (classical_family, (FamilyKind.DEG_COS_EULER,)),
    (stirling_table, (StirlingKind.FIRST,)),
]


@pytest.mark.parametrize("fn, args", CACHED_FUNCTIONS,
                         ids=[fn.__name__ for fn, _ in CACHED_FUNCTIONS])
def test_warm_cache_does_not_admit_an_equal_float_or_bool(fn, args):
    # 5 == 5.0 and 1 == True are one dict key; a warm call with the float or
    # bool must raise, as it does cold: True is no order 1.
    fn(*args, 5)
    fn(*args, 1)
    with pytest.raises(TypeError):
        fn(*args, 5.0)
    with pytest.raises(TypeError):
        fn(*args, True)

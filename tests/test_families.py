from fractions import Fraction

import pytest

from degenpoly.combinat import gen_falling_factorial
from degenpoly.families import (
    FamilyKind,
    classical_family,
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
    assert s.coefficient(0) == MPoly.one()
    assert s.coefficient(1) == MPoly.one()
    assert s.coefficient(2) == MPoly.one() - L
    assert s.coefficient(3) == (MPoly.one() - L) * (MPoly.one() - L.scale(2))


def test_deg_exp_series_of_zero_is_unit():
    s = deg_exp_series(MPoly.zero(), 4)
    assert s.coefficient(0) == MPoly.one()
    for n in range(1, 5):
        assert s.coefficient(n).is_zero()


def test_deg_exp_series_classical_limit():
    s = deg_exp_series(X, 5)
    for n in range(6):
        assert s.coefficient(n).substitute("l", 0) == X ** n


def test_deg_cos_sin_low_coefficients():
    cos, sin = deg_cos_sin_series(4)
    assert cos.coefficient(0) == MPoly.one()
    assert cos.coefficient(2) == -(Y * Y)
    assert cos.coefficient(3) == (L * Y * Y).scale(3)
    assert sin.coefficient(0).is_zero()
    assert sin.coefficient(1) == Y


def test_deg_cos_sin_series_are_real():
    cos, sin = deg_cos_sin_series(N)
    for c in list(cos.coeffs) + list(sin.coeffs):
        _, im = c.split_real_imag()
        assert im.is_zero()


def test_deg_cos_sin_closed_matches_series():
    # The closed-form cosine/sine polynomials at x = 0 are the series coefficients.
    series = deg_cos_sin_series(N)
    for kind, coeffs in zip((FamilyKind.DEG_COSINE, FamilyKind.DEG_SINE), series):
        closed = family_closed(kind, N)
        assert [p.substitute("x", 0) for p in closed.polys] == list(coeffs.coeffs)


def test_trig_stirling_rows_are_parts_of_factorial_at_iy():
    # The cos/sin rows are built from the first-kind Stirling table; they must
    # be the real and imaginary parts of (iy)_{m,l} = prod_j (iy - j*l).
    iy = Y * I
    cos_rows, sin_rows = trig_stirling_rows("cos", 14), trig_stirling_rows("sin", 14)
    for m in range(15):
        assert (cos_rows[m], sin_rows[m]) == gen_falling_factorial(iy, m).split_real_imag()


def test_euler_kernel_coefficients():
    k = kernel_series("euler", 4)
    assert k.coefficient(0) == MPoly.one()
    assert k.coefficient(1) == MPoly.constant(Fraction(-1, 2))
    assert k.coefficient(2) == L.scale(Fraction(1, 2))


def test_bernoulli_kernel_coefficients():
    k = kernel_series("bernoulli", 4)
    assert k.coefficient(0) == MPoly.one()
    assert k.coefficient(1) == (L - 1).scale(Fraction(1, 2))


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        kernel_series("gamma", 4)


def test_classical_bernoulli_numbers_from_oracle():
    b = classical_kernel_series("bernoulli", 12)
    assert b.coefficient(2) == MPoly.constant(Fraction(1, 6))
    assert b.coefficient(12) == MPoly.constant(Fraction(-691, 2730))


def test_family_examples():
    assert family(FamilyKind.DEG_COSINE, N)[2] == X * X - L * X - Y * Y
    assert family(FamilyKind.DEG_COSINE, N)[0] == MPoly.one()
    assert family(FamilyKind.DEG_SINE, N)[0].is_zero()
    assert family(FamilyKind.DEG_EULER, N)[1] == X - MPoly.constant(Fraction(1, 2))


def test_sine_families_start_at_zero():
    for kind in (FamilyKind.DEG_SINE, FamilyKind.DEG_SIN_EULER, FamilyKind.DEG_SIN_BERNOULLI):
        assert family(kind, N)[0].is_zero()


def test_all_families_are_real():
    for kind in FamilyKind:
        for p in family(kind, N).polys:
            _, im = p.split_real_imag()
            assert im.is_zero()


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
        assert sin_euler[n].substitute("y", 0).is_zero()


def test_complex_euler_low_degrees():
    assert complex_euler(0, 4) == MPoly.one()
    e1 = complex_euler(1, 4)
    assert e1 == X + Y * I - MPoly.constant(Fraction(1, 2))
    assert e1 == complex_series("euler", 4).coefficient(1)
    re, im = e1.split_real_imag()
    assert re == X - MPoly.constant(Fraction(1, 2))
    assert im == Y


def test_complex_bernoulli_low_degrees():
    series = complex_series("bernoulli", 4)
    assert series.coefficient(0) == MPoly.one()
    b1 = series.coefficient(1)
    assert b1 == X + Y * I + (L - 1).scale(Fraction(1, 2))
    _, im = b1.split_real_imag()
    assert im == Y


def test_classical_family_limits():
    for kind in FamilyKind:
        deg = family(kind, 6)
        cls = classical_family(kind, 6)
        for n in range(7):
            assert deg[n].substitute("l", 0) == cls[n], (kind, n)

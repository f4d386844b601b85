import math
from fractions import Fraction

import pytest

from degenpoly.egfseries import EgfSeries
from degenpoly.multipoly import MPoly


def ones(order):
    return EgfSeries.from_function(order, lambda n: MPoly.one())


def test_exp_times_exp_is_exp_of_two_t():
    # Oracle: sum_k binom(n,k) = 2^n, computed independently.
    product = ones(10) * ones(10)
    for n in range(11):
        expected = sum(math.comb(n, k) for k in range(n + 1))
        assert expected == 2 ** n
        assert product.coefficient(n) == MPoly.constant(expected)


def test_mul_by_unit_is_identity():
    f = EgfSeries.from_function(6, lambda n: MPoly.variable("x") ** n)
    assert f * EgfSeries.unit(6) == f


def test_invert_exp_gives_alternating_signs():
    # e^t * e^{-t} = 1.
    g = ones(8).invert()
    for n in range(9):
        assert g.coefficient(n) == MPoly.constant((-1) ** n)


def test_invert_unit_is_unit():
    assert EgfSeries.unit(5).invert() == EgfSeries.unit(5)


def test_invert_euler_kernel_denominator():
    # (e_l(t)+1)/2 in the exponential basis starts 1, 1/2, (1-l)/2, ...;
    # its inverse starts 1, -1/2, l/2 (worked by the triangular recurrence).
    from degenpoly.combinat import gen_falling_factorial

    g = EgfSeries.from_function(
        4,
        lambda n: MPoly.one() if n == 0 else gen_falling_factorial(1, n).scale(Fraction(1, 2)),
    )
    inv = g.invert()
    lam = MPoly.variable("l")
    assert inv.coefficient(0) == MPoly.one()
    assert inv.coefficient(1) == MPoly.constant(Fraction(-1, 2))
    assert inv.coefficient(2) == lam.scale(Fraction(1, 2))
    # l = 0 values match the classical sequence 1, -1/2, 0.
    assert inv.coefficient(2).substitute("l", 0).is_zero()


def test_invert_requires_unit_constant_term():
    f = EgfSeries.from_function(3, lambda n: MPoly.constant(2))
    with pytest.raises(ValueError, match="constant coefficient 1"):
        f.invert()


def test_invert_is_two_sided():
    f = EgfSeries.from_function(
        6, lambda n: MPoly.one() if n == 0 else MPoly.variable("l") ** n
    )
    g = f.invert()
    assert f * g == EgfSeries.unit(6)
    assert g * f == EgfSeries.unit(6)


def test_order_mismatch_is_error():
    with pytest.raises(ValueError, match="order mismatch"):
        ones(3) * ones(4)
    with pytest.raises(ValueError, match="order mismatch"):
        ones(3) + ones(4)


def test_coefficient_out_of_range():
    f = ones(3)
    with pytest.raises(IndexError):
        f.coefficient(4)
    with pytest.raises(IndexError):
        f.coefficient(-1)


def test_mul_commutative_and_associative():
    f = EgfSeries.from_function(5, lambda n: MPoly.variable("x") ** n)
    g = EgfSeries.from_function(5, lambda n: MPoly.variable("l").scale(n))
    h = ones(5)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


def test_truncation_congruence():
    # Coefficients past the order are never consulted: the order-4 series
    # built from the first five coefficients multiply to the first five of
    # the order-8 product.
    f = EgfSeries.from_function(8, lambda n: MPoly.variable("x") ** n)
    g = EgfSeries.from_function(8, lambda n: MPoly.variable("y").scale(n + 1))

    def short(s):
        return EgfSeries(4, s.coeffs[:5])

    assert short(f * g) == short(f) * short(g)


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        EgfSeries(3, [MPoly.one()] * 3)

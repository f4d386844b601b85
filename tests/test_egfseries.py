import math
from fractions import Fraction

import pytest

from degenpoly.egfseries import EgfSeries
from degenpoly.families import FamilyKind, classical_family, family, family_closed
from degenpoly.multipoly import MPoly


def ones(order):
    return EgfSeries.from_function(order, lambda n: MPoly.one())


def unit(order):
    """The multiplicative identity (1, 0, 0, ...)."""
    return EgfSeries([MPoly.one()] + [MPoly.zero()] * order)


def test_exp_times_exp_is_exp_of_two_t():
    # Oracle: sum_k binom(n,k) = 2^n, computed independently.
    product = ones(10) * ones(10)
    for n in range(11):
        expected = sum(math.comb(n, k) for k in range(n + 1))
        assert expected == 2 ** n
        assert product[n] == MPoly.constant(expected)


def test_mul_by_unit_is_identity():
    f = EgfSeries.from_function(6, lambda n: MPoly.variable("x") ** n)
    assert f * unit(6) == f


def test_invert_exp_gives_alternating_signs():
    # e^t * e^{-t} = 1.
    g = ones(8).invert()
    for n in range(9):
        assert g[n] == MPoly.constant((-1) ** n)


def test_invert_unit_is_unit():
    assert unit(5).invert() == unit(5)


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
    assert inv[0] == MPoly.one()
    assert inv[1] == MPoly.constant(Fraction(-1, 2))
    assert inv[2] == lam.scale(Fraction(1, 2))
    # l = 0 values match the classical sequence 1, -1/2, 0.
    assert inv[2].substitute("l", 0) == MPoly.zero()


def test_invert_requires_unit_constant_term():
    f = EgfSeries.from_function(3, lambda n: MPoly.constant(2))
    with pytest.raises(ValueError, match="constant coefficient 1"):
        f.invert()


def test_invert_is_two_sided():
    f = EgfSeries.from_function(
        6, lambda n: MPoly.one() if n == 0 else MPoly.variable("l") ** n
    )
    g = f.invert()
    assert f * g == unit(6)
    assert g * f == unit(6)


def test_order_mismatch_is_error():
    with pytest.raises(ValueError, match="order mismatch"):
        ones(3) * ones(4)


def test_coefficient_out_of_range():
    # A family is a series too: at order 4 it holds rows 0..4, and a negative
    # index raises instead of wrapping to the last row as a tuple would.
    cos_euler = FamilyKind.DEG_COS_EULER
    for f, order in ((ones(3), 3), (family(FamilyKind.DEG_EULER, 4), 4),
                     (family_closed(cos_euler, 4), 4), (classical_family(cos_euler, 4), 4)):
        assert [f[n] for n in range(order + 1)] == list(f.polys)
        with pytest.raises(IndexError):
            f[order + 1]
        with pytest.raises(IndexError):
            f[-1]


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
        return EgfSeries(s.polys[:5])

    assert short(f * g) == short(f) * short(g)


def test_empty_series_rejected():
    # The order is read from the coefficients, so the one malformed series is
    # one without even a constant coefficient.
    with pytest.raises(ValueError):
        EgfSeries([])
    with pytest.raises(ValueError):
        EgfSeries.from_function(-1, lambda n: MPoly.one())


def test_coefficient_index_is_an_int():
    # s[True] is not a_1: a bool index raises like any other non-int.
    for bad in (True, False, 1.0):
        with pytest.raises(TypeError):
            ones(3)[bad]


def test_series_multiply_only_series():
    # A scalar is not a series: Python reports the unsupported operand.
    for bad in (2, Fraction(1, 2), MPoly.one()):
        with pytest.raises(TypeError):
            ones(3) * bad
        with pytest.raises(TypeError):
            bad * ones(3)

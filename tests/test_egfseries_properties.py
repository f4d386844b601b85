"""EgfSeries laws checked with hypothesis against a naive list convolution.

A series is drawn as a list of small polynomials; the reference product is
written here from its definition c_n = sum_k binom(n, k) a_k b_{n-k}, and
shares nothing with ``EgfSeries.__mul__`` but the ring.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly.egfseries import EgfSeries
from degenpoly.multipoly import MPoly

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
monomials = st.sampled_from([MPoly.one(), MPoly.variable("l"), MPoly.variable("x"), MPoly.I])
terms = st.tuples(rationals, monomials).map(lambda t: t[1].scale(t[0]))
coeffs = st.lists(terms, max_size=2).map(lambda ts: sum(ts, MPoly.zero()))
orders = st.integers(0, 4)

series_settings = settings(max_examples=60, deadline=None)


def lists(order, count):
    return st.tuples(*[st.lists(coeffs, min_size=order + 1, max_size=order + 1)] * count)


def naive_mul(a, b):
    return [
        sum((a[k] * b[n - k] * math.comb(n, k) for k in range(n + 1)), MPoly.zero())
        for n in range(len(a))
    ]


def series(coeff_list):
    return EgfSeries(coeff_list)


@series_settings
@given(orders.flatmap(lambda order: lists(order, 3)))
def test_mul_is_the_binomial_convolution_and_associative(abc):
    a, b, c = abc
    assert list((series(a) * series(b)).polys) == naive_mul(a, b)
    assert (series(a) * series(b)) * series(c) == series(a) * (series(b) * series(c))
    assert list((series(a) * series(b) * series(c)).polys) == naive_mul(naive_mul(a, b), c)


@series_settings
@given(orders.flatmap(lambda order: lists(order, 1)))
def test_invert_gives_the_unit(a):
    a = [MPoly.one()] + a[0][1:]
    inverse = series(a).invert()
    unit = [MPoly.one()] + [MPoly.zero()] * (len(a) - 1)
    assert series(a) * inverse == series(unit)
    assert naive_mul(a, list(inverse.polys)) == unit


@series_settings
@given(orders.flatmap(lambda order: lists(order, 3)), rationals)
def test_scale_distributes_over_mul_and_add(abc, q):
    # * is bilinear: scaling one factor's coefficients scales the product's,
    # and adding to them adds the product with the addend.
    a, b, c = abc
    product = naive_mul(a, b)
    scaled = [x.scale(q) for x in a]
    assert list((series(scaled) * series(b)).polys) == [x.scale(q) for x in product]
    assert series(scaled) * series(b) == series(a) * series([x.scale(q) for x in b])
    summed = [x + z for x, z in zip(a, c)]
    assert list((series(summed) * series(b)).polys) == [
        x + z for x, z in zip(product, naive_mul(c, b))]


@series_settings
@given(orders.flatmap(lambda order: lists(order, 1)))
def test_split_real_imag_gives_back_the_series(a):
    # re + i*im is the series again, and neither part has a term in i.
    re, im = series(a[0]).split_real_imag()
    assert series([x + z * MPoly.I for x, z in zip(re.polys, im.polys)]) == series(a[0])
    assert all(ei == 0 for part in (re, im) for c in part.polys for *_, ei in c.terms)

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
    return EgfSeries(len(coeff_list) - 1, coeff_list)


@series_settings
@given(orders.flatmap(lambda order: lists(order, 3)))
def test_mul_is_the_binomial_convolution_and_associative(abc):
    a, b, c = abc
    assert list((series(a) * series(b)).coeffs) == naive_mul(a, b)
    assert (series(a) * series(b)) * series(c) == series(a) * (series(b) * series(c))
    assert list((series(a) * series(b) * series(c)).coeffs) == naive_mul(naive_mul(a, b), c)


@series_settings
@given(orders.flatmap(lambda order: lists(order, 1)))
def test_invert_gives_the_unit(a):
    a = [MPoly.one()] + a[0][1:]
    inverse = series(a).invert()
    assert series(a) * inverse == EgfSeries.unit(len(a) - 1)
    assert naive_mul(a, list(inverse.coeffs)) == list(EgfSeries.unit(len(a) - 1).coeffs)


@series_settings
@given(orders.flatmap(lambda order: lists(order, 2)), rationals)
def test_scale_distributes_over_mul_and_add(ab, q):
    a, b = ab
    sa, sb = series(a), series(b)
    product = [c.scale(q) for c in naive_mul(a, b)]
    assert list((sa * sb).scale(q).coeffs) == product
    assert sa.scale(q) * sb == sa * sb.scale(q) == (sa * sb).scale(q)
    assert (sa + sb).scale(q) == sa.scale(q) + sb.scale(q)
    assert list((sa + sb).scale(q).coeffs) == [(x + y).scale(q) for x, y in zip(a, b)]

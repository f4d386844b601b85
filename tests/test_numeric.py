"""Exact scalars: Fraction, Gaussian-rational constants of the ring (built with
``MPoly.I``), and the plain ``Fraction``s that ``evaluate`` and ``terms`` return."""

import random
from fractions import Fraction

import pytest

from degenpoly.multipoly import MPoly, as_rat

I = MPoly.I


def test_rat_addition_textbook():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_rat_canonicalization():
    q = Fraction(2, 4) * 1
    assert (q.numerator, q.denominator) == (1, 2)


def test_rat_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_i_squared_is_minus_one():
    assert I * I == MPoly.constant(-1)


def conj(z: MPoly) -> MPoly:
    re, im = z.split_real_imag()
    return re - im * I


def test_conjugation():
    z = Fraction(3, 2) + 5 * I
    assert conj(z) == Fraction(3, 2) - 5 * I
    assert conj(conj(z)) == z


def test_gauss_division_by_conjugate():
    # (1+i)/(1-i) = i: multiply through by the conjugate 1+i and divide by |1-i|^2 = 2.
    assert ((1 + I) * conj(1 - I)).scale(Fraction(1, 2)) == I
    assert I * (1 - I) == 1 + I


def _random_gauss(rng):
    return (Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)))


def test_exact_round_trips():
    rng = random.Random(7)
    for _ in range(100):
        (a_re, a_im), (b_re, b_im) = _random_gauss(rng), _random_gauss(rng)
        a, b = a_re + a_im * I, b_re + b_im * I
        assert a + b - b == a
        if b:
            assert (a * b * conj(b)).scale(1 / (b_re * b_re + b_im * b_im)) == a


def test_conj_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        (a_re, a_im), (b_re, b_im) = _random_gauss(rng), _random_gauss(rng)
        a, b = a_re + a_im * I, b_re + b_im * I
        assert conj(a * b) == conj(a) * conj(b)
        assert conj(a + b) == conj(a) + conj(b)


def test_serialization():
    # A value prints as str(Fraction): "num/den", or "num" when the denominator is 1.
    assert str(MPoly.constant(Fraction(3, 2)).evaluate({})) == "3/2"
    assert str(MPoly.constant(-4).evaluate({})) == "-4"
    assert (Fraction(3, 2) - 5 * I).to_text() == "(3/2-5*i)"
    assert (Fraction(3, 2) + 5 * I).to_text() == "(3/2+5*i)"


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, 1j, None, "1/2"])
def test_inexact_and_bool_scalars_rejected(bad):
    with pytest.raises(TypeError):
        as_rat(bad)
    with pytest.raises(TypeError):
        MPoly.constant(bad)


"""Exact scalars: Fraction, Gaussian-rational constants of the ring (built with
``MPoly.I``), and ``GaussRat``, the value that ``evaluate`` and ``terms`` return."""

import random
from fractions import Fraction

import pytest

from degenpoly.multipoly import GaussRat, MPoly, as_rat, format_rat

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
    assert GaussRat(0, 1) * GaussRat(0, 1) == GaussRat(-1)


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
    assert format_rat(Fraction(3, 2)) == "3/2"
    assert format_rat(Fraction(-4)) == "-4"
    assert str(GaussRat(Fraction(3, 2), -5)) == "3/2-5*i"
    assert str(GaussRat(Fraction(3, 2), 5)) == "3/2+5*i"
    assert str(GaussRat(7)) == "7"
    assert str((Fraction(3, 2) - 5 * I).evaluate({})) == "3/2-5*i"


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, 1j, None, "1/2"])
def test_inexact_and_bool_scalars_rejected(bad):
    with pytest.raises(TypeError):
        as_rat(bad)
    with pytest.raises(TypeError):
        GaussRat(bad)
    with pytest.raises(TypeError):
        GaussRat(1, bad)


def test_gauss_is_immutable_value():
    z = GaussRat(Fraction(1, 2), -3)
    with pytest.raises(AttributeError):
        z.re = Fraction(0)
    assert z == GaussRat(Fraction(2, 4), Fraction(-6, 2))
    assert hash(z) == hash(GaussRat(Fraction(1, 2), -3))
    assert repr(z) == "GaussRat(Fraction(1, 2), Fraction(-3, 1))"
    assert z * GaussRat(1) == z and bool(z) and not GaussRat(0)
    # Only the product of two values is left; sums are taken in the ring.
    with pytest.raises(TypeError):
        z + z
    with pytest.raises(TypeError):
        2 * z

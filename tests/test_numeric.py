import random
from fractions import Fraction

import pytest

from degenpoly.numeric import GaussRat, as_gauss, as_rat, format_gauss, format_rat


def test_rat_addition_textbook():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_rat_canonicalization():
    q = Fraction(2, 4) * 1
    assert (q.numerator, q.denominator) == (1, 2)


def test_rat_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_i_squared_is_minus_one():
    i = GaussRat(0, 1)
    assert i * i == GaussRat(-1)


def test_conjugation():
    z = GaussRat(Fraction(3, 2), 5)
    assert z.conjugate() == GaussRat(Fraction(3, 2), -5)
    assert z.conjugate().conjugate() == z


def test_gauss_division_by_conjugate():
    # (1+i)/(1-i) = i, by multiplying through the conjugate.
    assert GaussRat(1, 1) / GaussRat(1, -1) == GaussRat(0, 1)


def test_gauss_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRat(1) / GaussRat(0)


def _random_gauss(rng):
    return GaussRat(
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
    )


def test_exact_round_trips():
    rng = random.Random(7)
    for _ in range(100):
        a, b = _random_gauss(rng), _random_gauss(rng)
        assert a + b - b == a
        if b:
            assert (a * b) / b == a


def test_conj_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        a, b = _random_gauss(rng), _random_gauss(rng)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_serialization():
    assert format_rat(Fraction(3, 2)) == "3/2"
    assert format_rat(Fraction(-4)) == "-4"
    assert format_gauss(GaussRat(Fraction(3, 2), -5)) == "3/2-5*i"
    assert format_gauss(GaussRat(Fraction(3, 2), 5)) == "3/2+5*i"
    assert format_gauss(GaussRat(7)) == "7"


def test_as_gauss_coercion():
    assert as_gauss(3) == GaussRat(3)
    assert as_gauss(Fraction(1, 2)) == GaussRat(Fraction(1, 2))


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, 1j, None])
def test_inexact_and_bool_scalars_rejected(bad):
    with pytest.raises(TypeError):
        as_rat(bad)
    with pytest.raises(TypeError):
        as_gauss(bad)
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
    assert 2 * z == z + z == z * 2
    assert 1 - z == -(z - 1)

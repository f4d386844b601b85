import random
from fractions import Fraction

import pytest

from degenpoly.multipoly import GaussRat, MPoly, VARIABLES

L = MPoly.variable("l")
X = MPoly.variable("x")
Y = MPoly.variable("y")
I = MPoly.I


def test_mul_distributes():
    assert X * (X - L) == X * X - L * X


def test_cancellation_gives_empty_map():
    p = Y * Y + (-(Y * Y))
    assert p.is_zero()
    assert p.terms == {}


def test_scale_by_i():
    p = (X + Y * I) * I
    assert p == X * I - Y


def test_substitute_lambda_zero():
    p = X * X - L * X
    assert p.substitute("l", 0) == X * X


def test_substitute_binomial_expansion():
    p = (X * X).substitute("x", MPoly.one() - X)
    assert p == MPoly.one() - X.scale(2) + X * X


def test_substitute_sign_flip():
    p = L * Y * Y
    assert p.substitute("l", -L) == -(L * Y * Y)


def test_substitute_identity():
    rng = random.Random(3)
    for _ in range(20):
        p = _random_poly(rng)
        for var in VARIABLES:
            assert p.substitute(var, MPoly.variable(var)) == p


def test_split_real_imag_examples():
    p = X * I - Y
    pre, pim = p.split_real_imag()
    assert pre == -Y and pim == X

    q = X * X + Y.scale(3)
    qre, qim = q.split_real_imag()
    assert qre == q and qim.is_zero()


def test_split_of_norm_product():
    # (x + iy)(x - iy) expands to x^2 + y^2 with no imaginary residue.
    p = (X + Y * I) * (X - Y * I)
    assert p == X * X + Y * Y
    pre, pim = p.split_real_imag()
    assert pre == p and pim.is_zero()


def test_split_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        p = _random_poly(rng, complex_coeffs=True)
        pre, pim = p.split_real_imag()
        assert pre + pim * I == p


def test_eval_examples():
    p = X * X - L * X
    assert p.evaluate({"x": 2, "l": Fraction(1, 2)}) == GaussRat(3)
    assert MPoly.zero().evaluate({}) == GaussRat(0)


def test_eval_unbound_variable_is_error():
    with pytest.raises(ValueError, match="unbound"):
        (Y * Y).evaluate({"x": 1})


def _random_poly(rng, complex_coeffs=False, max_terms=4):
    re_terms, im_terms = {}, {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        re_terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        im_terms[exps] = Fraction(rng.randint(-5, 5)) if complex_coeffs else 0
    return MPoly(re_terms) + MPoly(im_terms) * I


def test_ring_axioms_on_random_polys():
    rng = random.Random(1)
    for _ in range(25):
        p, q, s = (_random_poly(rng, complex_coeffs=True) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s


def test_substitute_commutes_with_mul():
    rng = random.Random(9)
    repl = MPoly.one() - X + L * Y
    for _ in range(15):
        p, q = _random_poly(rng), _random_poly(rng)
        assert (p * q).substitute("x", repl) == p.substitute("x", repl) * q.substitute("x", repl)


def test_total_degree():
    assert MPoly.zero().total_degree() is None
    assert (X * X * Y + L).total_degree() == 3


def test_canonical_text_form():
    p = X * X - (L * X).scale(Fraction(1, 2)) - Y * Y
    assert p.to_text() == "x^2 - 1/2*l*x - y^2"
    assert MPoly.zero().to_text() == "0"
    assert (-X).to_text() == "-x"
    assert (X * I).to_text() == "(0+1*i)*x"
    assert (I.scale(Fraction(-1, 2)) + 3).to_text() == "(3-1/2*i)"


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        MPoly.variable("t")
    with pytest.raises(ValueError):
        X.substitute("t", MPoly.one())


@pytest.mark.parametrize("exps", [(1, 2), (1, 0, 0, 0, 0), (-1, 0, 0, 0), (0, 1.0, 0, 0),
                                  (True, 0, 0, 0), (0, 0, 0, 2 ** 15)])
def test_malformed_exponent_vector_rejected(exps):
    with pytest.raises(ValueError):
        MPoly({exps: 1})


@pytest.mark.parametrize("bad", [0.5, True, GaussRat(0, 1), "1/2"])
def test_inexact_and_bool_coefficients_rejected(bad):
    # Scalars entering the ring are int or Fraction; i enters as MPoly.I.
    with pytest.raises(TypeError):
        MPoly({(0, 0, 0, 0): bad})
    with pytest.raises(TypeError):
        MPoly.constant(bad)
    with pytest.raises(TypeError):
        X.scale(bad)
    with pytest.raises(TypeError):
        X.evaluate({"x": bad})


def test_exponent_overflow_is_an_error():
    # 2**15 is the first exponent past a 15-bit field.
    top = X ** (2 ** 15 - 1)
    assert top.total_degree() == 2 ** 15 - 1
    with pytest.raises(ValueError, match="overflow"):
        X ** (2 ** 15)
    with pytest.raises(ValueError, match="overflow"):
        top * X
    with pytest.raises(ValueError, match="overflow"):
        (L * Y ** (2 ** 14)) * (X * Y ** (2 ** 14))
    # Right below the limit nothing spills into the neighbouring fields.
    assert (Y ** (2 ** 14) * Y ** (2 ** 14 - 1)).terms == {(0, 0, 2 ** 15 - 1, 0): GaussRat(1)}


def test_terms_view_merges_real_and_imaginary_parts():
    p = (X + Y * I).scale(Fraction(1, 2)) + X * L
    assert p.terms == {
        (0, 1, 0, 0): GaussRat(Fraction(1, 2)),
        (0, 0, 1, 0): GaussRat(0, Fraction(1, 2)),
        (1, 1, 0, 0): GaussRat(1),
    }
    assert p.terms is not p.terms
    assert p.coefficient((0, 0, 1, 0)) == I.scale(Fraction(1, 2))
    assert p.coefficient((1, 1, 0, 0)) == MPoly.one()
    assert p.coefficient((0, 0, 0, 1)) == MPoly.zero()


def test_i_is_a_ring_element():
    assert I.terms == {(0, 0, 0, 0): GaussRat(0, 1)}
    assert I.total_degree() == 0
    assert I.split_real_imag() == (MPoly.zero(), MPoly.one())
    assert I ** 4 == MPoly.one() and I ** 3 == -I


def test_only_polynomials_equal_polynomials():
    # Equal objects must hash equal, so a polynomial never equals a scalar.
    assert MPoly.one() != 1 and 1 != MPoly.one()
    assert MPoly.zero() != 0
    assert MPoly.constant(Fraction(1, 2)) != Fraction(1, 2)
    assert len({MPoly.one(), 1}) == 2
    assert MPoly.constant(Fraction(2, 4)) == MPoly.constant(Fraction(1, 2))

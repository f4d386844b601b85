import ast
import inspect
import itertools
import operator
import random
from fractions import Fraction

import pytest

from degenpoly import multipoly
from degenpoly.multipoly import MPoly, VARIABLES, sum_products

L = MPoly.variable("l")
X = MPoly.variable("x")
Y = MPoly.variable("y")
I = MPoly.I


def test_mul_distributes():
    assert X * (X - L) == X * X - L * X


def test_cancellation_gives_empty_map():
    p = Y * Y + (-(Y * Y))
    assert p == MPoly.zero()
    assert p.terms == {}
    # Only the zero polynomial is falsy.
    assert not p and X and MPoly.I


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
    assert qre == q and qim == MPoly.zero()


def test_split_of_norm_product():
    # (x + iy)(x - iy) expands to x^2 + y^2 with no imaginary residue.
    p = (X + Y * I) * (X - Y * I)
    assert p == X * X + Y * Y
    pre, pim = p.split_real_imag()
    assert pre == p and pim == MPoly.zero()


def test_split_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        p = _random_poly(rng, complex_coeffs=True)
        pre, pim = p.split_real_imag()
        assert pre + pim * I == p


def test_eval_examples():
    p = X * X - L * X
    assert p.evaluate({"x": 2, "l": Fraction(1, 2)}) == 3
    assert (X * X).evaluate({"x": Fraction(-2, 3)}) == Fraction(4, 9)
    assert MPoly.zero().evaluate({}) == 0
    assert type(p.evaluate({"x": 2, "l": 1})) is Fraction


def test_evaluate_where_the_or_of_the_exponents_exceeds_the_degree():
    # 12 | 3 = 15: the power tables run past the largest exponent of x.
    p = (X ** 12 + X ** 3).scale(Fraction(-2, 3)) + L ** 5 * Y ** 9 + 7
    values = [0, 1, -1, 3, -2, Fraction(-5, 7), Fraction(4, 9)]
    for l, x, y in itertools.product(values, repeat=3):
        expected = sum(c * Fraction(l) ** el * Fraction(x) ** ex * Fraction(y) ** ey
                       for (el, ex, ey, _, _), c in p.terms.items())
        value = p.evaluate({"l": l, "x": x, "y": y})
        assert value == expected and type(value) is Fraction, (l, x, y)


def test_eval_unbound_variable_is_error():
    with pytest.raises(ValueError, match="unbound"):
        (Y * Y).evaluate({"x": 1})


def test_evaluate_rejects_a_polynomial_with_i():
    # The value is one Fraction, so i must be split off first.
    p = X + Y * I
    with pytest.raises(ValueError, match="split_real_imag"):
        p.evaluate({"x": 1, "y": 2})
    with pytest.raises(ValueError, match="split_real_imag"):
        I.evaluate({})
    # The i error comes before the unbound-variable error.
    with pytest.raises(ValueError, match="split_real_imag"):
        (L * Y + X * I).evaluate({"x": 1})
    re, im = p.split_real_imag()
    assert (re.evaluate({"x": 1}), im.evaluate({"y": 2})) == (1, 2)


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


@pytest.mark.parametrize("bad", [0.5, True, 1j, "1/2"])
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
    assert top.terms == {(0, 2 ** 15 - 1, 0, 0, 0): 1}
    with pytest.raises(ValueError, match="overflow"):
        X ** (2 ** 15)
    with pytest.raises(ValueError, match="overflow"):
        top * X
    with pytest.raises(ValueError, match="overflow"):
        (L * Y ** (2 ** 14)) * (X * Y ** (2 ** 14))
    # Right below the limit nothing spills into the neighbouring fields.
    assert (Y ** (2 ** 14) * Y ** (2 ** 14 - 1)).terms == {(0, 0, 2 ** 15 - 1, 0, 0): 1}


@pytest.mark.parametrize("unit", [MPoly.one(), I], ids=["real", "i"])
def test_substitute_overflows_exactly_past_the_field(unit):
    # x -> x^2 doubles every exponent of x: 2 * (2**14 - 1) fits, 2 * 2**14 does not.
    square = X * X * unit
    for p in (X ** (2 ** 14 - 1) * unit, X ** (2 ** 14 - 1) * L * unit + Y):
        assert max(e[1] for e in p.substitute("x", square).terms) == 2 ** 15 - 2
    for p in (X ** (2 ** 14) * unit, X ** (2 ** 14) * unit + X):
        with pytest.raises(ValueError, match="overflow"):
            p.substitute("x", square)
    # A zero scalar does not hide an overflowing product.
    with pytest.raises(ValueError, match="overflow"):
        sum_products([(1, X, X), (0, X ** (2 ** 14) * unit, X ** (2 ** 14))])


@pytest.mark.parametrize("unit", [MPoly.one(), I], ids=["real", "i"])
def test_substitute_ladder_survives_a_failed_climb(unit):
    # The reverse order of the test above, on a base no other test climbs so
    # high: the overflowing climb raises at its last rung and caches no rung it
    # did not finish, so it raises again, and the in-range substitution that
    # follows reads a sound ladder.
    square = Y * Y * unit
    for _ in range(2):
        with pytest.raises(ValueError, match="overflow"):
            (Y ** (2 ** 14) * unit).substitute("y", square)
    image = (Y ** (2 ** 14 - 1) * unit).substitute("y", square)
    assert max(e[2] for e in image.terms) == 2 ** 15 - 2


def test_terms_view_keeps_i_as_an_exponent():
    # Keys are (el, ex, ey, er, ei): a complex coefficient shows as two entries.
    p = (X + Y * I).scale(Fraction(1, 2)) + X * L + Y
    assert p.terms == {
        (0, 1, 0, 0, 0): Fraction(1, 2),
        (0, 0, 1, 0, 0): 1,
        (0, 0, 1, 0, 1): Fraction(1, 2),
        (1, 1, 0, 0, 0): 1,
    }
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.terms is not p.terms


def test_i_is_a_ring_element():
    assert I.terms == {(0, 0, 0, 0, 1): 1}
    assert (I * I).terms == {(0, 0, 0, 0, 0): -1}
    assert I.split_real_imag() == (MPoly.zero(), MPoly.one())
    assert I ** 4 == MPoly.one() and I ** 3 == -I


def test_only_polynomials_equal_polynomials():
    # Equal objects must hash equal, so a polynomial never equals a scalar.
    assert MPoly.one() != 1 and 1 != MPoly.one()
    assert MPoly.zero() != 0
    assert MPoly.constant(Fraction(1, 2)) != Fraction(1, 2)
    assert len({MPoly.one(), 1}) == 2
    assert MPoly.constant(Fraction(2, 4)) == MPoly.constant(Fraction(1, 2))
    # Same numerators over another denominator: equality reads the denominator too.
    assert X != X.scale(Fraction(1, 2))


@pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2), "2"])
def test_power_needs_an_int_exponent(bad):
    # True is not the exponent 1: a bool, like a float, raises TypeError.
    with pytest.raises(TypeError, match="int exponent"):
        X ** bad


def test_sum_products_is_the_one_accumulation_kernel(monkeypatch):
    # +, - and * each run the pair loop through sum_products.
    calls = []
    original = multipoly.sum_products

    def counted(items):
        calls.append(items)
        return original(items)

    monkeypatch.setattr(multipoly, "sum_products", counted)
    p, q = X + Y * I, X.scale(Fraction(1, 3)) - L
    for name, op in (("+", operator.add), ("-", operator.sub), ("*", operator.mul)):
        calls.clear()
        op(p, q)
        assert calls, f"{name} did not call sum_products"


def test_sum_products_holds_the_only_pair_loop():
    # A for statement inside another is a pair loop: no other function of the
    # module may hold one (substitute and evaluate build powers in single loops).
    tree = ast.parse(inspect.getsource(multipoly))
    nested = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              if any(isinstance(inner, ast.For) and inner is not outer
                     for outer in ast.walk(node) if isinstance(outer, ast.For)
                     for inner in ast.walk(outer))}
    assert nested == {"sum_products"}


def test_i_squared_is_minus_one_across_a_whole_sum():
    # i*x times i*y lands on the key of x*y, which the other triple also
    # reaches, in either order; no key of i^2 survives.
    for items in ([(1, X * I, Y * I), (1, X, Y)], [(1, X, Y), (1, X * I, Y * I)]):
        p = sum_products(items)
        assert (p._num, p._den) == ({}, 1)
    assert (X + Y * I) * (X - Y * I) == X * X + Y * Y
    assert sum_products([(1, X * I, Y * I), (Fraction(1, 2), I, I)]) == -X * Y - Fraction(1, 2)

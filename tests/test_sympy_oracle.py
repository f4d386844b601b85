"""The families against sympy, an oracle that shares no code with the package.

The package side is read through the values it hands out, ``MPoly.terms`` and
``MPoly.evaluate``, so these tests also pin the output edge.  sympy's
conventions: ``bernoulli(n, x)`` and ``euler(n, x)`` are the Appell
polynomials of t/(e^t - 1) and 2/(e^t + 1); the numbers are those
polynomials at x = 0 (``bernoulli(n)`` has B_1 = +1/2 in sympy 1.14, and
``euler(n)`` are the secant numbers, so neither is used).
"""

from fractions import Fraction

import pytest

from degenpoly.families import FamilyKind, classical_family, family, kernel_series

sympy = pytest.importorskip("sympy")

X, Y = sympy.symbols("x y", real=True)
L = sympy.Symbol("l")
T = sympy.Symbol("t")


def rat(value) -> Fraction:
    p, q = sympy.Rational(value).as_numer_denom()
    return Fraction(int(p), int(q))


def package_terms(poly):
    """{(ex, ey): (re, im)} from the terms view of a polynomial in x and y."""
    out = {}
    for (el, ex, ey, er, ei), c in poly.terms.items():
        assert el == er == 0
        out.setdefault((ex, ey), [Fraction(0), Fraction(0)])[ei] = c
    return {k: tuple(v) for k, v in out.items()}


def sympy_terms(re, im=0):
    """{(ex, ey): (re, im)} of two real sympy polynomials in x and y."""
    out = {}
    for part, expr in enumerate((re, im)):
        for (ex, ey), c in sympy.Poly(sympy.expand(expr), X, Y).terms():
            if c:
                out.setdefault((ex, ey), [Fraction(0), Fraction(0)])[part] = rat(c)
    return {k: tuple(v) for k, v in out.items()}


@pytest.mark.parametrize("poly_kind, num_kind, oracle", [
    (FamilyKind.DEG_BERNOULLI, FamilyKind.DEG_BERNOULLI_NUM, sympy.bernoulli),
    (FamilyKind.DEG_EULER, FamilyKind.DEG_EULER_NUM, sympy.euler),
], ids=["bernoulli", "euler"])
def test_classical_polynomials_and_numbers(poly_kind, num_kind, oracle):
    polys, nums = classical_family(poly_kind, 30), classical_family(num_kind, 30)
    for n in range(31):
        expected = oracle(n, X)
        assert package_terms(polys[n]) == sympy_terms(expected), n
        assert nums[n].evaluate({}) == rat(expected.subs(X, 0)), n


@pytest.mark.parametrize("cos_kind, sin_kind, oracle", [
    (FamilyKind.DEG_COSINE, FamilyKind.DEG_SINE, lambda n, z: z ** n),
    (FamilyKind.DEG_COS_EULER, FamilyKind.DEG_SIN_EULER, sympy.euler),
    (FamilyKind.DEG_COS_BERNOULLI, FamilyKind.DEG_SIN_BERNOULLI, sympy.bernoulli),
], ids=["power", "euler", "bernoulli"])
def test_classical_cos_sin_are_real_and_imaginary_parts(cos_kind, sin_kind, oracle):
    cos, sin = classical_family(cos_kind, 20), classical_family(sin_kind, 20)
    for n in range(21):
        re, im = sympy.expand(oracle(n, X + sympy.I * Y)).as_real_imag()
        assert package_terms(cos[n]) == sympy_terms(re), n
        assert package_terms(sin[n]) == sympy_terms(im), n


@pytest.mark.parametrize("kind, kernel", [
    (FamilyKind.DEG_BERNOULLI_NUM, lambda e: T / (e - 1)),
    (FamilyKind.DEG_EULER_NUM, lambda e: 2 / (e + 1)),
], ids=["bernoulli", "euler"])
@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(-1, 3)], ids=str)
def test_degenerate_numbers_at_rational_l(kind, kernel, lam):
    n_max = 12
    l = sympy.Rational(lam.numerator, lam.denominator)
    series = sympy.series(kernel((1 + l * T) ** (1 / l)), T, 0, n_max + 1).removeO()
    nums = family(kind, n_max)
    for n in range(n_max + 1):
        expected = rat(series.coeff(T, n) * sympy.factorial(n))
        assert nums[n].evaluate({"l": lam}) == expected, n


@pytest.mark.parametrize("which, kernel", [
    ("bernoulli", lambda e: T / (e - 1)),
    ("euler", lambda e: 2 / (e + 1)),
], ids=["bernoulli", "euler"])
def test_degenerate_kernels_at_symbolic_l(which, kernel):
    # The coefficients of kernel_series are the inverses EgfSeries.invert
    # builds; sympy expands the kernel at e = (1 + l t)^(1/l) with l a symbol.
    order = 6
    series = sympy.series(kernel((1 + L * T) ** (1 / L)), T, 0, order + 1).removeO()
    coeffs = kernel_series(which, order)
    for n in range(order + 1):
        expected = sympy.Poly(sympy.simplify(series.coeff(T, n) * sympy.factorial(n)), L)
        actual = {}
        for (el, ex, ey, er, ei), c in coeffs[n].terms.items():
            assert ex == ey == er == ei == 0
            actual[el] = c
        assert actual == {el: rat(c) for (el,), c in expected.terms() if c}, n



@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(-1, 3)], ids=str)
def test_degenerate_cos_sin_are_real_and_imaginary_parts_at_rational_l(lam):
    # Carlitz's closed form e_l^z(t) = (1 + l t)^(z/l) (Utilitas Math. 15, 1979),
    # expanded by sympy at z = x + iy with x and y real; the Euler families
    # carry the kernel 2/(e_l(t) + 1) as well.
    n_max = 6
    l = sympy.Rational(lam.numerator, lam.denominator)

    def truncated(expr):
        return sympy.series(expr, T, 0, n_max + 1).removeO()

    power = truncated((1 + l * T) ** ((X + sympy.I * Y) / l))
    euler = sympy.expand(truncated(2 / ((1 + l * T) ** (1 / l) + 1)) * power)
    for series, cos_kind, sin_kind in (
            (power, FamilyKind.DEG_COSINE, FamilyKind.DEG_SINE),
            (euler, FamilyKind.DEG_COS_EULER, FamilyKind.DEG_SIN_EULER)):
        cos, sin = family(cos_kind, n_max), family(sin_kind, n_max)
        for n in range(n_max + 1):
            re, im = sympy.expand(series.coeff(T, n) * sympy.factorial(n)).as_real_imag()
            assert package_terms(cos[n].substitute("l", lam)) == sympy_terms(re), (cos_kind, n)
            assert package_terms(sin[n].substitute("l", lam)) == sympy_terms(im), (sin_kind, n)

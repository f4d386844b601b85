"""The ten degenerate polynomial families and their generating functions.

A family is the ``EgfSeries`` of its defining generating-function product
(``family``): P_n is its coefficient ``[n]``.  The six cosine/sine families,
the ones the paper gives closed forms for, are also built independently by
those closed-form double sums (``family_closed``).  The identity engine
compares the two routes; they must agree as exact polynomials.
Each factor of ``family`` is read off e_l(t): the kernels invert series of its
coefficients, and the cosine and sine are the real and imaginary parts of
e_l^{iy}(t) (of e^{iyt} in the oracle), so ``family`` runs no ``combinat`` code.

The classical (l = 0) counterparts are built from scratch by the same
kernel-inversion machinery with plain exponentials, and serve as the
independent oracle for all limit checks.  ``family`` and
``classical_family`` share only ``_product``, the assembly of the factors
``_STRUCTURE`` names; each passes its own constructors.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Tuple

from .combinat import StirlingKind, gen_falling_factorial, stirling_table
from .egfseries import EgfSeries
from .multipoly import MPoly, PolyInput, as_size, sum_products


class FamilyKind(enum.Enum):
    """The ten families, keyed by their CLI names."""

    DEG_BERNOULLI_NUM = "deg-bernoulli-num"
    DEG_EULER_NUM = "deg-euler-num"
    DEG_BERNOULLI = "deg-bernoulli"
    DEG_EULER = "deg-euler"
    DEG_COSINE = "deg-cosine"
    DEG_SINE = "deg-sine"
    DEG_COS_EULER = "deg-cos-euler"
    DEG_SIN_EULER = "deg-sin-euler"
    DEG_COS_BERNOULLI = "deg-cos-bernoulli"
    DEG_SIN_BERNOULLI = "deg-sin-bernoulli"


# (kernel, uses exp_l^x factor, trig factor) for each defining product.
_STRUCTURE = {
    FamilyKind.DEG_BERNOULLI_NUM: ("bernoulli", False, None),
    FamilyKind.DEG_EULER_NUM: ("euler", False, None),
    FamilyKind.DEG_BERNOULLI: ("bernoulli", True, None),
    FamilyKind.DEG_EULER: ("euler", True, None),
    FamilyKind.DEG_COSINE: (None, True, "cos"),
    FamilyKind.DEG_SINE: (None, True, "sin"),
    FamilyKind.DEG_COS_EULER: ("euler", True, "cos"),
    FamilyKind.DEG_SIN_EULER: ("euler", True, "sin"),
    FamilyKind.DEG_COS_BERNOULLI: ("bernoulli", True, "cos"),
    FamilyKind.DEG_SIN_BERNOULLI: ("bernoulli", True, "sin"),
}

# The family whose defining product is kernel x e_l^x(t) x trig, by (kernel, trig).
_KIND = {(kernel, trig): kind for kind, (kernel, uses_x, trig) in _STRUCTURE.items() if uses_x}


def deg_exp_series(exponent: PolyInput, order: int) -> EgfSeries:
    """Series of the degenerate exponential with the given exponent.

    Coefficient n is the generalized falling factorial (exponent)_{n,l}.
    """
    as_size(order, "order")
    exponent = MPoly.coerce(exponent)
    coeffs = [MPoly.one()]
    lam = MPoly.variable("l")
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * (exponent - lam.scale(n - 1)))
    return EgfSeries(coeffs)


# i*y, built once, so that deg_cos_sin_series checks its order before any product.
_IY = MPoly.variable("y") * MPoly.I


@lru_cache(maxsize=None, typed=True)
def deg_cos_sin_series(order: int) -> Tuple[EgfSeries, EgfSeries]:
    """Degenerate cosine and sine series: the real and imaginary parts of e_l^{iy}(t)."""
    return deg_exp_series(_IY, order).split_real_imag()


@lru_cache(maxsize=None, typed=True)
def kernel_series(which: str, order: int) -> EgfSeries:
    """The Bernoulli or Euler kernel, t/(e_l(t)-1) or 2/(e_l(t)+1), as a
    series; coefficient n is the degenerate Bernoulli/Euler number.

    Both invert a series read off e = e_l(t) to the same order, whose
    coefficient n is (1)_{n,l}.
    bernoulli: h_n = e[n] (1 - n l) / (n+1), the series (e_l(t)-1)/t, so that
    h_0 = 1; it is (1)_{n+1,l} / (n+1), since (1)_{n+1,l} = (1)_{n,l} (1 - n l).
    euler: g_0 = 1 and g_n = e[n] / 2 for n >= 1, the series (e_l(t)+1)/2.
    """
    e = deg_exp_series(1, order).polys
    if which == "bernoulli":
        lam = MPoly.variable("l")
        h = EgfSeries.from_function(
            order, lambda n: (e[n] * (1 - lam.scale(n))).scale(Fraction(1, n + 1)))
    elif which == "euler":
        h = EgfSeries.from_function(
            order, lambda n: MPoly.one() if n == 0 else e[n].scale(Fraction(1, 2)))
    else:
        raise ValueError(f"unknown kernel {which!r}; expected 'bernoulli' or 'euler'")
    return h.invert()


def _product(kind: FamilyKind, order: int, kernel, exp, cos_sin, route) -> EgfSeries:
    """The series product that ``_STRUCTURE`` names for ``kind``, built
    from the given constructors: kernel, then exp(x), then cos/sin.  For a
    kind with a kernel and a trig factor, kernel times exp(x) is the plain
    kernel family, which ``route`` (the caller's own cached builder) returns."""
    if kind not in _STRUCTURE:
        raise ValueError(f"unknown family kind {kind!r}; expected a FamilyKind")
    kernel_name, uses_x, trig = _STRUCTURE[kind]
    factors = []
    if kernel_name is not None and trig is not None:
        factors.append(route(_KIND[kernel_name, None], order))
    else:
        if kernel_name is not None:
            factors.append(kernel(kernel_name, order))
        if uses_x:
            factors.append(exp(MPoly.variable("x"), order))
    if trig is not None:
        factors.append(cos_sin(order)[trig == "sin"])
    return reduce(operator.mul, factors)


@lru_cache(maxsize=None, typed=True)
def family(kind: FamilyKind, order: int) -> EgfSeries:
    """Generating-function route: the defining product, whose coefficient n is P_n."""
    return _product(kind, order, kernel_series, deg_exp_series, deg_cos_sin_series, family)


@lru_cache(maxsize=None, typed=True)
def trig_stirling_rows(trig: str, order: int) -> Tuple[MPoly, ...]:
    """Rows T_m = sum_j (-1)^(j//2) S1(m, j) l^(m-j) y^j for m = 0..order, over
    j even (cos) or odd (sin), read from the first-kind Stirling table.

    The closed forms sum (-1)^(j//2) binom(n, m) l^(m-j) y^j S1(m, j) inner[n-m]
    over those j and m = j..n.  The sum over j depends on neither n nor
    ``inner``, so it is grouped by m into these rows: the double sum is
    sum_m binom(n, m) T_m inner[n-m], coefficient n of the rows times ``inner``."""
    if trig not in ("cos", "sin"):
        raise ValueError(f"unknown trig {trig!r}; expected 'cos' or 'sin'")
    s1 = stirling_table(StirlingKind.FIRST, order)
    return tuple(
        sum_products(((-1) ** (j // 2), s1.entry(m, j), MPoly({(m - j, 0, j, 0): 1}))
                     for j in range(0 if trig == "cos" else 1, m + 1, 2))
        for m in range(order + 1)
    )


@lru_cache(maxsize=None, typed=True)
def family_closed(kind: FamilyKind, order: int) -> EgfSeries:
    """Closed-form route for the six cos/sin families: the theorem double
    sums, the rows of ``trig_stirling_rows`` times (x)_{n,l} or the plain
    kernel family."""
    if kind not in _STRUCTURE:
        raise ValueError(f"unknown family kind {kind!r}; expected a FamilyKind")
    kernel, _, trig = _STRUCTURE[kind]
    if trig is None:
        raise ValueError(f"{kind.value} has no closed-form route")
    as_size(order, "order")  # before the factorials below, built one degree at a time
    if kernel is None:
        inner = EgfSeries([gen_falling_factorial(MPoly.variable("x"), n)
                           for n in range(order + 1)])
    else:
        inner = family(_KIND[kernel, None], order)
    return EgfSeries(trig_stirling_rows(trig, order)) * inner


@lru_cache(maxsize=None, typed=True)
def complex_series(kernel: str, order: int) -> EgfSeries:
    """The Bernoulli or Euler kernel times the degenerate exponential at x + iy."""
    # The kernel comes first, so its size check runs before the sum x + iy.
    return kernel_series(kernel, order) * deg_exp_series(MPoly.variable("x") + _IY, order)


def complex_euler(n: int, order: int) -> MPoly:
    """The degenerate Euler polynomial at complex argument x + iy."""
    return complex_series("euler", order)[n]


# -- classical (l = 0) oracle -----------------------------------------------


@lru_cache(maxsize=None, typed=True)
def classical_kernel_series(which: str, order: int) -> EgfSeries:
    """Plain Bernoulli/Euler kernel built by the same inversion scheme.

    Independent of the degenerate machinery: coefficients are the constants
    1/(n+1) (Bernoulli) and 1/2 (Euler), no l anywhere.
    """
    if which == "bernoulli":
        h = EgfSeries.from_function(
            order, lambda n: MPoly.constant(Fraction(1, n + 1))
        )
        return h.invert()
    if which == "euler":
        g = EgfSeries.from_function(
            order,
            lambda n: MPoly.one() if n == 0 else MPoly.constant(Fraction(1, 2)),
        )
        return g.invert()
    raise ValueError(f"unknown kernel {which!r}")


def classical_exp_series(exponent: PolyInput, order: int) -> EgfSeries:
    """e^{ut} in the exponential basis: coefficient n is u^n."""
    exponent = MPoly.coerce(exponent)
    return EgfSeries.from_function(order, lambda n: exponent ** n)


def classical_cos_sin_series(order: int) -> Tuple[EgfSeries, EgfSeries]:
    """cos(yt) and sin(yt): the real and imaginary parts of e^{iyt}."""
    return classical_exp_series(MPoly.variable("y") * MPoly.I, order).split_real_imag()


@lru_cache(maxsize=None, typed=True)
def classical_family(kind: FamilyKind, order: int) -> EgfSeries:
    """The l = 0 counterpart of a family, built with plain exponentials."""
    return _product(kind, order, classical_kernel_series, classical_exp_series,
                    classical_cos_sin_series, classical_family)

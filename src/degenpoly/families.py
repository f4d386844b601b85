"""The ten degenerate polynomial families and their generating functions.

Each family can be built two independent ways: by extracting coefficients
of its defining generating-function product (``family``) and by the
closed-form double sums (``family_closed``).  The identity engine compares
the two routes; they must agree as exact polynomials.

The classical (l = 0) counterparts are built from scratch by the same
kernel-inversion machinery with plain exponentials, and serve as the
independent oracle for all limit checks.  ``family`` and
``classical_family`` share only ``_product``, the assembly of the factors
``_STRUCTURE`` names; each passes its own constructors.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Sequence, Tuple

from .combinat import StirlingKind, gen_falling_factorial, stirling_table
from .egfseries import EgfSeries
from .multipoly import MPoly, PolyInput


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


class FamilySequence:
    """Polynomials polys[0..order] of one family."""

    __slots__ = ("polys",)

    def __init__(self, polys: Tuple[MPoly, ...]):
        self.polys = polys

    def __getitem__(self, n: int) -> MPoly:
        return self.polys[n]


def deg_exp_series(exponent: PolyInput, order: int) -> EgfSeries:
    """Series of the degenerate exponential with the given exponent.

    Coefficient n is the generalized falling factorial (exponent)_{n,l}.
    """
    exponent = MPoly.coerce(exponent)
    coeffs = [MPoly.one()]
    lam = MPoly.variable("l")
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * (exponent - lam.scale(n - 1)))
    return EgfSeries(order, coeffs)


@lru_cache(maxsize=None)
def deg_cos_sin_series(order: int) -> Tuple[EgfSeries, EgfSeries]:
    """Degenerate cosine and sine series, via (E(iy) +/- E(-iy)) / 2, /2i."""
    iy = MPoly.variable("y") * MPoly.I
    plus = deg_exp_series(iy, order)
    minus = deg_exp_series(-iy, order)
    cos = (plus + minus).scale(Fraction(1, 2))
    # 1/(2i) = -i/2, so the sine is i/2 times (E(-iy) - E(iy)).
    sin = EgfSeries(order, [c * MPoly.I for c in (minus - plus).coeffs]).scale(Fraction(1, 2))
    return cos, sin


@lru_cache(maxsize=None)
def kernel_series(which: str, order: int) -> EgfSeries:
    """The Bernoulli or Euler kernel as a series; coefficient n is the
    degenerate Bernoulli/Euler number.

    bernoulli: invert h with h_n = (1)_{n+1,l} / (n+1), which is the
    e_l(t)-1 series shifted down by one power of t so that h_0 = 1.
    euler: invert g with g_0 = 1 and g_n = (1)_{n,l} / 2 for n >= 1.
    """
    if which == "bernoulli":
        h = EgfSeries.from_function(
            order,
            lambda n: gen_falling_factorial(1, n + 1).scale(Fraction(1, n + 1)),
        )
        return h.invert()
    if which == "euler":
        g = EgfSeries.from_function(
            order,
            lambda n: MPoly.one()
            if n == 0
            else gen_falling_factorial(1, n).scale(Fraction(1, 2)),
        )
        return g.invert()
    raise ValueError(f"unknown kernel {which!r}; expected 'bernoulli' or 'euler'")


def _product(kind: FamilyKind, order: int, kernel, exp, cos_sin) -> FamilySequence:
    """Coefficients of the product that ``_STRUCTURE`` names for ``kind``, built
    from the given constructors: kernel, then exp(x), then cos/sin."""
    kernel_name, uses_x, trig = _STRUCTURE[kind]
    factors = []
    if kernel_name is not None:
        factors.append(kernel(kernel_name, order))
    if uses_x:
        factors.append(exp(MPoly.variable("x"), order))
    if trig is not None:
        factors.append(cos_sin(order)[trig == "sin"])
    return FamilySequence(tuple(reduce(operator.mul, factors).coeffs))


@lru_cache(maxsize=None)
def family(kind: FamilyKind, order: int) -> FamilySequence:
    """Generating-function route: coefficients of the defining product."""
    return _product(kind, order, kernel_series, deg_exp_series, deg_cos_sin_series)


@lru_cache(maxsize=None)
def trig_stirling_rows(trig: str, order: int) -> Tuple[MPoly, ...]:
    """Rows T_m = sum_j (-1)^(j//2) S1(m, j) l^(m-j) y^j for m = 0..order, over
    j even (cos) or odd (sin), read from the first-kind Stirling table."""
    s1 = stirling_table(StirlingKind.FIRST, order)
    return tuple(
        sum((s1.entry(m, j) * MPoly({(m - j, 0, j, 0): (-1) ** (j // 2)})
             for j in range(0 if trig == "cos" else 1, m + 1, 2)), MPoly.zero())
        for m in range(order + 1)
    )


def trig_stirling_sum(trig: str, n: int, inner: Sequence[MPoly], order: int) -> MPoly:
    """sum over j even (cos) or odd (sin) and m = j..n of
    (-1)^(j//2) binom(n, m) l^(m-j) y^j S1(m, j) inner[n-m].

    The sum over j does not depend on n or on ``inner``, so it is grouped by m
    into the rows T_m of ``trig_stirling_rows`` and the sum taken as
    sum_m binom(n, m) T_m inner[n-m]."""
    rows = trig_stirling_rows(trig, order)
    return sum(
        ((rows[m] * inner[n - m]).scale(math.comb(n, m)) for m in range(n + 1)), MPoly.zero()
    )


@lru_cache(maxsize=None)
def family_closed(kind: FamilyKind, order: int) -> FamilySequence:
    """Closed-form route: the theorem double sums, term by term."""
    kernel, _, trig = _STRUCTURE[kind]
    if kind in (FamilyKind.DEG_BERNOULLI_NUM, FamilyKind.DEG_EULER_NUM):
        raise ValueError(f"{kind.value} has no closed-form route")
    xv = MPoly.variable("x")
    if trig is None:
        # Binomial expansion over the corresponding numbers.
        nums = family(
            FamilyKind.DEG_BERNOULLI_NUM if kernel == "bernoulli" else FamilyKind.DEG_EULER_NUM,
            order,
        )
        polys = []
        for n in range(order + 1):
            acc = MPoly.zero()
            for l in range(n + 1):
                acc = acc + (
                    nums[l] * gen_falling_factorial(xv, n - l)
                ).scale(math.comb(n, l))
            polys.append(acc)
        return FamilySequence(tuple(polys))
    if kernel is None:
        inner = [gen_falling_factorial(xv, n) for n in range(order + 1)]
    else:
        inner = family(
            FamilyKind.DEG_BERNOULLI if kernel == "bernoulli" else FamilyKind.DEG_EULER, order
        ).polys
    polys = [trig_stirling_sum(trig, n, inner, order) for n in range(order + 1)]
    return FamilySequence(tuple(polys))


@lru_cache(maxsize=None)
def complex_series(kernel: str, order: int) -> EgfSeries:
    """The Bernoulli or Euler kernel times the degenerate exponential at x + iy."""
    arg = MPoly.variable("x") + MPoly.variable("y") * MPoly.I
    return kernel_series(kernel, order) * deg_exp_series(arg, order)


def complex_euler(n: int, order: int) -> MPoly:
    """The degenerate Euler polynomial at complex argument x + iy."""
    return complex_series("euler", order).coefficient(n)


# -- classical (l = 0) oracle -----------------------------------------------


@lru_cache(maxsize=None)
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
    """cos(yt) and sin(yt): coefficients (-1)^k y^{2k} resp. (-1)^k y^{2k+1}."""
    yv = MPoly.variable("y")
    cos = EgfSeries.from_function(
        order,
        lambda n: (yv ** n).scale((-1) ** (n // 2)) if n % 2 == 0 else MPoly.zero(),
    )
    sin = EgfSeries.from_function(
        order,
        lambda n: (yv ** n).scale((-1) ** (n // 2)) if n % 2 == 1 else MPoly.zero(),
    )
    return cos, sin


@lru_cache(maxsize=None)
def classical_family(kind: FamilyKind, order: int) -> FamilySequence:
    """The l = 0 counterpart of a family, built with plain exponentials."""
    return _product(
        kind, order, classical_kernel_series, classical_exp_series, classical_cos_sin_series
    )

"""Exact scalars: rationals (stdlib ``Fraction``) and Gaussian rationals.

``GaussRat`` is a scalar of Q(i): the value of an evaluation, a coefficient
read out of a polynomial or a factor passed to ``MPoly.scale``.  Polynomials
do not store it; they keep integer numerators (see ``multipoly``).  Floats
and bools are rejected with ``TypeError`` wherever a scalar enters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rat = Fraction

RatInput = Union[int, Fraction, str]


def as_rat(value: RatInput) -> Fraction:
    """Coerce an int, Fraction or "num/den" string to a canonical rational."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
        raise TypeError(f"expected an int, Fraction or str, got {type(value).__name__}")
    return Fraction(value)


def format_rat(q: Fraction) -> str:
    """Serialize as "num/den", omitting the denominator when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _gauss(re: Fraction, im: Fraction) -> "GaussRat":
    """A GaussRat from two Fractions, without the checks of ``GaussRat(...)``."""
    z = object.__new__(GaussRat)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


def _coerce(value: object):
    if isinstance(value, (GaussRat, int, Fraction)) and not isinstance(value, bool):
        return as_gauss(value)
    return NotImplemented


def _binary(op):
    """A GaussRat operator method that coerces int and Fraction operands."""
    def method(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)
    return method


def _div(a: "GaussRat", b: "GaussRat") -> "GaussRat":
    if not b:
        raise ZeroDivisionError("division by zero Gaussian rational")
    norm = b.re * b.re + b.im * b.im
    return a * _gauss(b.re / norm, -b.im / norm)


class GaussRat:
    """An immutable Gaussian rational re + im*i with exact components."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatInput, im: RatInput = 0):
        object.__setattr__(self, "re", as_rat(re))
        object.__setattr__(self, "im", as_rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    __delattr__ = __setattr__

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other: object) -> bool:
        if type(other) is not GaussRat:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    __add__ = __radd__ = _binary(lambda a, b: _gauss(a.re + b.re, a.im + b.im))
    __sub__ = _binary(lambda a, b: _gauss(a.re - b.re, a.im - b.im))
    __rsub__ = _binary(lambda a, b: _gauss(b.re - a.re, b.im - a.im))
    __mul__ = __rmul__ = _binary(
        lambda a, b: _gauss(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
    )
    __truediv__ = _binary(_div)
    __rtruediv__ = _binary(lambda a, b: _div(b, a))

    def __neg__(self) -> "GaussRat":
        return _gauss(-self.re, -self.im)

    def conjugate(self) -> "GaussRat":
        return _gauss(self.re, -self.im)

    def __str__(self) -> str:
        return format_gauss(self)

    def __repr__(self) -> str:
        return f"GaussRat({self.re!r}, {self.im!r})"


GaussInput = Union[int, Fraction, GaussRat]


def as_gauss(value: GaussInput) -> GaussRat:
    """Coerce an int, Fraction or GaussRat to GaussRat."""
    return value if isinstance(value, GaussRat) else _gauss(as_rat(value), _ZERO_RAT)


def format_gauss(z: GaussRat) -> str:
    """Serialize as "re+im*i" with "num/den" component syntax."""
    if z.im == 0:
        return format_rat(z.re)
    sign = "+" if z.im > 0 else "-"
    return f"{format_rat(z.re)}{sign}{format_rat(abs(z.im))}*i"


_ZERO_RAT = Fraction(0)

"""Truncated formal power series in the exponential basis.

A series of order N stores polynomials a_0..a_N representing
sum a_n t^n / n!.  Multiplication is therefore the binomial convolution
c_n = sum_k binom(n,k) a_k b_{n-k}, and arithmetic is a congruence mod
t^{N+1}: coefficients beyond the order are never consulted.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .multipoly import MPoly, PolyInput, Scalar


class EgfSeries:
    """Immutable truncated series with MPoly coefficients in the t^n/n! basis."""

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Sequence[PolyInput]):
        if order < 0:
            raise ValueError("series order must be non-negative")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"expected {order + 1} coefficients for order {order}, got {len(coeffs)}"
            )
        self._order = order
        self._coeffs = tuple(MPoly.coerce(c) for c in coeffs)

    @classmethod
    def from_function(cls, order: int, fn: Callable[[int], PolyInput]) -> "EgfSeries":
        return cls(order, [fn(n) for n in range(order + 1)])

    @classmethod
    def unit(cls, order: int) -> "EgfSeries":
        """The multiplicative identity (1, 0, 0, ...)."""
        return cls.from_function(order, lambda n: MPoly.one() if n == 0 else MPoly.zero())

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> Sequence[MPoly]:
        return self._coeffs

    def coefficient(self, n: int) -> MPoly:
        """a_n, i.e. n! times the t^n coefficient."""
        if not 0 <= n <= self._order:
            raise IndexError(f"coefficient index {n} out of range 0..{self._order}")
        return self._coeffs[n]

    def _check_order(self, other: "EgfSeries") -> None:
        if self._order != other._order:
            raise ValueError(f"series order mismatch: {self._order} vs {other._order}")

    def __add__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries(self._order, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries(self._order, [a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __mul__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        out = []
        for n in range(self._order + 1):
            acc = MPoly.zero()
            for k in range(n + 1):
                a = self._coeffs[k]
                b = other._coeffs[n - k]
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + (a * b).scale(math.comb(n, k))
            out.append(acc)
        return EgfSeries(self._order, out)

    def scale(self, value: Scalar) -> "EgfSeries":
        return EgfSeries(self._order, [c.scale(value) for c in self._coeffs])

    def invert(self) -> "EgfSeries":
        """Multiplicative inverse; requires the constant coefficient to be 1.

        Triangular recurrence: g_0 = 1, g_n = -sum_{k=1}^n binom(n,k) a_k g_{n-k}.
        """
        if self._coeffs[0] != MPoly.one():
            raise ValueError("series inversion requires constant coefficient 1")
        inv = [MPoly.one()]
        for n in range(1, self._order + 1):
            acc = MPoly.zero()
            for k in range(1, n + 1):
                a = self._coeffs[k]
                if a.is_zero():
                    continue
                acc = acc + (a * inv[n - k]).scale(math.comb(n, k))
            inv.append(-acc)
        return EgfSeries(self._order, inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:4])
        tail = ", ..." if self._order >= 4 else ""
        return f"EgfSeries(order={self._order}, [{shown}{tail}])"

"""Truncated formal power series in the exponential basis.

A series of order N stores polynomials a_0..a_N representing
sum a_n t^n / n!.  Multiplication is therefore the binomial convolution
c_n = sum_k binom(n,k) a_k b_{n-k}, and arithmetic is a congruence mod
t^{N+1}: coefficients beyond the order are never consulted.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .multipoly import MPoly, PolyInput, sum_products


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
    def coeffs(self) -> Sequence[MPoly]:
        return self._coeffs

    def coefficient(self, n: int) -> MPoly:
        """a_n, i.e. n! times the t^n coefficient."""
        if not 0 <= n <= self._order:
            raise IndexError(f"coefficient index {n} out of range 0..{self._order}")
        return self._coeffs[n]

    def __mul__(self, other: "EgfSeries") -> "EgfSeries":
        if self._order != other._order:
            raise ValueError(f"series order mismatch: {self._order} vs {other._order}")
        a, b = self._coeffs, other._coeffs
        return EgfSeries(self._order, [
            sum_products((math.comb(n, k), a[k], b[n - k]) for k in range(n + 1))
            for n in range(self._order + 1)
        ])

    def invert(self) -> "EgfSeries":
        """Multiplicative inverse; requires the constant coefficient to be 1.

        Triangular recurrence: g_0 = 1, g_n = -sum_{k=1}^n binom(n,k) a_k g_{n-k}.
        """
        if self._coeffs[0] != MPoly.one():
            raise ValueError("series inversion requires constant coefficient 1")
        a, inv = self._coeffs, [MPoly.one()]
        for n in range(1, self._order + 1):
            inv.append(sum_products((-math.comb(n, k), a[k], inv[n - k]) for k in range(1, n + 1)))
        return EgfSeries(self._order, inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:4])
        tail = ", ..." if self._order >= 4 else ""
        return f"EgfSeries(order={self._order}, [{shown}{tail}])"

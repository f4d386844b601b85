"""Truncated formal power series in the exponential basis.

A series of order N stores polynomials a_0..a_N representing sum a_n t^n / n!;
each family in ``families`` is the series of its generating function.
Multiplication is therefore the binomial convolution c_n = sum_k binom(n,k)
a_k b_{n-k}, and arithmetic is a congruence mod t^{N+1}: coefficients beyond
the order are never consulted.  ``binom_sum`` is that convolution, written
once for the series, the closed forms and the checks.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

from .multipoly import MPoly, PolyInput, as_index, as_size, sum_products


def binom_sum(n: int, term: Callable[[int], Tuple[MPoly, MPoly]]) -> MPoly:
    """sum_{k=0}^n binom(n, k) a_k b_k, where term(k) is the pair (a_k, b_k)."""
    return sum_products((math.comb(n, k), *term(k)) for k in range(n + 1))


class EgfSeries:
    """Immutable truncated series: the tuple ``polys`` of MPoly a_0..a_N in the t^n/n! basis."""

    __slots__ = ("polys",)

    def __init__(self, polys: Sequence[PolyInput]):
        # The order is len(polys) - 1; order 0 still holds the constant term.
        self.polys = tuple(MPoly.coerce(c) for c in polys)
        if not self.polys:
            raise ValueError("a series needs at least its constant coefficient")

    @classmethod
    def from_function(cls, order: int, fn: Callable[[int], PolyInput]) -> "EgfSeries":
        return cls([fn(n) for n in range(as_size(order, "order") + 1)])

    def __getitem__(self, n: int) -> MPoly:
        """a_n, i.e. n! times the t^n coefficient; a negative n raises, never wraps."""
        return self.polys[as_index(n, len(self.polys) - 1, "coefficient index")]

    def __mul__(self, other: "EgfSeries") -> "EgfSeries":
        if not isinstance(other, EgfSeries):
            return NotImplemented
        a, b = self.polys, other.polys
        if len(a) != len(b):
            raise ValueError(f"series order mismatch: {len(a) - 1} vs {len(b) - 1}")
        return EgfSeries([binom_sum(n, lambda k: (a[k], b[n - k])) for n in range(len(a))])

    def invert(self) -> "EgfSeries":
        """Multiplicative inverse; requires the constant coefficient to be 1.

        Triangular recurrence: g_0 = 1, g_n = -sum_{k=1}^n binom(n,k) a_k g_{n-k}.
        """
        if self.polys[0] != MPoly.one():
            raise ValueError("series inversion requires constant coefficient 1")
        a, inv = self.polys, [MPoly.one()]
        for n in range(1, len(a)):
            inv.append(sum_products((-math.comb(n, k), a[k], inv[n - k]) for k in range(1, n + 1)))
        return EgfSeries(inv)

    def split_real_imag(self) -> Tuple["EgfSeries", "EgfSeries"]:
        """Return (re, im) with self = re + i*im, both real-coefficient."""
        re, im = zip(*(c.split_real_imag() for c in self.polys))
        return EgfSeries(re), EgfSeries(im)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self.polys == other.polys

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.polys[:4])
        tail = ", ..." if len(self.polys) > 4 else ""
        return f"EgfSeries(order={len(self.polys) - 1}, [{shown}{tail}])"

"""Factorial-type products and Stirling number tables.

Both Stirling kinds are computed from their defining relations rather than
hard-coded recurrences: the first kind by expanding the falling factorial
as a polynomial, the degenerate second kind by extracting coefficients of
powers of the degenerate-exponential-minus-one series.  The classical
second kind is the l = 0 specialization of the degenerate table.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .egfseries import EgfSeries
from .multipoly import MPoly, PolyInput


# Each factorial extends the cached one of degree n - 1 by one factor.  A cold
# call first builds every _STRIDE-th lower degree from the bottom, so the
# recursion through n - 1, n - 2, ... meets a cached degree within _STRIDE calls.
_STRIDE = 64


@lru_cache(maxsize=None, typed=True)
def falling_factorial(u: PolyInput, n: int) -> MPoly:
    """u (u-1) ... (u-n+1); the empty product 1 for n = 0.  Cached, like
    ``gen_falling_factorial``: the checks' sums ask for the same few
    factorials many times."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    v = MPoly.coerce(u)
    if n == 0:
        return MPoly.one()
    for m in range(n % _STRIDE, n, _STRIDE):
        falling_factorial(u, m)
    return falling_factorial(u, n - 1) * (v - (n - 1))


@lru_cache(maxsize=None, typed=True)
def gen_falling_factorial(u: PolyInput, n: int, step: int = -1) -> MPoly:
    """Product of (u + step*j*l) for j = 0..n-1.

    step=-1 gives the descending variant u(u-l)(u-2l)...; step=+1 the
    ascending one u(u+l)(u+2l)....
    """
    if n < 0:
        raise ValueError("generalized falling factorial needs n >= 0")
    if step not in (-1, 1):
        raise ValueError("step must be -1 or +1")
    v = MPoly.coerce(u)
    if n == 0:
        return MPoly.one()
    # Ask for the lower degrees as the callers do, naming step only when it is
    # +1, so that both share the cache entries.
    kw = {"step": step} if step == 1 else {}
    for m in range(n % _STRIDE, n, _STRIDE):
        gen_falling_factorial(u, m, **kw)
    factor = v + MPoly.variable("l").scale(step * (n - 1))
    return gen_falling_factorial(u, n - 1, **kw) * factor


class StirlingKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    DEGENERATE_SECOND = "degenerate-second"


class StirlingTable:
    """Triangular read-only table of Stirling entries as MPoly values.

    First/second kind entries are constant polynomials; degenerate second
    kind entries are polynomials in l.
    """

    def __init__(self, rows: Tuple[Tuple[MPoly, ...], ...]):
        self._rows = rows

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def entry(self, n: int, k: int) -> MPoly:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"row {n} out of range 0..{self.n_max}")
        if not 0 <= k <= n:
            raise IndexError(f"column {k} out of range 0..{n} in row {n}")
        return self._rows[n][k]

    @classmethod
    def build(cls, kind: StirlingKind, n_max: int) -> "StirlingTable":
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        if kind is StirlingKind.FIRST:
            rows = cls._build_first(n_max)
        elif kind is StirlingKind.DEGENERATE_SECOND:
            rows = cls._build_degenerate_second(n_max)
        elif kind is StirlingKind.SECOND:
            deg = cls._build_degenerate_second(n_max)
            rows = tuple(
                tuple(entry.substitute("l", 0) for entry in row) for row in deg
            )
        else:  # pragma: no cover
            raise ValueError(f"unknown kind {kind}")
        return cls(rows)

    @staticmethod
    def _build_first(n_max):
        # entry(n, k) = coefficient of x^k in (x)_n, by direct expansion.
        rows = []
        for n in range(n_max + 1):
            expanded = falling_factorial(MPoly.variable("x"), n)
            rows.append(tuple(expanded.coefficient((0, k, 0, 0)) for k in range(n + 1)))
        return tuple(rows)

    @staticmethod
    def _build_degenerate_second(n_max):
        # entry(n, k) = n! [t^n] (e_l(t)-1)^k / k!, extracted from series powers.
        base = EgfSeries.from_function(
            n_max, lambda n: MPoly.zero() if n == 0 else gen_falling_factorial(1, n)
        )
        rows = [[None] * (n + 1) for n in range(n_max + 1)]
        power = EgfSeries.unit(n_max)
        for k in range(n_max + 1):
            if k > 0:
                power = power * base
            inv_kfact = Fraction(1, math.factorial(k))
            for n in range(k, n_max + 1):
                rows[n][k] = power.coefficient(n).scale(inv_kfact)
        return tuple(tuple(row) for row in rows)


@lru_cache(maxsize=None, typed=True)
def stirling_table(kind: StirlingKind, n_max: int) -> StirlingTable:
    return StirlingTable.build(kind, n_max)


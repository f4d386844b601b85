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
from typing import List, Tuple

from .egfseries import EgfSeries
from .multipoly import MPoly, PolyInput


# The three factor steps: u(u-1)(u-2)..., u(u-l)(u-2l)... and u(u+l)(u+2l)....
_MINUS_ONE, _MINUS_L, _PLUS_L = MPoly.constant(-1), -MPoly.variable("l"), MPoly.variable("l")


@lru_cache(maxsize=None, typed=True)
def _ladder(u: PolyInput, step: MPoly) -> List[MPoly]:
    """The products of degree 0 and 1, [1, u]; ``_climb`` appends the higher
    ones.  A float or bool u raises here, so it never gets an entry."""
    return [MPoly.one(), MPoly.coerce(u)]


def _climb(u: PolyInput, n: int, step: MPoly) -> MPoly:
    """Product of (u + j*step) for j = 0..n-1, extending the cached list of
    lower degrees one factor at a time: the checks' sums ask for the same few
    factorials many times, and a cold high degree never recurses."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"a factorial product needs an int n, got {type(n).__name__}")
    if n < 0:
        raise ValueError("a factorial product needs n >= 0")
    rungs = _ladder(u, step)
    for j in range(len(rungs), n + 1):
        rungs.append(rungs[-1] * (rungs[1] + step.scale(j - 1)))
    return rungs[n]


def falling_factorial(u: PolyInput, n: int) -> MPoly:
    """u (u-1) ... (u-n+1); the empty product 1 for n = 0."""
    return _climb(u, n, _MINUS_ONE)


def gen_falling_factorial(u: PolyInput, n: int, step: int = -1) -> MPoly:
    """Product of (u + step*j*l) for j = 0..n-1.

    step=-1 gives the descending variant u(u-l)(u-2l)...; step=+1 the
    ascending one u(u+l)(u+2l)....
    """
    if isinstance(step, bool) or not isinstance(step, int):
        raise TypeError(f"step must be an int, got {type(step).__name__}")
    if step not in (-1, 1):
        raise ValueError("step must be -1 or +1")
    return _climb(u, n, _PLUS_L if step == 1 else _MINUS_L)


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

    def entry(self, n: int, k: int) -> MPoly:
        top = len(self._rows) - 1
        if not 0 <= n <= top:
            raise IndexError(f"row {n} out of range 0..{top}")
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
                rows[n][k] = power[n].scale(inv_kfact)
        return tuple(tuple(row) for row in rows)


@lru_cache(maxsize=None, typed=True)
def stirling_table(kind: StirlingKind, n_max: int) -> StirlingTable:
    return StirlingTable.build(kind, n_max)


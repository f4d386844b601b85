"""Factorial-type products and Stirling number tables.

The three Stirling tables are one construction, the column generating
functions of Carlitz: column k of a table is base(t)^k / k!, with base(t) the
series log(1+t) for the first kind, e^t - 1 for the second and e_l(t) - 1 for
the degenerate second kind.  Only the n! [t^n] coefficients of base differ.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .multipoly import MPoly, PolyInput, as_index, as_size, sum_products


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
    as_size(n, "the degree n of a factorial product")
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


# n! [t^n] of each kind's base series for n >= 1: log(1+t), e^t - 1 and e_l(t) - 1.
_BASE = {
    StirlingKind.FIRST: lambda n: MPoly.constant((-1) ** (n - 1) * math.factorial(n - 1)),
    StirlingKind.SECOND: lambda n: MPoly.one(),
    StirlingKind.DEGENERATE_SECOND: lambda n: gen_falling_factorial(1, n),
}


class StirlingTable:
    """Triangular read-only table of Stirling entries as MPoly values.

    First/second kind entries are constant polynomials; degenerate second
    kind entries are polynomials in l.
    """

    def __init__(self, rows: Tuple[Tuple[MPoly, ...], ...]):
        self._rows = rows

    def entry(self, n: int, k: int) -> MPoly:
        row = self._rows[as_index(n, len(self._rows) - 1, "row")]
        return row[as_index(k, n, f"row {n} column")]

    @classmethod
    def build(cls, kind: StirlingKind, n_max: int) -> "StirlingTable":
        """entry(n, k) = n! [t^n] base(t)^k / k!.  Base has no constant term, so
        column k starts at row k, and each entry is one sum over the column
        before it: c_k = c_{k-1} * base / k, a binomial convolution."""
        if kind not in _BASE:
            raise ValueError(f"unknown kind {kind}")
        as_size(n_max, "n_max")
        base = [None] + [_BASE[kind](n) for n in range(1, n_max + 1)]
        rows = [(MPoly.one(),)]
        for n in range(1, n_max + 1):
            rows.append((MPoly.zero(),) + tuple(
                sum_products((math.comb(n, j), rows[j][k - 1], base[n - j])
                             for j in range(k - 1, n)).scale(Fraction(1, k))
                for k in range(1, n + 1)))
        return cls(tuple(rows))


@lru_cache(maxsize=None, typed=True)
def stirling_table(kind: StirlingKind, n_max: int) -> StirlingTable:
    return StirlingTable.build(kind, n_max)


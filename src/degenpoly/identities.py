"""The theorem-verification engine.

Every identity in the catalog is a named, machine-checkable exact
polynomial equality over Q(i)[l, x, y, r].  A check builds both sides
through independent routes, subtracts, and reports the residual; the
verdict is "holds" exactly when the residual canonicalizes to the zero
polynomial.  There is no tolerance anywhere.

Reflection checks substitute l -> -l on families computed with symbolic l,
so both sides live in the same ring and the (-1)^n sign rules are literal.
Shift checks keep the shift amount r symbolic.

The catalog is the list ``_CATALOG`` at the end of the module; ``IdentityId``,
``CITATIONS`` and the dispatch of ``IdentityEngine.verify`` are derived from
it, and its order is the report order.  To add an identity, write a check
method ``_name(self, tag, n, *args)`` that returns an ``IdentityReport`` (most
end with ``self._simple(tag, n, residuals)``), then add a row
``(tag, citation, check, args)``.  A cos/sin twin is one row with a pair of
tags and a pair of citations; its check receives ``trig`` ("cos", then "sin")
before ``args``.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Tuple

from .combinat import (
    StirlingKind,
    falling_factorial,
    gen_falling_factorial,
    gen_rising_factorial,
    stirling_table,
)
from .families import (
    _STRUCTURE,
    FamilyKind,
    classical_family,
    complex_series,
    deg_exp_series,
    family,
    family_closed,
    kernel_series,
    trig_stirling_sum,
)
from .multipoly import MPoly

# The family whose defining product is kernel x e_l^x(t) x trig, by (kernel, trig).
_KIND = {(kernel, trig): kind for kind, (kernel, uses_x, trig) in _STRUCTURE.items() if uses_x}


class _BuildOnMiss(dict):
    """A dict that builds a missing value with ``build(key)`` and keeps it."""

    def __init__(self, build: Callable):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


def _binom_sum(n: int, term: Callable[[int], MPoly]) -> MPoly:
    """sum_{k=0}^n binom(n, k) term(k)."""
    return sum((term(k).scale(math.comb(n, k)) for k in range(n + 1)), MPoly.zero())


class IdentityReport:
    """Verdict for one identity checked at one degree."""

    def __init__(
        self,
        id: IdentityId,
        n: int,
        verdict: str,  # "holds" | "fails" | "holds_variant"
        lhs_minus_rhs: MPoly = MPoly.zero(),
        variant_note: str = "",
    ):
        self.id = id
        self.n = n
        self.verdict = verdict
        self.lhs_minus_rhs = lhs_minus_rhs
        self.variant_note = variant_note

    def to_json_dict(self) -> dict:
        out = {
            "id": self.id.value,
            "n": self.n,
            "verdict": self.verdict,
            "residual": self.lhs_minus_rhs.to_text(),
            "citation": CITATIONS[self.id],
        }
        if self.variant_note:
            out["variant_note"] = self.variant_note
        return out


class IdentityEngine:
    """Builds families once and runs exact checks for each identity tag."""

    def __init__(self, n_max: int = 12, order: int = 14):
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        if order < n_max + 1:
            raise ValueError(
                f"order {order} too small: need order >= n_max + 1 = {n_max + 1}"
            )
        self.n_max = n_max
        self.order = order

    # -- shared constructions (each built once, a family on first use) --

    @cached_property
    def polys(self) -> Dict[FamilyKind, Sequence[MPoly]]:
        return _BuildOnMiss(lambda kind: family(kind, self.order).polys)

    @cached_property
    def x0(self) -> Dict[FamilyKind, Sequence[MPoly]]:
        # The x = 0 polynomials; for the plain Euler/Bernoulli families
        # these are the numbers, by substitution in the polynomial family.
        return _BuildOnMiss(lambda kind: [p.substitute("x", 0) for p in self.polys[kind]])

    @cached_property
    def stirling2_deg(self):
        return stirling_table(StirlingKind.DEGENERATE_SECOND, self.order)

    @cached_property
    def _u_table(self) -> List[MPoly]:
        # U_k = sum_{l<=k} S2_deg(k, l) (x)_l for k = 0..order, from the Stirling
        # table.  U_k equals (x)_{k,l}, but building it that way would let T7
        # and E63 check the generating-function route against itself.
        xv = MPoly.variable("x")
        return [
            sum((self.stirling2_deg.entry(k, l) * falling_factorial(xv, l)
                 for l in range(k + 1)), MPoly.zero())
            for k in range(self.order + 1)
        ]

    @cached_property
    def complex_euler(self):
        return complex_series("euler", self.order).coeffs

    @cached_property
    def complex_bernoulli(self):
        return complex_series("bernoulli", self.order).coeffs

    @cached_property
    def conj_euler(self):
        # Euler kernel times degenerate exponential at x - iy.
        arg = MPoly.variable("x") - MPoly.variable("y") * MPoly.I
        series = kernel_series("euler", self.order) * deg_exp_series(arg, self.order)
        return series.coeffs

    # -- report helpers -----------------------------------------------

    def _simple(self, tag: IdentityId, n: int, residuals: Sequence[MPoly]) -> IdentityReport:
        for res in residuals:
            if not res.is_zero():
                return IdentityReport(tag, n, "fails", res)
        return IdentityReport(tag, n, "holds")

    # -- the checks ----------------------------------------------------

    def _t1_expand(self, tag, n):
        iy = MPoly.variable("y") * MPoly.I
        xiy = MPoly.variable("x") + iy
        euler, nums = self.polys[FamilyKind.DEG_EULER], self.x0[FamilyKind.DEG_EULER]
        lhs = self.complex_euler[n]
        rhs1 = _binom_sum(n, lambda l: gen_falling_factorial(iy, n - l) * euler[l])
        rhs2 = _binom_sum(n, lambda l: gen_falling_factorial(xiy, n - l) * nums[l])
        return self._simple(tag, n, [lhs - rhs1, lhs - rhs2])

    def _t1_conj(self, tag, n):
        iy = MPoly.variable("y") * MPoly.I
        iy_minus_x = iy - MPoly.variable("x")
        euler, nums = self.polys[FamilyKind.DEG_EULER], self.x0[FamilyKind.DEG_EULER]
        lhs = self.conj_euler[n]
        rhs1 = MPoly.zero()
        rhs2 = MPoly.zero()
        for l in range(n + 1):
            b = math.comb(n, l) * (-1) ** (n - l)
            rhs1 = rhs1 + (gen_rising_factorial(iy, n - l) * euler[l]).scale(b)
            rhs2 = rhs2 + (gen_rising_factorial(iy_minus_x, n - l) * nums[l]).scale(b)
        return self._simple(tag, n, [lhs - rhs1, lhs - rhs2])

    def _route_pair(self, tag, n, trig):
        kind = _KIND[None, trig]
        return self._simple(tag, n, [self.polys[kind][n] - family_closed(kind, self.order)[n]])

    def _convolution(self, tag, n, trig, kernel):
        # Theorem 3 / Section 3 theorem: kernel numbers convolved with the
        # trig polynomials, and the closed form.
        kind = _KIND[kernel, trig]
        lhs = self.polys[kind][n]
        nums, trig_polys = self.x0[_KIND[kernel, None]], self.polys[_KIND[None, trig]]
        conv = _binom_sum(n, lambda k: nums[k] * trig_polys[n - k])
        closed = family_closed(kind, self.order)[n]
        return self._simple(tag, n, [lhs - conv, lhs - closed])

    def _t4(self, tag, n, trig):
        euler_family = self.polys[_KIND["euler", trig]]
        lhs = self.polys[_KIND[None, trig]][n]
        acc = _binom_sum(n, lambda l: gen_falling_factorial(1, n - l) * euler_family[l])
        rhs = (acc + euler_family[n]).scale(Fraction(1, 2))
        return self._simple(tag, n, [lhs - rhs])

    def _shift(self, tag, n, trig, kernel):
        polys = self.polys[_KIND[kernel, trig]]
        rv = MPoly.variable("r")
        lhs = polys[n].substitute("x", MPoly.variable("x") + rv)
        rhs = _binom_sum(n, lambda l: polys[l] * gen_falling_factorial(rv, n - l))
        return self._simple(tag, n, [lhs - rhs])

    def _reflect(self, tag, n, trig, kernel):
        polys = self.polys[_KIND[kernel, trig]]
        sign_exp = n if trig == "cos" else n + 1
        lhs = polys[n].substitute("x", MPoly.one() - MPoly.variable("x"))
        rhs = polys[n].substitute("l", -MPoly.variable("l")).scale((-1) ** sign_exp)
        return self._simple(tag, n, [lhs - rhs])

    def _t9(self, tag, n, trig):
        # Needs index n + 1; the constructor guarantees order >= n_max + 1.
        bern_family = self.polys[_KIND["bernoulli", trig]]
        lhs = self.polys[_KIND[None, trig]][n].scale(n + 1)
        shifted = bern_family[n + 1].substitute("x", MPoly.variable("x") + 1)
        rhs = shifted - bern_family[n + 1]
        return self._simple(tag, n, [lhs - rhs])

    def _c10(self, tag, n, trig):
        bern_family = self.polys[_KIND["bernoulli", trig]]
        lhs = self.polys[_KIND[None, trig]][n].scale(n + 1)
        rhs = MPoly.zero()
        for l in range(n + 1):
            rhs = rhs + (
                bern_family[l] * gen_falling_factorial(1, n + 1 - l)
            ).scale(math.comb(n + 1, l))
        return self._simple(tag, n, [lhs - rhs])

    def _e61_e62(self, tag, n):
        nums = self.x0[FamilyKind.DEG_BERNOULLI]
        return self._simple(tag, n, [
            self.x0[_KIND["bernoulli", trig]][n] - trig_stirling_sum(trig, n, nums, self.order)
            for trig in ("cos", "sin")
        ])

    def _stirling2_sum(self, n, y_polys, binom_of: str) -> MPoly:
        """sum_{k=0}^n sum_{l=0}^k binom(n, k or l) (x)_l S2_deg(k,l) P_{n-k}(y).

        binom(n, k): the inner sum over l is U_k (``_u_table``), so this is
        sum_k binom(n, k) U_k P_{n-k}.  binom(n, l): the sums swap to
        sum_l binom(n, l) (x)_l sum_{k=l..n} S2_deg(k, l) P_{n-k}.  Both read
        S2_deg from the degenerate second-kind Stirling table.
        """
        if binom_of == "k":
            return _binom_sum(n, lambda k: self._u_table[k] * y_polys[n - k])
        xv = MPoly.variable("x")
        s2 = self.stirling2_deg
        return _binom_sum(n, lambda l: falling_factorial(xv, l) * sum(
            (s2.entry(k, l) * y_polys[n - k] for k in range(l, n + 1)), MPoly.zero()))

    def _t7(self, tag, n, trig):
        # Theorem 7's two displays disagree on the binomial index (n over l
        # vs n over k); check both and name the survivor.
        kind = _KIND["euler", trig]
        lhs = self.polys[kind][n]
        residuals = {b: lhs - self._stirling2_sum(n, self.x0[kind], b) for b in ("k", "l")}
        failing = [b for b, res in residuals.items() if not res.is_zero()]
        if not failing:
            return IdentityReport(tag, n, "holds")
        if len(failing) == 2:
            return IdentityReport(tag, n, "fails", residuals["k"], "both binomial variants fail")
        lost = failing[0]
        note = (
            "inner Euler factor read with the deformation subscript as in the "
            f"surrounding displays; surviving variant: binom(n,{'l' if lost == 'k' else 'k'}); "
            f"binom(n,{lost}) residual: {residuals[lost].to_text()}"
        )
        return IdentityReport(tag, n, "holds_variant", MPoly.zero(), note)

    def _e63(self, tag, n, trig):
        kind = _KIND["bernoulli", trig]
        rhs = self._stirling2_sum(n, self.x0[kind], "k")
        return self._simple(tag, n, [self.polys[kind][n] - rhs])

    def _l0(self, tag, n):
        return self._simple(tag, n, [
            self.polys[kind][n].substitute("l", 0) - classical_family(kind, self.order)[n]
            for kind in FamilyKind
        ])

    def _decomposition(self, tag, n):
        e_re, e_im = self.complex_euler[n].split_real_imag()
        b_re, b_im = self.complex_bernoulli[n].split_real_imag()
        return self._simple(tag, n, [
            e_re - self.polys[FamilyKind.DEG_COS_EULER][n],
            e_im - self.polys[FamilyKind.DEG_SIN_EULER][n],
            b_re - self.polys[FamilyKind.DEG_COS_BERNOULLI][n],
            b_im - self.polys[FamilyKind.DEG_SIN_BERNOULLI][n],
        ])

    # -- public API ----------------------------------------------------

    def verify(self, tag: IdentityId) -> List[IdentityReport]:
        if tag not in _DISPATCH:
            raise ValueError(f"unknown identity tag {tag!r}")
        check, args = _DISPATCH[tag]
        return [check(self, tag, n, *args) for n in range(self.n_max + 1)]

    def verify_all(self) -> Tuple[List[IdentityReport], Dict[str, object]]:
        reports: List[IdentityReport] = []
        for tag in IdentityId:
            reports.extend(self.verify(tag))
        return reports, summarize(reports)


def summarize(reports: Sequence[IdentityReport], **context: object) -> Dict[str, object]:
    """Verdict counts; ``context`` (such as n_max and order) is added as is."""
    counts = {"holds": 0, "holds_variant": 0, "fails": 0}
    for rep in reports:
        counts[rep.verdict] += 1
    return {
        "checks": len(reports),
        "holds": counts["holds"],
        "holds_variant": counts["holds_variant"],
        "fails": counts["fails"],
        "ok": counts["fails"] == 0,
        **context,
    }


def verify(tag: IdentityId, n_max: int, order: int) -> List[IdentityReport]:
    return IdentityEngine(n_max, order).verify(tag)


def verify_all(n_max: int, order: int):
    return IdentityEngine(n_max, order).verify_all()


_E = IdentityEngine

# (tag, citation, check, args) in report order; a twin row holds (cos, sin) pairs.
_CATALOG = [
    ("T1_expand", "Theorem 1: complex-argument Euler expansion over factorial products",
     _E._t1_expand, ()),
    ("T1_conj", "Theorem 1: conjugate expansion via ascending factorials", _E._t1_conj, ()),
    (("T2_cos", "T2_sin"),
     ("Theorem 2: cosine-polynomial closed form", "Theorem 2: sine-polynomial closed form"),
     _E._route_pair, ()),
    (("T3_cos", "T3_sin"),
     ("Theorem 3: cosine-Euler via cosine-polynomials and Stirling sums",
      "Theorem 3: sine-Euler via sine-polynomials and Stirling sums"),
     _E._convolution, ("euler",)),
    (("T4_cos", "T4_sin"),
     ("Theorem 4: cosine-polynomial from cosine-Euler polynomials",
      "Theorem 4: sine-polynomial from sine-Euler polynomials"),
     _E._t4, ()),
    (("P5_shift_cos", "P5_shift_sin"),
     ("Proposition 5: argument shift for cosine-Euler polynomials",
      "Proposition 5: argument shift for sine-Euler polynomials"),
     _E._shift, ("euler",)),
    (("T6_reflect_cos", "T6_reflect_sin"),
     ("Theorem 6: reflection symmetry for cosine-Euler polynomials",
      "Theorem 6: reflection symmetry for sine-Euler polynomials"),
     _E._reflect, ("euler",)),
    (("TB_closed_cos", "TB_closed_sin"),
     ("Section 3 theorem: cosine-Bernoulli closed forms",
      "Section 3 theorem: sine-Bernoulli closed forms"),
     _E._convolution, ("bernoulli",)),
    (("T8_reflect_cos", "T8_reflect_sin"),
     ("Theorem 8: reflection symmetry for cosine-Bernoulli polynomials",
      "Theorem 8: reflection symmetry for sine-Bernoulli polynomials"),
     _E._reflect, ("bernoulli",)),
    (("E57_shift_cos", "E58_shift_sin"),
     ("Display (57): argument shift for cosine-Bernoulli polynomials",
      "Display (58): argument shift for sine-Bernoulli polynomials"),
     _E._shift, ("bernoulli",)),
    (("T9_diff_cos", "T9_diff_sin"),
     ("Theorem 9: forward difference of cosine-Bernoulli polynomials",
      "Theorem 9: forward difference of sine-Bernoulli polynomials"),
     _E._t9, ()),
    (("C10_cos", "C10_sin"),
     ("Corollary: cosine-polynomial binomial sum over cosine-Bernoulli",
      "Corollary: sine-polynomial binomial sum over sine-Bernoulli"),
     _E._c10, ()),
    ("E61_E62_x0", "Displays (61)/(62): x = 0 specializations over Bernoulli numbers",
     _E._e61_e62, ()),
    (("T7_stirling_euler_cos", "T7_stirling_euler_sin"),
     ("Theorem 7: cosine-Euler via degenerate second-kind Stirling numbers",
      "Theorem 7: sine-Euler via degenerate second-kind Stirling numbers"),
     _E._t7, ()),
    (("E63_stirling_bern_cos", "E63_stirling_bern_sin"),
     ("Display (63): cosine-Bernoulli via degenerate second-kind Stirling numbers",
      "Display (63): sine-Bernoulli via degenerate second-kind Stirling numbers"),
     _E._e63, ()),
    ("L0_classical_limits", "Classical limits at l = 0 against independently built kernels",
     _E._l0, ()),
    ("D_decomposition", "Displays (26)/(27) and (51)/(52): real/imaginary decomposition",
     _E._decomposition, ()),
]

# One (tag, citation, check, args) per tag, twins split into cos then sin.
_ROWS = []
for _tags, _citations, _check, _args in _CATALOG:
    if isinstance(_tags, str):
        _ROWS.append((_tags, _citations, _check, _args))
    else:
        for _trig, _tag, _citation in zip(("cos", "sin"), _tags, _citations):
            _ROWS.append((_tag, _citation, _check, (_trig, *_args)))

IdentityId = enum.Enum("IdentityId", [(tag.upper(), tag) for tag, *_ in _ROWS])
CITATIONS: Dict[IdentityId, str] = {IdentityId(tag): citation for tag, citation, *_ in _ROWS}
_DISPATCH = {IdentityId(tag): (check, args) for tag, _, check, args in _ROWS}

"""The theorem-verification engine.

Every identity in the catalog is a named, machine-checkable exact
polynomial equality over Q(i)[l, x, y, r].  A check builds both sides
through independent routes, subtracts, and reports the residual; the
verdict is "holds" exactly when the residual canonicalizes to the zero
polynomial.  There is no tolerance anywhere.

Reflection checks substitute l -> -l on families computed with symbolic l,
so both sides live in the same ring and the (-1)^n sign rules are literal.
Shift checks keep the shift amount r symbolic.
"""

from __future__ import annotations

import enum
import math
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
    FamilyKind,
    classical_family,
    complex_bernoulli_series,
    complex_euler_series,
    deg_exp_series,
    family,
    family_closed,
    kernel_series,
)
from .multipoly import MPoly
from .numeric import GaussRat
from fractions import Fraction


class IdentityId(enum.Enum):
    T1_EXPAND = "T1_expand"
    T1_CONJ = "T1_conj"
    T2_COS = "T2_cos"
    T2_SIN = "T2_sin"
    T3_COS = "T3_cos"
    T3_SIN = "T3_sin"
    T4_COS = "T4_cos"
    T4_SIN = "T4_sin"
    P5_SHIFT_COS = "P5_shift_cos"
    P5_SHIFT_SIN = "P5_shift_sin"
    T6_REFLECT_COS = "T6_reflect_cos"
    T6_REFLECT_SIN = "T6_reflect_sin"
    TB_CLOSED_COS = "TB_closed_cos"
    TB_CLOSED_SIN = "TB_closed_sin"
    T8_REFLECT_COS = "T8_reflect_cos"
    T8_REFLECT_SIN = "T8_reflect_sin"
    E57_SHIFT_COS = "E57_shift_cos"
    E58_SHIFT_SIN = "E58_shift_sin"
    T9_DIFF_COS = "T9_diff_cos"
    T9_DIFF_SIN = "T9_diff_sin"
    C10_COS = "C10_cos"
    C10_SIN = "C10_sin"
    E61_E62_X0 = "E61_E62_x0"
    T7_STIRLING_EULER_COS = "T7_stirling_euler_cos"
    T7_STIRLING_EULER_SIN = "T7_stirling_euler_sin"
    E63_STIRLING_BERN_COS = "E63_stirling_bern_cos"
    E63_STIRLING_BERN_SIN = "E63_stirling_bern_sin"
    L0_CLASSICAL_LIMITS = "L0_classical_limits"
    D_DECOMPOSITION = "D_decomposition"


CITATIONS: Dict[IdentityId, str] = {
    IdentityId.T1_EXPAND: "Theorem 1: complex-argument Euler expansion over factorial products",
    IdentityId.T1_CONJ: "Theorem 1: conjugate expansion via ascending factorials",
    IdentityId.T2_COS: "Theorem 2: cosine-polynomial closed form",
    IdentityId.T2_SIN: "Theorem 2: sine-polynomial closed form",
    IdentityId.T3_COS: "Theorem 3: cosine-Euler via cosine-polynomials and Stirling sums",
    IdentityId.T3_SIN: "Theorem 3: sine-Euler via sine-polynomials and Stirling sums",
    IdentityId.T4_COS: "Theorem 4: cosine-polynomial from cosine-Euler polynomials",
    IdentityId.T4_SIN: "Theorem 4: sine-polynomial from sine-Euler polynomials",
    IdentityId.P5_SHIFT_COS: "Proposition 5: argument shift for cosine-Euler polynomials",
    IdentityId.P5_SHIFT_SIN: "Proposition 5: argument shift for sine-Euler polynomials",
    IdentityId.T6_REFLECT_COS: "Theorem 6: reflection symmetry for cosine-Euler polynomials",
    IdentityId.T6_REFLECT_SIN: "Theorem 6: reflection symmetry for sine-Euler polynomials",
    IdentityId.TB_CLOSED_COS: "Section 3 theorem: cosine-Bernoulli closed forms",
    IdentityId.TB_CLOSED_SIN: "Section 3 theorem: sine-Bernoulli closed forms",
    IdentityId.T8_REFLECT_COS: "Theorem 8: reflection symmetry for cosine-Bernoulli polynomials",
    IdentityId.T8_REFLECT_SIN: "Theorem 8: reflection symmetry for sine-Bernoulli polynomials",
    IdentityId.E57_SHIFT_COS: "Display (57): argument shift for cosine-Bernoulli polynomials",
    IdentityId.E58_SHIFT_SIN: "Display (58): argument shift for sine-Bernoulli polynomials",
    IdentityId.T9_DIFF_COS: "Theorem 9: forward difference of cosine-Bernoulli polynomials",
    IdentityId.T9_DIFF_SIN: "Theorem 9: forward difference of sine-Bernoulli polynomials",
    IdentityId.C10_COS: "Corollary: cosine-polynomial binomial sum over cosine-Bernoulli",
    IdentityId.C10_SIN: "Corollary: sine-polynomial binomial sum over sine-Bernoulli",
    IdentityId.E61_E62_X0: "Displays (61)/(62): x = 0 specializations over Bernoulli numbers",
    IdentityId.T7_STIRLING_EULER_COS: "Theorem 7: cosine-Euler via degenerate second-kind Stirling numbers",
    IdentityId.T7_STIRLING_EULER_SIN: "Theorem 7: sine-Euler via degenerate second-kind Stirling numbers",
    IdentityId.E63_STIRLING_BERN_COS: "Display (63): cosine-Bernoulli via degenerate second-kind Stirling numbers",
    IdentityId.E63_STIRLING_BERN_SIN: "Display (63): sine-Bernoulli via degenerate second-kind Stirling numbers",
    IdentityId.L0_CLASSICAL_LIMITS: "Classical limits at l = 0 against independently built kernels",
    IdentityId.D_DECOMPOSITION: "Displays (26)/(27) and (51)/(52): real/imaginary decomposition",
}


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
        self._checks: Dict[IdentityId, Callable[[int], IdentityReport]] = {
            IdentityId.T1_EXPAND: self._t1_expand,
            IdentityId.T1_CONJ: self._t1_conj,
            IdentityId.T2_COS: self._t2_cos,
            IdentityId.T2_SIN: self._t2_sin,
            IdentityId.T3_COS: self._t3_cos,
            IdentityId.T3_SIN: self._t3_sin,
            IdentityId.T4_COS: self._t4_cos,
            IdentityId.T4_SIN: self._t4_sin,
            IdentityId.P5_SHIFT_COS: self._p5_cos,
            IdentityId.P5_SHIFT_SIN: self._p5_sin,
            IdentityId.T6_REFLECT_COS: self._t6_cos,
            IdentityId.T6_REFLECT_SIN: self._t6_sin,
            IdentityId.TB_CLOSED_COS: self._tb_cos,
            IdentityId.TB_CLOSED_SIN: self._tb_sin,
            IdentityId.T8_REFLECT_COS: self._t8_cos,
            IdentityId.T8_REFLECT_SIN: self._t8_sin,
            IdentityId.E57_SHIFT_COS: self._e57_cos,
            IdentityId.E58_SHIFT_SIN: self._e58_sin,
            IdentityId.T9_DIFF_COS: self._t9_cos,
            IdentityId.T9_DIFF_SIN: self._t9_sin,
            IdentityId.C10_COS: self._c10_cos,
            IdentityId.C10_SIN: self._c10_sin,
            IdentityId.E61_E62_X0: self._e61_e62,
            IdentityId.T7_STIRLING_EULER_COS: self._t7_cos,
            IdentityId.T7_STIRLING_EULER_SIN: self._t7_sin,
            IdentityId.E63_STIRLING_BERN_COS: self._e63_cos,
            IdentityId.E63_STIRLING_BERN_SIN: self._e63_sin,
            IdentityId.L0_CLASSICAL_LIMITS: self._l0,
            IdentityId.D_DECOMPOSITION: self._decomposition,
        }

    # -- shared constructions (each built once) -----------------------

    @cached_property
    def euler_nums(self) -> Sequence[MPoly]:
        # Numbers by x := 0 substitution in the polynomial family.
        return [p.substitute("x", 0) for p in family(FamilyKind.DEG_EULER, self.order).polys]

    @cached_property
    def bern_nums(self) -> Sequence[MPoly]:
        return [p.substitute("x", 0) for p in family(FamilyKind.DEG_BERNOULLI, self.order).polys]

    @cached_property
    def euler_polys(self):
        return family(FamilyKind.DEG_EULER, self.order).polys

    @cached_property
    def bern_polys(self):
        return family(FamilyKind.DEG_BERNOULLI, self.order).polys

    @cached_property
    def cosine(self):
        return family(FamilyKind.DEG_COSINE, self.order).polys

    @cached_property
    def sine(self):
        return family(FamilyKind.DEG_SINE, self.order).polys

    @cached_property
    def cos_euler(self):
        return family(FamilyKind.DEG_COS_EULER, self.order).polys

    @cached_property
    def sin_euler(self):
        return family(FamilyKind.DEG_SIN_EULER, self.order).polys

    @cached_property
    def cos_bern(self):
        return family(FamilyKind.DEG_COS_BERNOULLI, self.order).polys

    @cached_property
    def sin_bern(self):
        return family(FamilyKind.DEG_SIN_BERNOULLI, self.order).polys

    @cached_property
    def cos_euler_y(self):
        # The x = 0 polynomials in y only.
        return [p.substitute("x", 0) for p in self.cos_euler]

    @cached_property
    def sin_euler_y(self):
        return [p.substitute("x", 0) for p in self.sin_euler]

    @cached_property
    def cos_bern_y(self):
        return [p.substitute("x", 0) for p in self.cos_bern]

    @cached_property
    def sin_bern_y(self):
        return [p.substitute("x", 0) for p in self.sin_bern]

    @cached_property
    def stirling1(self):
        return stirling_table(StirlingKind.FIRST, self.order)

    @cached_property
    def stirling2_deg(self):
        return stirling_table(StirlingKind.DEGENERATE_SECOND, self.order)

    @cached_property
    def complex_euler(self):
        return complex_euler_series(self.order).coeffs

    @cached_property
    def complex_bernoulli(self):
        return complex_bernoulli_series(self.order).coeffs

    @cached_property
    def conj_euler(self):
        # Euler kernel times degenerate exponential at x - iy.
        arg = MPoly.variable("x") - MPoly.variable("y").scale(
            GaussRat(Fraction(0), Fraction(1))
        )
        series = kernel_series("euler", self.order) * deg_exp_series(arg, self.order)
        return series.coeffs

    # -- report helpers -----------------------------------------------

    def _simple(self, tag: IdentityId, n: int, residuals: Sequence[MPoly]) -> IdentityReport:
        for res in residuals:
            if not res.is_zero():
                return IdentityReport(tag, n, "fails", res)
        return IdentityReport(tag, n, "holds")

    # -- the checks ----------------------------------------------------

    def _t1_expand(self, n: int) -> IdentityReport:
        iy = MPoly.variable("y").scale(GaussRat(Fraction(0), Fraction(1)))
        xiy = MPoly.variable("x") + iy
        lhs = self.complex_euler[n]
        rhs1 = MPoly.zero()
        rhs2 = MPoly.zero()
        for l in range(n + 1):
            b = math.comb(n, l)
            rhs1 = rhs1 + (gen_falling_factorial(iy, n - l) * self.euler_polys[l]).scale(b)
            rhs2 = rhs2 + (gen_falling_factorial(xiy, n - l) * self.euler_nums[l]).scale(b)
        return self._simple(IdentityId.T1_EXPAND, n, [lhs - rhs1, lhs - rhs2])

    def _t1_conj(self, n: int) -> IdentityReport:
        iy = MPoly.variable("y").scale(GaussRat(Fraction(0), Fraction(1)))
        iy_minus_x = iy - MPoly.variable("x")
        lhs = self.conj_euler[n]
        rhs1 = MPoly.zero()
        rhs2 = MPoly.zero()
        for l in range(n + 1):
            b = math.comb(n, l) * (-1) ** (n - l)
            rhs1 = rhs1 + (gen_rising_factorial(iy, n - l) * self.euler_polys[l]).scale(b)
            rhs2 = rhs2 + (gen_rising_factorial(iy_minus_x, n - l) * self.euler_nums[l]).scale(b)
        return self._simple(IdentityId.T1_CONJ, n, [lhs - rhs1, lhs - rhs2])

    def _route_pair(self, tag, n, kind):
        lhs = family(kind, self.order)[n]
        rhs = family_closed(kind, self.order)[n]
        return self._simple(tag, n, [lhs - rhs])

    def _t2_cos(self, n):
        return self._route_pair(IdentityId.T2_COS, n, FamilyKind.DEG_COSINE)

    def _t2_sin(self, n):
        return self._route_pair(IdentityId.T2_SIN, n, FamilyKind.DEG_SINE)

    def _t3_cos(self, n):
        lhs = self.cos_euler[n]
        conv = MPoly.zero()
        for k in range(n + 1):
            conv = conv + (self.euler_nums[k] * self.cosine[n - k]).scale(math.comb(n, k))
        closed = family_closed(FamilyKind.DEG_COS_EULER, self.order)[n]
        return self._simple(IdentityId.T3_COS, n, [lhs - conv, lhs - closed])

    def _t3_sin(self, n):
        lhs = self.sin_euler[n]
        conv = MPoly.zero()
        for k in range(n + 1):
            conv = conv + (self.euler_nums[k] * self.sine[n - k]).scale(math.comb(n, k))
        closed = family_closed(FamilyKind.DEG_SIN_EULER, self.order)[n]
        return self._simple(IdentityId.T3_SIN, n, [lhs - conv, lhs - closed])

    def _t4(self, tag, n, trig_polys, euler_family):
        lhs = trig_polys[n]
        acc = MPoly.zero()
        for l in range(n + 1):
            acc = acc + (gen_falling_factorial(1, n - l) * euler_family[l]).scale(
                math.comb(n, l)
            )
        rhs = (acc + euler_family[n]).scale(Fraction(1, 2))
        return self._simple(tag, n, [lhs - rhs])

    def _t4_cos(self, n):
        return self._t4(IdentityId.T4_COS, n, self.cosine, self.cos_euler)

    def _t4_sin(self, n):
        return self._t4(IdentityId.T4_SIN, n, self.sine, self.sin_euler)

    def _shift(self, tag, n, polys):
        rv = MPoly.variable("r")
        lhs = polys[n].substitute("x", MPoly.variable("x") + rv)
        rhs = MPoly.zero()
        for l in range(n + 1):
            rhs = rhs + (polys[l] * gen_falling_factorial(rv, n - l)).scale(
                math.comb(n, l)
            )
        return self._simple(tag, n, [lhs - rhs])

    def _p5_cos(self, n):
        return self._shift(IdentityId.P5_SHIFT_COS, n, self.cos_euler)

    def _p5_sin(self, n):
        return self._shift(IdentityId.P5_SHIFT_SIN, n, self.sin_euler)

    def _reflect(self, tag, n, polys, sign_exp):
        lhs = polys[n].substitute("x", MPoly.one() - MPoly.variable("x"))
        rhs = polys[n].substitute("l", -MPoly.variable("l")).scale((-1) ** sign_exp)
        return self._simple(tag, n, [lhs - rhs])

    def _t6_cos(self, n):
        return self._reflect(IdentityId.T6_REFLECT_COS, n, self.cos_euler, n)

    def _t6_sin(self, n):
        return self._reflect(IdentityId.T6_REFLECT_SIN, n, self.sin_euler, n + 1)

    def _tb_cos(self, n):
        lhs = self.cos_bern[n]
        conv = MPoly.zero()
        for k in range(n + 1):
            conv = conv + (self.bern_nums[k] * self.cosine[n - k]).scale(math.comb(n, k))
        closed = family_closed(FamilyKind.DEG_COS_BERNOULLI, self.order)[n]
        return self._simple(IdentityId.TB_CLOSED_COS, n, [lhs - conv, lhs - closed])

    def _tb_sin(self, n):
        lhs = self.sin_bern[n]
        conv = MPoly.zero()
        for k in range(n + 1):
            conv = conv + (self.bern_nums[k] * self.sine[n - k]).scale(math.comb(n, k))
        closed = family_closed(FamilyKind.DEG_SIN_BERNOULLI, self.order)[n]
        return self._simple(IdentityId.TB_CLOSED_SIN, n, [lhs - conv, lhs - closed])

    def _t8_cos(self, n):
        return self._reflect(IdentityId.T8_REFLECT_COS, n, self.cos_bern, n)

    def _t8_sin(self, n):
        return self._reflect(IdentityId.T8_REFLECT_SIN, n, self.sin_bern, n + 1)

    def _e57_cos(self, n):
        return self._shift(IdentityId.E57_SHIFT_COS, n, self.cos_bern)

    def _e58_sin(self, n):
        return self._shift(IdentityId.E58_SHIFT_SIN, n, self.sin_bern)

    def _t9(self, tag, n, trig_polys, bern_family):
        # Needs index n + 1; the constructor guarantees order >= n_max + 1.
        lhs = trig_polys[n].scale(n + 1)
        shifted = bern_family[n + 1].substitute("x", MPoly.variable("x") + 1)
        rhs = shifted - bern_family[n + 1]
        return self._simple(tag, n, [lhs - rhs])

    def _t9_cos(self, n):
        return self._t9(IdentityId.T9_DIFF_COS, n, self.cosine, self.cos_bern)

    def _t9_sin(self, n):
        return self._t9(IdentityId.T9_DIFF_SIN, n, self.sine, self.sin_bern)

    def _c10(self, tag, n, trig_polys, bern_family):
        lhs = trig_polys[n].scale(n + 1)
        rhs = MPoly.zero()
        for l in range(n + 1):
            rhs = rhs + (
                bern_family[l] * gen_falling_factorial(1, n + 1 - l)
            ).scale(math.comb(n + 1, l))
        return self._simple(tag, n, [lhs - rhs])

    def _c10_cos(self, n):
        return self._c10(IdentityId.C10_COS, n, self.cosine, self.cos_bern)

    def _c10_sin(self, n):
        return self._c10(IdentityId.C10_SIN, n, self.sine, self.sin_bern)

    def _e61_e62(self, n):
        lam = MPoly.variable("l")
        yv = MPoly.variable("y")
        s1 = self.stirling1
        lhs_c = self.cos_bern_y[n]
        rhs_c = MPoly.zero()
        for k in range(n // 2 + 1):
            for l in range(2 * k, n + 1):
                rhs_c = rhs_c + (
                    lam ** (l - 2 * k)
                    * yv ** (2 * k)
                    * s1.entry(l, 2 * k)
                    * self.bern_nums[n - l]
                ).scale((-1) ** k * math.comb(n, l))
        lhs_s = self.sin_bern_y[n]
        rhs_s = MPoly.zero()
        if n >= 1:
            for k in range((n - 1) // 2 + 1):
                for l in range(2 * k + 1, n + 1):
                    rhs_s = rhs_s + (
                        lam ** (l - 2 * k - 1)
                        * yv ** (2 * k + 1)
                        * s1.entry(l, 2 * k + 1)
                        * self.bern_nums[n - l]
                    ).scale((-1) ** k * math.comb(n, l))
        return self._simple(IdentityId.E61_E62_X0, n, [lhs_c - rhs_c, lhs_s - rhs_s])

    def _stirling2_sum(self, n, y_polys, binom_of: str) -> MPoly:
        """sum_{k=0}^n sum_{l=0}^k binom(n, k or l) (x)_l S2_deg(k,l) P_{n-k}(y)."""
        xv = MPoly.variable("x")
        acc = MPoly.zero()
        for k in range(n + 1):
            tail = y_polys[n - k]
            if tail.is_zero():
                continue
            for l in range(k + 1):
                b = math.comb(n, k) if binom_of == "k" else math.comb(n, l)
                acc = acc + (
                    falling_factorial(xv, l) * self.stirling2_deg.entry(k, l) * tail
                ).scale(b)
        return acc

    def _t7(self, tag, n, lhs_polys, y_polys):
        # Theorem 7's two displays disagree on the binomial index (n over l
        # vs n over k); check both and name the survivor.
        lhs = lhs_polys[n]
        res_k = lhs - self._stirling2_sum(n, y_polys, "k")
        res_l = lhs - self._stirling2_sum(n, y_polys, "l")
        note_base = (
            "inner Euler factor read with the deformation subscript as in the "
            "surrounding displays; "
        )
        if res_k.is_zero() and res_l.is_zero():
            return IdentityReport(tag, n, "holds")
        if res_k.is_zero():
            note = (
                note_base
                + "surviving variant: binom(n,k); binom(n,l) residual: "
                + res_l.to_text()
            )
            return IdentityReport(tag, n, "holds_variant", MPoly.zero(), note)
        if res_l.is_zero():
            note = (
                note_base
                + "surviving variant: binom(n,l); binom(n,k) residual: "
                + res_k.to_text()
            )
            return IdentityReport(tag, n, "holds_variant", MPoly.zero(), note)
        return IdentityReport(tag, n, "fails", res_k, "both binomial variants fail")

    def _t7_cos(self, n):
        return self._t7(IdentityId.T7_STIRLING_EULER_COS, n, self.cos_euler, self.cos_euler_y)

    def _t7_sin(self, n):
        return self._t7(IdentityId.T7_STIRLING_EULER_SIN, n, self.sin_euler, self.sin_euler_y)

    def _e63_cos(self, n):
        lhs = self.cos_bern[n]
        rhs = self._stirling2_sum(n, self.cos_bern_y, "k")
        return self._simple(IdentityId.E63_STIRLING_BERN_COS, n, [lhs - rhs])

    def _e63_sin(self, n):
        lhs = self.sin_bern[n]
        rhs = self._stirling2_sum(n, self.sin_bern_y, "k")
        return self._simple(IdentityId.E63_STIRLING_BERN_SIN, n, [lhs - rhs])

    def _l0(self, n):
        residuals = []
        for kind in FamilyKind:
            degenerate = family(kind, self.order)[n].substitute("l", 0)
            classical = classical_family(kind, self.order)[n]
            residuals.append(degenerate - classical)
        return self._simple(IdentityId.L0_CLASSICAL_LIMITS, n, residuals)

    def _decomposition(self, n):
        e_re, e_im = self.complex_euler[n].split_real_imag()
        b_re, b_im = self.complex_bernoulli[n].split_real_imag()
        return self._simple(
            IdentityId.D_DECOMPOSITION,
            n,
            [
                e_re - self.cos_euler[n],
                e_im - self.sin_euler[n],
                b_re - self.cos_bern[n],
                b_im - self.sin_bern[n],
            ],
        )

    # -- public API ----------------------------------------------------

    def verify(self, tag: IdentityId) -> List[IdentityReport]:
        if tag not in self._checks:
            raise ValueError(f"unknown identity tag {tag!r}")
        check = self._checks[tag]
        return [check(n) for n in range(self.n_max + 1)]

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

"""The theorem-verification engine.

Every identity in the catalog is a named, machine-checkable exact
polynomial equality over Q(i)[l, x, y, r].  A check builds both sides
through independent routes and compares them: the generating-function
families, which run no ``combinat`` code, against the closed forms,
combinat's factorials and Stirling tables, or the l = 0 oracle.  Polynomials
are canonical, so the verdict is "holds" exactly when the residual lhs - rhs
is the zero polynomial.  A failing check reports that residual.  There is no
tolerance anywhere.

The families are exact polynomials, so the engine takes no truncation order:
every construction is built to degree n_max + 1, the highest degree any check
reads (T9 reads n + 1).

Reflection checks substitute l -> -l on families computed with symbolic l,
so both sides live in the same ring and the (-1)^n sign rules are literal.
Shift checks keep the shift amount r symbolic.

The catalog is the list ``_CATALOG`` at the end of the module; ``IdentityId``,
``CITATIONS`` and the dispatch of ``IdentityEngine.verify`` are derived from
it, and its order is the report order.  To add an identity, write a check
method ``_name(self, n, *args)`` that returns its equations at degree n as
``(name, lhs, rhs)`` triples, then add a row ``(tag, citation, check, args)``.
A cos/sin twin is one row whose tag is a stem and whose citation writes
``{0}`` for "cosine" or "sine"; it expands to the tags ``<stem>_cos`` and
``<stem>_sin``, and its check receives ``trig`` ("cos", then "sin") before
``args``.  If the equations are alternative readings of one display, end the
row with the note that opens its ``holds_variant`` reports.  ``_judge`` alone
turns equations into a verdict, naming every unequal one.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .combinat import StirlingKind, falling_factorial, gen_falling_factorial, stirling_table
from .egfseries import binom_sum
from .families import (
    _KIND,
    FamilyKind,
    classical_family,
    complex_series,
    family,
    family_closed,
    trig_stirling_rows,
)
from .multipoly import MPoly, as_size, sum_products


class IdentityReport(NamedTuple):
    """Verdict for one identity checked at one degree."""

    id: IdentityId
    n: int
    verdict: str  # "holds" | "fails" | "holds_variant"
    variant_note: str = ""
    failing: Tuple[Tuple[str, MPoly], ...] = ()  # (name, residual) of each unequal equation

    def to_json_dict(self) -> dict:
        out = {
            "id": self.id.value,
            "n": self.n,
            "verdict": self.verdict,
            "residual": self.failing[0][1].to_text() if self.failing else "0",
            "citation": CITATIONS[self.id],
        }
        if self.variant_note:
            out["variant_note"] = self.variant_note
        if self.failing:
            out["failing"] = {name: residual.to_text() for name, residual in self.failing}
        return out


def _judge(tag: IdentityId, n: int, equations: Sequence[Tuple[str, MPoly, MPoly]],
           readings: str) -> IdentityReport:
    """The verdict on a check's (name, lhs, rhs) equations; ``readings`` is the
    catalog note of a check whose equations read one display, else ""."""
    failing = tuple((name, lhs - rhs) for name, lhs, rhs in equations if lhs != rhs)
    if not failing:
        return IdentityReport(tag, n, "holds")
    if readings and len(failing) < len(equations):
        held = ", ".join(name for name, lhs, rhs in equations if lhs == rhs)
        lost = "; ".join(f"{name} residual: {res.to_text()}" for name, res in failing)
        return IdentityReport(tag, n, "holds_variant",
                              f"{readings}; surviving variant: {held}; {lost}")
    return IdentityReport(tag, n, "fails", failing=failing)


class IdentityEngine:
    """Runs exact checks for each identity tag on constructions of degree n_max + 1."""

    def __init__(self, n_max: int):
        self.n_max = as_size(n_max, "n_max")
        # Every construction is built to this degree only.
        self.degree = as_size(n_max + 1, "the build degree n_max + 1")
        self._x0: Dict[FamilyKind, List[MPoly]] = {}

    # -- tables of the engine's own (the families are cached by ``family``) --

    def x0(self, kind: FamilyKind) -> List[MPoly]:
        # The x = 0 polynomials; for the plain Euler/Bernoulli families
        # these are the numbers, by substitution in the polynomial family.
        if kind not in self._x0:
            self._x0[kind] = [p.substitute("x", 0) for p in family(kind, self.degree).polys]
        return self._x0[kind]

    @cached_property
    def _u_table(self) -> List[MPoly]:
        # U_k = sum_{l<=k} S2_deg(k, l) (x)_l for k = 0..degree, from the Stirling
        # table.  U_k equals (x)_{k,l}, but building it that way would let T7
        # and E63 check the generating-function route against itself.
        xv = MPoly.variable("x")
        s2 = stirling_table(StirlingKind.DEGENERATE_SECOND, self.degree)
        return [sum_products((1, s2.entry(k, l), falling_factorial(xv, l)) for l in range(k + 1))
                for k in range(self.degree + 1)]

    # -- the checks ----------------------------------------------------

    def _t1(self, n, sign):
        # E_n(x + sign*iy), the image of E_n(x + iy) under y -> sign*y, over E_l(x) and
        # over the numbers; at x - iy the factorials ascend: (-u)_{k,l} = (-1)^k <u>_{k,l}.
        yv = MPoly.variable("y")
        iy = yv * MPoly.I
        euler, nums = family(FamilyKind.DEG_EULER, self.degree), self.x0(FamilyKind.DEG_EULER)
        lhs = complex_series("euler", self.degree)[n].substitute("y", yv.scale(sign))
        signed = [math.comb(n, l) * sign ** (n - l) for l in range(n + 1)]
        return [(name, lhs, sum_products((b, gen_falling_factorial(u, n - l, step=-sign), polys[l])
                                         for l, b in enumerate(signed)))
                for name, u, polys in (("polynomials", iy, euler),
                                       ("numbers", MPoly.variable("x").scale(sign) + iy, nums))]

    def _route_pair(self, n, trig):
        kind, degree = _KIND[None, trig], self.degree
        return [("closed", family(kind, degree)[n], family_closed(kind, degree)[n])]

    def _convolution(self, n, trig, kernel):
        # Theorem 3 / Section 3 theorem: kernel numbers convolved with the
        # trig polynomials, and the closed form.
        kind = _KIND[kernel, trig]
        lhs = family(kind, self.degree)[n]
        nums, trig_polys = self.x0(_KIND[kernel, None]), family(_KIND[None, trig], self.degree)
        conv = binom_sum(n, lambda k: (nums[k], trig_polys[n - k]))
        closed = family_closed(kind, self.degree)[n]
        return [("conv", lhs, conv), ("closed", lhs, closed)]

    def _t4(self, n, trig):
        euler_family = family(_KIND["euler", trig], self.degree)
        lhs = family(_KIND[None, trig], self.degree)[n]
        acc = binom_sum(n, lambda l: (gen_falling_factorial(1, n - l), euler_family[l]))
        rhs = (acc + euler_family[n]).scale(Fraction(1, 2))
        return [("binom_sum", lhs, rhs)]

    def _shift(self, n, trig, kernel):
        polys = family(_KIND[kernel, trig], self.degree)
        rv = MPoly.variable("r")
        lhs = polys[n].substitute("x", MPoly.variable("x") + rv)
        rhs = binom_sum(n, lambda l: (polys[l], gen_falling_factorial(rv, n - l)))
        return [("shift", lhs, rhs)]

    def _reflect(self, n, trig, kernel):
        polys = family(_KIND[kernel, trig], self.degree)
        sign_exp = n if trig == "cos" else n + 1
        lhs = polys[n].substitute("x", MPoly.one() - MPoly.variable("x"))
        rhs = polys[n].substitute("l", -MPoly.variable("l")).scale((-1) ** sign_exp)
        return [("reflect", lhs, rhs)]

    def _t9(self, n, trig):
        # Reads index n + 1, which is why the engine builds to degree n_max + 1.
        bern_family = family(_KIND["bernoulli", trig], self.degree)
        lhs = family(_KIND[None, trig], self.degree)[n].scale(n + 1)
        shifted = bern_family[n + 1].substitute("x", MPoly.variable("x") + 1)
        rhs = shifted - bern_family[n + 1]
        return [("difference", lhs, rhs)]

    def _c10(self, n, trig):
        bern_family = family(_KIND["bernoulli", trig], self.degree)
        lhs = family(_KIND[None, trig], self.degree)[n].scale(n + 1)
        rhs = sum_products(
            (math.comb(n + 1, l), bern_family[l], gen_falling_factorial(1, n + 1 - l))
            for l in range(n + 1))
        return [("binom_sum", lhs, rhs)]

    def _e61_e62(self, n):
        nums = self.x0(FamilyKind.DEG_BERNOULLI)
        rows = {trig: trig_stirling_rows(trig, self.degree) for trig in ("cos", "sin")}
        return [(trig, self.x0(_KIND["bernoulli", trig])[n],
                 binom_sum(n, lambda m: (rows[trig][m], nums[n - m]))) for trig in rows]

    def _u_sum(self, n, polys) -> MPoly:
        """The Stirling sum sum_k binom(n, k) U_k P_{n-k}, with U_k from ``_u_table``."""
        return binom_sum(n, lambda k: (self._u_table[k], polys[n - k]))

    def _t7(self, n, trig):
        # Theorem 7's two displays disagree on the binomial index (n over l
        # vs n over k); its catalog row notes both as readings.  With binom(n, l) the
        # sums swap to sum_l binom(n, l) (x)_l sum_{k=l..n} S2_deg(k, l) P_{n-k}.
        kind = _KIND["euler", trig]
        lhs, nums = family(kind, self.degree)[n], self.x0(kind)
        xv = MPoly.variable("x")
        s2 = stirling_table(StirlingKind.DEGENERATE_SECOND, self.degree)
        swapped = binom_sum(n, lambda l: (falling_factorial(xv, l), sum_products(
            (1, s2.entry(k, l), nums[n - k]) for k in range(l, n + 1))))
        return [("binom(n,k)", lhs, self._u_sum(n, nums)), ("binom(n,l)", lhs, swapped)]

    def _e63(self, n, trig):
        kind = _KIND["bernoulli", trig]
        return [("stirling", family(kind, self.degree)[n], self._u_sum(n, self.x0(kind)))]

    def _l0(self, n):
        return [(kind.value, family(kind, self.degree)[n].substitute("l", 0),
                 classical_family(kind, self.degree)[n])
                for kind in FamilyKind]

    def _decomposition(self, n):
        return [(kind.value, part, family(kind, self.degree)[n])
                for kernel in ("euler", "bernoulli")
                for kind, part in zip((_KIND[kernel, "cos"], _KIND[kernel, "sin"]),
                                      complex_series(kernel, self.degree)[n].split_real_imag())]

    # -- public API ----------------------------------------------------

    def verify(self, tag: IdentityId) -> List[IdentityReport]:
        if tag not in _DISPATCH:
            raise ValueError(f"unknown identity tag {tag!r}")
        check, args, readings = _DISPATCH[tag]
        return [_judge(tag, n, check(self, n, *args), readings) for n in range(self.n_max + 1)]


def summarize(reports: Sequence[IdentityReport]) -> Dict[str, object]:
    """The number of checks, the count of each verdict, and whether none failed."""
    counts = Counter(rep.verdict for rep in reports)
    return {
        "checks": len(reports),
        "holds": counts["holds"],
        "holds_variant": counts["holds_variant"],
        "fails": counts["fails"],
        "ok": counts["fails"] == 0,
    }


_E = IdentityEngine

# (tag, citation, check, args) in report order.  A cos/sin twin is one row whose
# citation writes {0} for "cosine" or "sine"; its tag is the stem of both.  A
# check whose equations are alternative readings of one display ends its row
# with the note that opens its ``holds_variant`` reports.
_CATALOG = [
    ("T1_expand", "Theorem 1: complex-argument Euler expansion over factorial products",
     _E._t1, (1,)),
    ("T1_conj", "Theorem 1: conjugate expansion via ascending factorials", _E._t1, (-1,)),
    ("T2", "Theorem 2: {0}-polynomial closed form", _E._route_pair, ()),
    ("T3", "Theorem 3: {0}-Euler via {0}-polynomials and Stirling sums",
     _E._convolution, ("euler",)),
    ("T4", "Theorem 4: {0}-polynomial from {0}-Euler polynomials", _E._t4, ()),
    ("P5_shift", "Proposition 5: argument shift for {0}-Euler polynomials",
     _E._shift, ("euler",)),
    ("T6_reflect", "Theorem 6: reflection symmetry for {0}-Euler polynomials",
     _E._reflect, ("euler",)),
    ("TB_closed", "Section 3 theorem: {0}-Bernoulli closed forms",
     _E._convolution, ("bernoulli",)),
    ("T8_reflect", "Theorem 8: reflection symmetry for {0}-Bernoulli polynomials",
     _E._reflect, ("bernoulli",)),
    ("E57_shift_cos", "Display (57): argument shift for cosine-Bernoulli polynomials",
     _E._shift, ("cos", "bernoulli")),
    ("E58_shift_sin", "Display (58): argument shift for sine-Bernoulli polynomials",
     _E._shift, ("sin", "bernoulli")),
    ("T9_diff", "Theorem 9: forward difference of {0}-Bernoulli polynomials", _E._t9, ()),
    ("C10", "Corollary: {0}-polynomial binomial sum over {0}-Bernoulli", _E._c10, ()),
    ("E61_E62_x0", "Displays (61)/(62): x = 0 specializations over Bernoulli numbers",
     _E._e61_e62, ()),
    ("T7_stirling_euler", "Theorem 7: {0}-Euler via degenerate second-kind Stirling numbers",
     _E._t7, (), "inner Euler factor read with the deformation subscript as in the "
                 "surrounding displays"),
    ("E63_stirling_bern",
     "Display (63): {0}-Bernoulli via degenerate second-kind Stirling numbers", _E._e63, ()),
    ("L0_classical_limits", "Classical limits at l = 0 against independently built kernels",
     _E._l0, ()),
    ("D_decomposition", "Displays (26)/(27) and (51)/(52): real/imaginary decomposition",
     _E._decomposition, ()),
]

# One (tag, citation, check, args, readings) per tag, twins split into cos then sin.
_ROWS = []
for _tag, _citation, _check, _args, *_note in _CATALOG:
    _readings = _note[0] if _note else ""
    if "{0}" not in _citation:
        _ROWS.append((_tag, _citation, _check, _args, _readings))
    else:
        for _trig, _word in (("cos", "cosine"), ("sin", "sine")):
            _ROWS.append((f"{_tag}_{_trig}", _citation.format(_word), _check, (_trig, *_args),
                          _readings))

IdentityId = enum.Enum("IdentityId", [(tag.upper(), tag) for tag, *_ in _ROWS])
CITATIONS: Dict[IdentityId, str] = {IdentityId(tag): citation for tag, citation, *_ in _ROWS}
_DISPATCH = {IdentityId(tag): (check, args, readings)
             for tag, _, check, args, readings in _ROWS}

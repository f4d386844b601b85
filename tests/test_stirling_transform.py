"""Every power of l against the classical oracle, and the shape of each family.

L0 compares only the l^0 part of each family with ``classical_family``.  The
substitution s = log(1 + l t)/l, that is t = (e^{ls} - 1)/l, turns e_l^u(t)
into e^{us}, and s^k/k! = sum_n S1(n,k) l^(n-k) t^n/n! with S1 the signed
first-kind Stirling number.  So a family whose generating function is built
from degenerate exponentials and the Euler kernel 2/(e_l(t) + 1) satisfies

    P_n = sum_k S1(n,k) l^(n-k) C_k,

where C is the classical family of the same kind.  The Bernoulli kernel
t/(e_l(t) - 1) becomes (e^{ls} - 1)/(ls) * s/(e^s - 1), whose first factor
has coefficients l^j/(j+1); so the transform is applied to
G_m = sum_j binom(m,j) l^j/(j+1) C_(m-j) instead.

S1 comes from its own recurrence s(n+1,k) = s(n,k-1) - n*s(n,k), never from
``degenpoly.combinat``.  The structural tests read only ``terms``.
"""

import math
from fractions import Fraction

import pytest

from degenpoly.families import _STRUCTURE, FamilyKind, classical_family, family
from degenpoly.multipoly import MPoly

N = 20
L = MPoly.variable("l")
KINDS = list(FamilyKind)
TRIG = {kind: trig for kind, (_, _, trig) in _STRUCTURE.items()}


def signed_stirling_first(n_max):
    """s[n][k] for 0 <= k <= n <= n_max, by s(n+1,k) = s(n,k-1) - n*s(n,k)."""
    s = [[1]]
    for n in range(n_max):
        prev = s[-1] + [0]
        s.append([(prev[k - 1] if k else 0) - n * prev[k] for k in range(n + 2)])
    return s


def test_first_kind_stirling_numbers_by_their_own_recurrence():
    s = signed_stirling_first(N)
    assert s[4] == [0, -6, 11, -6, 1]
    assert all(sum(abs(v) for v in s[n]) == math.factorial(n) for n in range(N + 1))
    assert all(s[n][1] == (-1) ** (n - 1) * math.factorial(n - 1) for n in range(1, N + 1))


def _sum(polys):
    return sum(polys, MPoly.zero())


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_stirling_transform_of_the_classical_family(kind):
    classical = classical_family(kind, N).polys
    if _STRUCTURE[kind][0] == "bernoulli":
        classical = [_sum((classical[m - j] * L ** j).scale(Fraction(math.comb(m, j), j + 1))
                          for j in range(m + 1)) for m in range(N + 1)]
    s = signed_stirling_first(N)
    polys = family(kind, N).polys
    for n in range(N + 1):
        transform = _sum((classical[k] * L ** (n - k)).scale(s[n][k]) for k in range(n + 1))
        assert polys[n] == transform, n


def _degrees(poly):
    """The (l, x, y) degree of each term, which has no r and no i."""
    out = []
    for el, ex, ey, er, ei in poly.terms:
        assert er == ei == 0
        out.append(el + ex + ey)
    return out


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_total_degree_and_parity_in_y(kind):
    # The sine kinds are odd in y and every other kind is even; cos/sin is
    # read from the trig factor, since "deg-cosine" contains "sin".
    parity = 1 if TRIG[kind] == "sin" else 0
    for n, poly in enumerate(family(kind, N).polys):
        assert all(d <= n for d in _degrees(poly)), n
        assert all(ey % 2 == parity for _, _, ey, _, _ in poly.terms), n


@pytest.mark.parametrize("kind", [FamilyKind.DEG_COSINE, FamilyKind.DEG_SINE],
                         ids=lambda kind: kind.value)
def test_trig_polynomials_are_homogeneous_with_every_admissible_term(kind):
    # One term l^a x^b y^c per a + b + c = n with c even (cos) or odd (sin);
    # the cosine lacks l^n, since (0)_{n,l} = 0 for n >= 1.
    parity = 1 if TRIG[kind] == "sin" else 0
    for n, poly in enumerate(family(kind, N).polys):
        assert all(d == n for d in _degrees(poly)), n
        expected = {(a, b, n - a - b, 0, 0) for a in range(n + 1) for b in range(n + 1 - a)
                    if (n - a - b) % 2 == parity}
        if kind is FamilyKind.DEG_COSINE and n >= 1:
            expected.discard((n, 0, 0, 0, 0))
        assert set(poly.terms) == expected, n


@pytest.mark.parametrize("kind", [
    FamilyKind.DEG_EULER, FamilyKind.DEG_BERNOULLI, FamilyKind.DEG_COSINE,
    FamilyKind.DEG_COS_EULER, FamilyKind.DEG_COS_BERNOULLI,
], ids=lambda kind: kind.value)
def test_x_to_the_n_has_coefficient_one(kind):
    for n, poly in enumerate(family(kind, N).polys):
        assert poly.terms.get((0, n, 0, 0, 0)) == 1, n


@pytest.mark.parametrize("trig", ["cos", "sin"])
def test_top_degree_of_the_trig_euler_family_is_the_trig_polynomial(trig):
    euler = family(FamilyKind.DEG_COS_EULER if trig == "cos" else FamilyKind.DEG_SIN_EULER, N)
    plain = family(FamilyKind.DEG_COSINE if trig == "cos" else FamilyKind.DEG_SINE, N)
    for n in range(N + 1):
        top = {key: c for key, c in euler[n].terms.items() if sum(key[:3]) == n}
        assert top == plain[n].terms, n

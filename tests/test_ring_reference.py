"""MPoly against a schoolbook reference ring that shares no code with the package.

The reference stores a polynomial as {(el, ex, ey, er): (re, im)} with
Fraction parts and no zero entries, and implements each operation directly
from its definition.  Random Gaussian-coefficient polynomials (drawn from a
small coefficient set, so that sums and products often cancel) must give the
same result through both.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly.multipoly import VARIABLES, MPoly

ZERO = (Fraction(0), Fraction(0))

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
gaussians = st.tuples(rationals, rationals | st.just(Fraction(0)))
exponents = st.tuples(*[st.integers(0, 3)] * 4)
ref_polys = st.dictionaries(exponents, gaussians, max_size=6).map(
    lambda terms: {e: c for e, c in terms.items() if c != ZERO}
)
points = st.fixed_dictionaries({name: gaussians for name in VARIABLES})

ring_settings = settings(max_examples=100, deadline=None)


# -- the reference ring ------------------------------------------------------


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def r_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = c_add(out.get(e, ZERO), c)
    return {e: c for e, c in out.items() if c != ZERO}


def r_scale(p, z):
    return {e: c for e, c in ((e, c_mul(c, z)) for e, c in p.items()) if c != ZERO}


def r_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = c_add(out.get(e, ZERO), c_mul(c1, c2))
    return {e: c for e, c in out.items() if c != ZERO}


def r_substitute(p, idx, q):
    out = {}
    for e, c in p.items():
        term = {e[:idx] + (0,) + e[idx + 1:]: c}
        for _ in range(e[idx]):
            term = r_mul(term, q)
        out = r_add(out, term)
    return out


def r_evaluate(p, point):
    total = ZERO
    for e, c in p.items():
        for name, power in zip(VARIABLES, e):
            for _ in range(power):
                c = c_mul(c, point[name])
        total = c_add(total, c)
    return total


def gauss(z):
    """A Gaussian scalar as a constant of the ring: re + im*i."""
    return z[0] + z[1] * MPoly.I


def to_mpoly(p):
    re, im = ({e: c[part] for e, c in p.items()} for part in (0, 1))
    return MPoly(re) + MPoly(im) * MPoly.I


def as_pair(z):
    return (z.re, z.im)


def assert_same(poly, ref):
    assert {e: as_pair(z) for e, z in poly.terms.items()} == ref
    assert poly == to_mpoly(ref)
    assert hash(poly) == hash(to_mpoly(ref))


# -- the properties ----------------------------------------------------------


@ring_settings
@given(ref_polys, ref_polys)
def test_add_sub_mul(p, q):
    a, b = to_mpoly(p), to_mpoly(q)
    assert_same(a + b, r_add(p, q))
    assert_same(a - b, r_add(p, r_scale(q, (Fraction(-1), Fraction(0)))))
    assert_same(a * b, r_mul(p, q))
    assert (a - a).is_zero() and (a - a).terms == {}


@ring_settings
@given(ref_polys, gaussians)
def test_scale_by_gaussian_scalar(p, z):
    assert_same(to_mpoly(p) * gauss(z), r_scale(p, z))
    assert_same(to_mpoly(p).scale(z[0]), r_scale(p, (z[0], Fraction(0))))


@ring_settings
@given(ref_polys, st.sampled_from(range(4)), ref_polys)
def test_substitute(p, idx, q):
    assert_same(to_mpoly(p).substitute(VARIABLES[idx], to_mpoly(q)), r_substitute(p, idx, q))


@ring_settings
@given(ref_polys, points)
def test_evaluate(p, point):
    # evaluate binds rationals; a complex coordinate is substituted first.
    poly = to_mpoly(p)
    for name, z in point.items():
        if z[1]:
            poly = poly.substitute(name, gauss(z))
    value = poly.evaluate({name: z[0] for name, z in point.items() if not z[1]})
    assert as_pair(value) == r_evaluate(p, point)


@ring_settings
@given(ref_polys)
def test_split_real_imag(p):
    re, im = to_mpoly(p).split_real_imag()
    assert_same(re, {e: (c[0], Fraction(0)) for e, c in p.items() if c[0]})
    assert_same(im, {e: (c[1], Fraction(0)) for e, c in p.items() if c[1]})


@ring_settings
@given(ref_polys, ref_polys, ref_polys)
def test_equal_polynomials_hash_equal(p, q, s):
    a, b, c = to_mpoly(p), to_mpoly(q), to_mpoly(s)
    routes = [(a + b) * c, a * c + b * c, c * (b + a), (a * c - c * (-b)).scale(1)]
    assert all(r == routes[0] for r in routes)
    assert len({hash(r) for r in routes}) == 1
    assert_same(routes[0], r_mul(r_add(p, q), s))

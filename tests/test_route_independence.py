"""The generating-function route, the closed-form route and the classical l = 0
oracle must stay independent: a check whose two sides ran through the same
constructors would prove nothing.

Each test clears the package caches, runs one route under ``sys.setprofile``
and records every ``degenpoly`` function that runs, with the kinds of the
``family`` calls it runs under.  The routes may share only the code named in
``SHARED``; everything else a route runs must be its own.  The
generating-function route reads its kernels off e_l(t) and runs no
``combinat`` code at all; the closed forms and the engine's Stirling sums
read combinat's factorials and tables.
"""

import sys

import pytest

from degenpoly import combinat, families
from degenpoly.families import FamilyKind, classical_family, family, family_closed
from degenpoly.identities import IdentityEngine

# The code every route may run: the ring (MPoly, sum_products), the series
# arithmetic (EgfSeries, the container each route returns, with __mul__,
# invert and split_real_imag, and the binomial convolution binom_sum), and
# _product, the assembly of the factors a family's defining product names.
SHARED_MODULES = {"degenpoly.multipoly", "degenpoly.egfseries"}
SHARED = {("degenpoly.families", "_product")}

# The generating-function constructors.
GF_CONSTRUCTORS = {"family", "kernel_series", "deg_exp_series", "deg_cos_sin_series"}

TRIG_KINDS = [kind for kind, (_, _, trig) in families._STRUCTURE.items() if trig]


def _record(build):
    """{(module, function, kinds)} for each degenpoly function that runs under
    ``build()``, where kinds is the set of kinds of the ``family`` frames on
    the stack at that call, its own included.  Lambdas and comprehensions are
    left out: they run inside a function that is recorded."""
    for module in (combinat, families):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    calls = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
        if not module.startswith("degenpoly") or name.startswith("<"):
            return
        kinds, f = set(), frame
        while f is not None:
            if f.f_code is family.__wrapped__.__code__:
                kinds.add(f.f_locals["kind"])
            f = f.f_back
        calls.add((module, name, frozenset(kinds)))

    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(None)
    return calls


def _own(calls, allowed):
    """The recorded (module, function) pairs that are not shared and that
    ``allowed(module, function)`` rejects."""
    return {(m, f) for m, f, _ in calls
            if m not in SHARED_MODULES and (m, f) not in SHARED and not allowed(m, f)}


def test_generating_function_route_runs_only_its_own_constructors():
    # The kernels are read off e_l(t), so no combinat function runs: the
    # checks that read combinat's factorials (T4, C10) compare two builds.
    calls = _record(lambda: [family(kind, 6) for kind in FamilyKind])
    assert {f for m, f, _ in calls if m == "degenpoly.families"} >= GF_CONSTRUCTORS
    route = {("degenpoly.families", name) for name in GF_CONSTRUCTORS}
    assert _own(calls, lambda m, f: (m, f) in route) == set()
    assert not {(m, f) for m, f, _ in calls if m == "degenpoly.combinat"}


def test_classical_route_calls_no_generating_function_constructor():
    calls = _record(lambda: [classical_family(kind, 6) for kind in FamilyKind])
    names = {f for _, f, _ in calls}
    assert not names & (GF_CONSTRUCTORS | {"gen_falling_factorial", "stirling_table"})
    own = _own(calls, lambda m, f: m == "degenpoly.families" and f.startswith("classical_"))
    assert own == set()


@pytest.mark.parametrize("kind", TRIG_KINDS, ids=lambda kind: kind.value)
def test_closed_form_route_reaches_the_kernels_only_through_the_plain_kernel_family(kind):
    kernel = families._STRUCTURE[kind][0]
    calls = _record(lambda: family_closed(kind, 6))
    closed_form = {"family_closed", "trig_stirling_rows"}
    gf = {"family", "kernel_series", "deg_exp_series"} if kernel else set()
    assert _own(calls, lambda m, f: m == "degenpoly.combinat"
                or m == "degenpoly.families" and f in closed_form | gf) == set()
    # The theorem's inner factor is the plain kernel family; nothing else of
    # the generating-function route runs, and never the cos/sin series.
    inner = {families._KIND[kernel, None]} if kernel else set()
    for m, f, kinds in calls:
        if m == "degenpoly.families" and f in GF_CONSTRUCTORS:
            assert kinds == inner, (f, kinds)


def test_u_table_never_builds_the_degenerate_exponential():
    engine = IdentityEngine(6)
    calls = _record(lambda: engine._u_table)
    assert ("degenpoly.identities", "_u_table") in {(m, f) for m, f, _ in calls}
    assert _own(calls, lambda m, f: m == "degenpoly.combinat"
                or (m, f) == ("degenpoly.identities", "_u_table")) == set()

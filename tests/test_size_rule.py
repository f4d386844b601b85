"""One size rule: ``multipoly.as_size`` rejects a size past the 15-bit exponent
field, and every builder calls it before it does any ring work.

Every size a builder takes (an order, a table size, a degree, ``n_max``) ends
up as a polynomial degree, so a size of 2**15 or more can only overflow.  The
fixture below makes all ring work raise, so a builder that starts building
before it checks its size fails at once instead of running until the
overflow shows.
"""

import pytest

from degenpoly import combinat, egfseries, families, identities, multipoly
from degenpoly.combinat import (
    StirlingKind,
    StirlingTable,
    falling_factorial,
    gen_falling_factorial,
    stirling_table,
)
from degenpoly.egfseries import EgfSeries
from degenpoly.families import (
    FamilyKind,
    classical_family,
    complex_series,
    deg_cos_sin_series,
    deg_exp_series,
    family,
    family_closed,
    kernel_series,
    trig_stirling_rows,
)
from degenpoly.identities import IdentityEngine
from degenpoly.multipoly import MPoly, as_size

TOO_BIG = 2 ** 15
X = MPoly.variable("x")
TWO = MPoly.constant(2)
TRIG_KINDS = [kind for kind, (_, _, trig) in families._STRUCTURE.items() if trig]


@pytest.fixture
def no_ring_work(monkeypatch):
    """Every sum of products, and every polynomial that ``_make`` forms
    (constants and scalings included), raises AssertionError."""

    def refuse(*args):
        raise AssertionError("ring work before the size check")

    for module in (multipoly, egfseries, combinat, families, identities):
        monkeypatch.setattr(module, "sum_products", refuse)
    monkeypatch.setattr(multipoly, "_make", refuse)


def _cases():
    for kind in FamilyKind:
        yield pytest.param(family, (kind,), id=f"family-{kind.value}")
        yield pytest.param(classical_family, (kind,), id=f"classical_family-{kind.value}")
    for kind in TRIG_KINDS:
        yield pytest.param(family_closed, (kind,), id=f"family_closed-{kind.value}")
    for which in ("bernoulli", "euler"):
        yield pytest.param(kernel_series, (which,), id=f"kernel_series-{which}")
        yield pytest.param(complex_series, (which,), id=f"complex_series-{which}")
    yield pytest.param(deg_cos_sin_series, (), id="deg_cos_sin_series")
    yield pytest.param(deg_exp_series, (X,), id="deg_exp_series")
    for trig in ("cos", "sin"):
        yield pytest.param(trig_stirling_rows, (trig,), id=f"trig_stirling_rows-{trig}")
    for kind in StirlingKind:
        yield pytest.param(stirling_table, (kind,), id=f"stirling_table-{kind.value}")
        yield pytest.param(StirlingTable.build, (kind,), id=f"StirlingTable.build-{kind.value}")
    yield pytest.param(lambda n: EgfSeries.from_function(n, lambda k: MPoly.one()), (),
                       id="EgfSeries.from_function")
    yield pytest.param(lambda n: gen_falling_factorial(X, n), (), id="gen_falling_factorial")
    yield pytest.param(lambda n: falling_factorial(X, n), (), id="falling_factorial")
    yield pytest.param(lambda n: TWO ** n, (), id="constant-power")
    yield pytest.param(IdentityEngine, (), id="IdentityEngine")


@pytest.mark.parametrize("build, args", _cases())
def test_builders_reject_a_size_past_the_exponent_field_at_once(no_ring_work, build, args):
    with pytest.raises(ValueError, match=f"below {TOO_BIG}.*overflow"):
        build(*args, TOO_BIG)


@pytest.mark.parametrize("build, args",
                         [case for case in _cases() if case.id != "IdentityEngine"])
def test_builders_accept_the_last_size_below_the_bound(no_ring_work, build, args):
    # Only the engine builds past its argument; every other builder passes its
    # size gates with 2**15 - 1 and stops at the fixture's first ring work.
    try:
        build(*args, TOO_BIG - 1)
    except AssertionError as exc:
        assert str(exc) == "ring work before the size check"


def test_engine_rejects_the_last_size_because_it_builds_one_degree_higher(no_ring_work):
    # The checks read degree n_max + 1 (T9 reads n + 1), which must fit the field too.
    with pytest.raises(ValueError, match=f"n_max \\+ 1 must be below {TOO_BIG}, got {TOO_BIG}"):
        IdentityEngine(TOO_BIG - 1)


def test_the_last_size_below_the_bound_is_accepted():
    assert as_size(TOO_BIG - 1, "n") == TOO_BIG - 1
    assert IdentityEngine(TOO_BIG - 2).degree == TOO_BIG - 1


@pytest.mark.parametrize("value", [TOO_BIG, 40000])
def test_oversize_message_names_what_the_value_and_the_bound(value):
    with pytest.raises(ValueError) as exc:
        as_size(value, "the order")
    message = str(exc.value)
    assert message.startswith("the order ")
    for part in (str(value), "32768", "overflow"):
        assert part in message

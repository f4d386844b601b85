import sys

import pytest

from degenpoly.combinat import (
    StirlingKind,
    StirlingTable,
    falling_factorial,
    gen_falling_factorial,
    stirling_table,
)
from degenpoly.identities import IdentityEngine
from degenpoly.multipoly import MPoly

L = MPoly.variable("l")
X = MPoly.variable("x")


def test_falling_factorial_expansion():
    # x(x-1)(x-2) expanded by hand.
    assert falling_factorial(X, 3) == X ** 3 - (X * X).scale(3) + X.scale(2)
    assert falling_factorial(X, 0) == MPoly.one()
    assert falling_factorial(X, 1) == X


def test_gen_falling_factorial():
    assert gen_falling_factorial(X, 2) == X * X - L * X
    # (1)(1-l)(1-2l) = 1 - 3l + 2l^2 by hand.
    assert gen_falling_factorial(1, 3) == MPoly.one() - L.scale(3) + (L * L).scale(2)
    # l = 0 limit collapses to a plain power.
    assert gen_falling_factorial(X, 5).substitute("l", 0) == X ** 5


def test_rising_vs_falling_sign_relation():
    for n in range(7):
        rising = gen_falling_factorial(X, n, step=+1)
        assert rising == gen_falling_factorial(-X, n).scale((-1) ** n)


def _entry(kind, n, k):
    return stirling_table(kind, n).entry(n, k)


def test_stirling_first_values():
    assert _entry(StirlingKind.FIRST, 3, 2) == MPoly.constant(-3)
    assert _entry(StirlingKind.FIRST, 3, 1) == MPoly.constant(2)
    for n in range(6):
        assert _entry(StirlingKind.FIRST, n, n) == MPoly.one()


@pytest.mark.parametrize("n_max", [8, 20])
def test_stirling_first_reconstruction(n_max):
    # Row n recombines to the falling factorial exactly.
    table = stirling_table(StirlingKind.FIRST, n_max)
    for n in range(n_max + 1):
        total = MPoly.zero()
        for k in range(n + 1):
            total = total + table.entry(n, k) * X ** k
        assert total == falling_factorial(X, n)


@pytest.mark.parametrize("n_max", [8, 20])
def test_stirling_second_reconstruction(n_max):
    # x^n recombines over falling factorials exactly.
    table = stirling_table(StirlingKind.SECOND, n_max)
    for n in range(n_max + 1):
        total = MPoly.zero()
        for k in range(n + 1):
            total = total + table.entry(n, k) * falling_factorial(X, k)
        assert total == X ** n


def test_stirling_degenerate_second_rows_give_degenerate_falling_factorial():
    # U_k = sum_l S2_deg(k, l) (x)_l is (x)_{k,l}, the degenerate analogue of
    # sum_k S(n, k) (x)_k = x^n.  The engine builds U_k from the Stirling table
    # only; this compares it with the directly expanded product.  The engine
    # builds U_k to degree n_max + 1, so n_max 13 gives the 15 rows k = 0..14.
    table = IdentityEngine(13)._u_table
    assert len(table) == 15
    for k, u_k in enumerate(table):
        assert u_k == gen_falling_factorial(X, k)


@pytest.mark.parametrize("factorial, zero", [(gen_falling_factorial, MPoly.zero()),
                                              (falling_factorial, 0)])
def test_cold_factorial_of_high_degree_does_not_recurse_that_deep(factorial, zero):
    # Each degree extends the cached one below it; a cold call at degree 5000,
    # far past the recursion limit, builds the lower degrees without recursing
    # 5000 calls deep.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(min(limit, 1000))
    try:
        assert factorial(zero, 5000) == MPoly.zero()
    finally:
        sys.setrecursionlimit(limit)


def test_the_three_factor_steps_of_one_u_share_no_entries():
    # Each step caches its own products of u; asking all three in interleaved,
    # non-monotone degrees must still give each its own product, as a plain
    # product loop builds it.
    u = MPoly.variable("y") - 2
    ladders = [
        (lambda n: falling_factorial(u, n), lambda j: u - j),
        (lambda n: gen_falling_factorial(u, n), lambda j: u - L.scale(j)),
        (lambda n: gen_falling_factorial(u, n, step=+1), lambda j: u + L.scale(j)),
    ]
    for n in (5, 2, 7, 0, 6):
        for factorial, factor in ladders:
            product = MPoly.one()
            for j in range(n):
                product = product * factor(j)
            assert factorial(n) == product


def test_stirling_second_degenerate_values():
    deg = StirlingKind.DEGENERATE_SECOND
    assert _entry(deg, 2, 1) == MPoly.one() - L
    for n in range(6):
        assert _entry(deg, n, n) == MPoly.one()
    # Classical value at l = 0: x^3 = x + 3x(x-1) + x(x-1)(x-2).
    assert _entry(deg, 3, 2).substitute("l", 0) == MPoly.constant(3)


@pytest.mark.parametrize("n_max", [8, 20])
def test_degenerate_second_limit_is_classical(n_max):
    deg = stirling_table(StirlingKind.DEGENERATE_SECOND, n_max)
    cls = stirling_table(StirlingKind.SECOND, n_max)
    for n in range(n_max + 1):
        for k in range(n + 1):
            assert deg.entry(n, k).substitute("l", 0) == cls.entry(n, k)


# The triangular recurrences T(n+1, k) = T(n, k-1) + w(n, k) T(n, k), T(0, 0) = 1,
# with the weight w of each kind: -n for the first kind, k for the second and
# k - n*l for the degenerate second kind.  They share no code with combinat.
RECURRENCE_WEIGHTS = {
    StirlingKind.FIRST: lambda n, k: MPoly.constant(-n),
    StirlingKind.SECOND: lambda n, k: MPoly.constant(k),
    StirlingKind.DEGENERATE_SECOND: lambda n, k: MPoly.constant(k) - L.scale(n),
}


@pytest.mark.parametrize("kind", list(StirlingKind), ids=lambda kind: kind.value)
def test_tables_match_their_recurrences(kind):
    weight, n_max = RECURRENCE_WEIGHTS[kind], 20
    table = stirling_table(kind, n_max)
    row = [MPoly.one()]
    for n in range(n_max + 1):
        assert [table.entry(n, k) for k in range(n + 1)] == row, n
        prev = row + [MPoly.zero()]
        row = [(prev[k - 1] if k else MPoly.zero()) + weight(n, k) * prev[k]
               for k in range(n + 2)]


def test_table_range_checks():
    table = stirling_table(StirlingKind.FIRST, 4)
    with pytest.raises(IndexError):
        table.entry(5, 0)
    with pytest.raises(IndexError):
        table.entry(3, 4)
    with pytest.raises(IndexError):
        table.entry(-1, 0)
    # An index is an int, as in EgfSeries[n]: entry(True, True) is not S1(1, 1).
    for n, k in ((True, True), (1, True), (1.0, 1), (1, 1.0)):
        with pytest.raises(TypeError, match="must be an int"):
            table.entry(n, k)
    # The kind is a StirlingKind, never its string value; n_max is an int, not
    # negative and not a bool.
    with pytest.raises(ValueError, match="unknown kind"):
        StirlingTable.build("first", 4)
    with pytest.raises(ValueError, match="non-negative"):
        StirlingTable.build(StirlingKind.FIRST, -1)
    with pytest.raises(TypeError):
        StirlingTable.build(StirlingKind.FIRST, True)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        falling_factorial(X, -1)
    with pytest.raises(ValueError):
        gen_falling_factorial(X, -2)
    with pytest.raises(ValueError):
        gen_falling_factorial(X, 2, step=2)


@pytest.mark.parametrize("factorial", [falling_factorial, gen_falling_factorial])
@pytest.mark.parametrize("bad", [1.0, True], ids=repr)
def test_cached_int_does_not_admit_an_equal_float_or_bool(factorial, bad):
    # 1, 1.0 and True are one dict key; the caches must still tell them apart,
    # and a degree or step of 1.0 or True must not run as 1.
    factorial(1, 3)
    with pytest.raises(TypeError):
        factorial(bad, 3)
    with pytest.raises(TypeError):
        factorial(X, bad)
    with pytest.raises(TypeError):
        gen_falling_factorial(X, 3, step=bad)

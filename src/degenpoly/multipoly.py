"""Sparse multivariate polynomials over the Gaussian rationals.

The variable set is fixed: (l, x, y, r), where "l" is the deformation
parameter.  A polynomial maps packed monomial keys to nonzero integer
numerators over one positive common denominator.  After every operation the
gcd of the denominator and all numerators is 1, so the form is canonical and
equality and hashing compare plain dicts and ints.

Key layout (Kronecker substitution): the exponents of l, x, y and r fill
16-bit fields from the low end and bit 64 is the exponent of i, so a
monomial product is one integer addition, with i^2 = -1 reduced inside the
multiply.  The top bit of each field is a guard: exponents below 2**15 add
without carrying, so an overflowing product is caught exactly (ValueError).
Field j of the OR of a set of keys bounds every exponent in field j, so one
``reduce(or_, keys)`` gives all the bounds: the overflow check is one OR of
each result's keys before it is canonicalized, and ``evaluate`` sizes its power
tables from the OR of the polynomial's keys.

A sum of products ``sum c*a*b`` is one ``sum_products`` call: every term pair
goes into one dict of numerators, canonicalized once.  ``+``, ``-`` and ``*``
are ``sum_products`` calls too (a sum pairs each operand with 1).

``i`` is a ring element, ``MPoly.I``: a complex scalar is a degree-0
polynomial such as ``re + im * MPoly.I``.  Scalars entering the ring
(``MPoly({exps: c})``, ``constant``, ``scale`` and the bindings of
``evaluate``) are ``int`` or ``Fraction``; anything else, bool and float
included, raises ``TypeError``.  Sizes (degrees, orders, exponents, table
sizes) pass ``as_size``, the one size rule: a bool or other non-int raises
``TypeError``, and an int outside 0..2**15-1 ``ValueError``.  A size ends up
as a degree, so one past the exponent field is rejected before any build,
even where the result would be a constant (``c ** 2**15``).  What comes out
is plain ``Fraction``s, with ``i`` kept as an exponent: the ``terms`` view
(built on each call) maps ``(el, ex, ey, er, ei)`` to a ``Fraction``, and
``evaluate`` takes a polynomial without ``i`` (``split_real_imag`` first) and
returns one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Dict, Iterable, Mapping, Tuple, Union

VARIABLES = ("l", "x", "y", "r")

Exponents = Tuple[int, int, int, int]
Monomial = Tuple[int, int, int, int, int]  # Exponents, then the exponent of i
Scalar = Union[int, Fraction]
PolyInput = Union["MPoly", Scalar]

_W = 16  # bits per exponent field, guard bit included
_LIMIT = 1 << (_W - 1)  # exponents lie in 0.._LIMIT-1
_FIELD = (1 << _W) - 1
_GUARDS = sum(_LIMIT << (_W * j) for j in range(4))
_I = 1 << (4 * _W)  # the exponent bit of i


def as_rat(value: Scalar) -> Fraction:
    """An int or Fraction as a canonical Fraction; anything else is a TypeError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")
    return Fraction(value)


def _as_int(value: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    return value


def as_size(value: int, what: str) -> int:
    """A degree, order or exponent: an int in 0.._LIMIT-1.  A bool or any other
    non-int raises TypeError, and a negative int or one of _LIMIT or more
    ValueError, each naming ``what``."""
    if _as_int(value, what) < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    if value >= _LIMIT:
        raise ValueError(f"{what} must be below {_LIMIT}, got {value}: "
                         "a degree that large would overflow its exponent field")
    return value


def as_index(value: int, top: int, what: str) -> int:
    """An index into entries 0..top.  A bool or any other non-int raises
    TypeError and an int outside the range IndexError, each naming ``what``."""
    if not 0 <= _as_int(value, what) <= top:
        raise IndexError(f"{what} {value} out of range 0..{top}")
    return value


def _shift(name: str) -> int:
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
    return _W * VARIABLES.index(name)


def _pack(exps: Exponents) -> int:
    if not (isinstance(exps, (tuple, list)) and len(exps) == 4
            and all(type(e) is int and 0 <= e < _LIMIT for e in exps)):
        raise ValueError(f"exponent vector must be 4 ints in 0..{_LIMIT - 1}, got {exps!r}")
    el, ex, ey, er = exps
    return el | ex << _W | ey << 2 * _W | er << 3 * _W


def _unpack(key: int) -> Monomial:
    return (key & _FIELD, key >> _W & _FIELD, key >> 2 * _W & _FIELD, key >> 3 * _W & _FIELD,
            key >> 4 * _W)


def _wrap(nums: Dict[int, int], den: int) -> "MPoly":
    p = object.__new__(MPoly)
    p._num, p._den = nums, den
    return p


def _make(nums: Dict[int, int], den: int) -> "MPoly":
    """nums/den as an MPoly, with zero terms dropped and the content divided out."""
    if 0 in nums.values():
        nums = {k: c for k, c in nums.items() if c}
    if den != 1 and (g := gcd(den, *nums.values())) != 1:
        nums = {k: c // g for k, c in nums.items()}
        den //= g
    return _wrap(nums, den)


def _accumulate(out: Dict[int, int], a: Dict[int, int], b: Dict[int, int], m: int) -> None:
    """Add m times the product of the numerator dicts a and b, both non-empty,
    into ``out``; the caller, ``sum_products``, skips zero polynomials and
    checks ``out`` for overflow before ``_make``."""
    outer, inner = (a, b) if len(a) <= len(b) else (b, a)
    plain = inner.items()
    # Partners of an outer term with i: i*i = -1 clears the i bit and flips the sign.
    turned = ([(k - 2 * _I, -c) if k >= _I else (k, c) for k, c in plain]
              if max(outer) >= _I else plain)
    get = out.get
    for k1, c1 in outer.items():
        c1 *= m
        for k2, c2 in turned if k1 >= _I else plain:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2


def sum_products(items: Iterable[Tuple[Scalar, "MPoly", "MPoly"]]) -> "MPoly":
    """sum c*a*b over (c, a, b) triples, in one dict of numerators over
    D = lcm(a._den * b._den * c.denominator), canonicalized once: the numerators
    of each a*b are multiplied by c.numerator * D // that term's denominator.
    A triple with a zero polynomial adds nothing; its scalar is still checked."""
    terms = []
    for c, a, b in items:
        if type(c) is not int:
            c = as_rat(c)
        if a._num and b._num:
            terms.append((c.numerator, a._den * b._den * c.denominator, a._num, b._num))
    den = lcm(*(d for _, d, _, _ in terms))
    out: Dict[int, int] = {}
    for p, d, a, b in terms:
        _accumulate(out, a, b, p * (den // d))
    # Factor exponents lie below 2**15, so field sums never carry into the next
    # field, and a product overflows exactly when its key sets a guard bit.  No
    # key has left ``out`` yet (zero sums included), so one OR sees every product.
    if reduce(or_, out, 0) & _GUARDS:
        raise ValueError(f"exponent overflow: a product has an exponent >= {_LIMIT}")
    return _make(out, den)


class MPoly:
    """Immutable sparse polynomial in Q(i)[l, x, y, r]."""

    __slots__ = ("_num", "_den")

    def __new__(cls, terms: Mapping[Exponents, Scalar] | None = None):
        coeffs = [(_pack(exps), as_rat(c)) for exps, c in (terms or {}).items()]
        den = lcm(*(q.denominator for _, q in coeffs))
        return _make({key: q.numerator * (den // q.denominator) for key, q in coeffs}, den)

    @classmethod
    def zero(cls) -> "MPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "MPoly":
        return _ONE

    @classmethod
    def constant(cls, value: Scalar) -> "MPoly":
        return _ONE.scale(value)

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        return _wrap({1 << _shift(name): 1}, 1)

    @staticmethod
    def coerce(value: PolyInput) -> "MPoly":
        return value if isinstance(value, MPoly) else MPoly.constant(value)

    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """{(el, ex, ey, er, ei): Fraction}, built on each call; ei is 0 or 1."""
        den = self._den
        return {_unpack(k): Fraction(c, den) for k, c in self._num.items()}

    def __bool__(self) -> bool:
        return bool(self._num)

    def __add__(self, other: PolyInput) -> "MPoly":
        return sum_products(((1, self, _ONE), (1, MPoly.coerce(other), _ONE)))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _wrap({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other: PolyInput) -> "MPoly":
        return sum_products(((1, self, _ONE), (-1, MPoly.coerce(other), _ONE)))

    def __rsub__(self, other: PolyInput) -> "MPoly":
        return MPoly.coerce(other) - self

    def __mul__(self, other: PolyInput) -> "MPoly":
        return sum_products(((1, self, MPoly.coerce(other)),))

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> "MPoly":
        if type(value) is not int:
            value = as_rat(value)
        p = value.numerator
        return _make({k: c * p for k, c in self._num.items()}, self._den * value.denominator)

    def __pow__(self, n: int) -> "MPoly":
        as_size(n, "the int exponent of a polynomial power")
        result, base = _ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, var: str, replacement: PolyInput) -> "MPoly":
        """Image under the ring map sending ``var`` to ``replacement``.

        Three maps need no products: ``var -> 0`` keeps the terms free of
        ``var``, ``var -> -var`` negates the terms of odd degree in ``var``,
        and ``var -> var`` is the identity."""
        shift = _shift(var)
        replacement = MPoly.coerce(replacement)
        rep, unit = replacement._num, 1 << shift
        if not rep:
            field = _FIELD << shift
            return _make({k: c for k, c in self._num.items() if not k & field}, self._den)
        if replacement._den == 1 and len(rep) == 1 and rep.get(unit) in (1, -1):
            if rep[unit] == 1:
                return self
            # The low bit of the field is the parity of the exponent.
            return _wrap({k: -c if k & unit else c for k, c in self._num.items()}, self._den)
        groups: Dict[int, Dict[int, int]] = {}
        for k, c in self._num.items():
            e = k >> shift & _FIELD
            groups.setdefault(e, {})[k - (e << shift)] = c
        terms, power, done = [], _ONE, 0
        for e in sorted(groups):
            for _ in range(e - done):
                power = power * replacement
            done = e
            terms.append((1, _wrap(groups[e], self._den), power))
        return sum_products(terms)

    def split_real_imag(self) -> Tuple["MPoly", "MPoly"]:
        """Return (p_re, p_im) with p = p_re + i*p_im, both real-coefficient."""
        items = self._num.items()
        return (_make({k: c for k, c in items if k < _I}, self._den),
                _make({k - _I: c for k, c in items if k >= _I}, self._den))

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """Exact evaluation of a polynomial without i at rational values; every
        variable occurring in self must be bound.  For a complex coefficient or
        point, substitute ``re + im * MPoly.I`` and evaluate both parts of
        ``split_real_imag``."""
        values = {_shift(name): as_rat(value) for name, value in bindings.items()}
        nums, den, tables = self._num, self._den, []
        # Field j of the OR of the keys bounds every exponent in field j.
        ors = reduce(or_, nums, 0)
        if ors >= _I:
            raise ValueError("cannot evaluate a polynomial with i; "
                             "evaluate the parts of split_real_imag")
        for shift in range(0, 4 * _W, _W):
            top = ors >> shift & _FIELD
            if top and shift not in values:
                raise ValueError(f"unbound variable {VARIABLES[shift // _W]!r} in evaluation")
            if top:
                a, q = values[shift].numerator, values[shift].denominator
                # table[e] = a^e * q^(top - e) is value^e over the denominator q^top.
                table = [q ** top]
                for _ in range(top):
                    table.append(table[-1] // q * a)
                tables.append((shift, table))
                den *= table[0]
        total = 0
        for k, c in nums.items():
            for shift, table in tables:
                c *= table[k >> shift & _FIELD]
            total += c
        return Fraction(total, den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def to_text(self) -> str:
        """Canonical text form, e.g. "x^2 - 1/2*l*x - y^2"."""
        # The real and imaginary numerators of each monomial, side by side.
        parts: Dict[Exponents, list] = {}
        for k, c in self._num.items():
            parts.setdefault(_unpack(k)[:4], [0, 0])[k >> 4 * _W] = c
        den = self._den
        out = []
        # Graded order, ties broken x-major so that the text reads naturally.
        for exps in sorted(parts, key=lambda e: (sum(e), e[1], e[0], e[2], e[3]), reverse=True):
            re, im = parts[exps]
            mono = "*".join(
                name if power == 1 else f"{name}^{power}"
                for name, power in zip(VARIABLES, exps)
                if power
            )
            if not im:
                mag = str(Fraction(abs(re), den))
                body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
                sign = "-" if re < 0 else "+"
            else:
                coeff = f"{Fraction(re, den)}{'+' if im > 0 else '-'}{Fraction(abs(im), den)}*i"
                sign, body = "+", f"({coeff})" + (f"*{mono}" if mono else "")
            out.append(f" {sign} {body}" if out else ("-" if sign == "-" else "") + body)
        return "".join(out) or "0"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MPoly({self.to_text()!r})"


_ZERO = _wrap({}, 1)
_ONE = _wrap({0: 1}, 1)
MPoly.I = _wrap({_I: 1}, 1)

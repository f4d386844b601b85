"""Sparse multivariate polynomials over the Gaussian rationals, and the scalar
values read out of them.

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

``i`` is a ring element, ``MPoly.I``: a complex scalar is a degree-0
polynomial such as ``re + im * MPoly.I``.  Scalars entering the ring
(``MPoly({exps: c})``, ``constant``, ``scale`` and the bindings of
``evaluate``) are ``int`` or ``Fraction``; anything else, bool and float
included, raises ``TypeError``.  ``GaussRat`` is only the value that comes
out: ``evaluate`` returns one and the ``terms`` view (built on each call)
maps monomials to them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Dict, Mapping, Tuple, Union

VARIABLES = ("l", "x", "y", "r")

Exponents = Tuple[int, int, int, int]
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


def format_rat(q: Fraction) -> str:
    """Serialize as "num/den", omitting the denominator when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _gauss(re: Fraction, im: Fraction) -> "GaussRat":
    """A GaussRat from two Fractions, without the checks of the constructor."""
    z = object.__new__(GaussRat)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


class GaussRat:
    """An immutable Gaussian rational re + im*i: a value read out of a polynomial."""

    __slots__ = ("re", "im")

    def __init__(self, re: Scalar, im: Scalar = 0):
        object.__setattr__(self, "re", as_rat(re))
        object.__setattr__(self, "im", as_rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    __delattr__ = __setattr__

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other: object) -> bool:
        if type(other) is not GaussRat:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # Kept for perfbench, whose numeric.mul_ns.* metrics time this product.
    def __mul__(self, other: "GaussRat") -> "GaussRat":
        if type(other) is not GaussRat:
            return NotImplemented
        return _gauss(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __str__(self) -> str:
        """Serialize as "re+im*i" with "num/den" components; just "re" when real."""
        if not self.im:
            return format_rat(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{format_rat(self.re)}{sign}{format_rat(abs(self.im))}*i"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.re!r}, {self.im!r})"


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


def _unpack(key: int) -> Exponents:
    return (key & _FIELD, key >> _W & _FIELD, key >> 2 * _W & _FIELD, key >> 3 * _W & _FIELD)


def _wrap(nums: Dict[int, int], den: int) -> "MPoly":
    p = object.__new__(MPoly)
    p._num, p._den, p._hash = nums, den, None
    return p


def _make(nums: Dict[int, int], den: int) -> "MPoly":
    """nums/den as an MPoly, with zero terms dropped and the content divided out."""
    if 0 in nums.values():
        nums = {k: c for k, c in nums.items() if c}
    if den != 1 and (g := gcd(den, *nums.values())) != 1:
        nums = {k: c // g for k, c in nums.items()}
        den //= g
    return _wrap(nums, den)


def _product(a: "MPoly", b: "MPoly") -> "MPoly":
    outer, inner = a._num, b._num
    if len(outer) > len(inner):
        outer, inner = inner, outer
    if not outer:
        return _ZERO
    # Field j of an OR of keys bounds the exponents in field j, so a product
    # can overflow only if the two ORs' fields add up to a guard bit.
    bound = reduce(or_, outer) + reduce(or_, inner)
    plain = list(inner.items())
    # Partners of an outer term with i: i*i = -1 clears the i bit and flips the sign.
    turned = [(k - 2 * _I, -c) if k >= _I else (k, c) for k, c in plain]
    out: Dict[int, int] = {}
    get = out.get
    for k1, c1 in outer.items():
        for k2, c2 in turned if k1 >= _I else plain:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    if bound & _GUARDS and any(k & _GUARDS for k in out):
        raise ValueError(f"exponent overflow: a product has an exponent >= {_LIMIT}")
    return _make(out, a._den * b._den)


class MPoly:
    """Immutable sparse polynomial in Q(i)[l, x, y, r]."""

    __slots__ = ("_num", "_den", "_hash")

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
        return _make({0: value}, 1) if type(value) is int else cls({(0, 0, 0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        return _wrap({1 << _shift(name): 1}, 1)

    @staticmethod
    def coerce(value: PolyInput) -> "MPoly":
        return value if isinstance(value, MPoly) else MPoly.constant(value)

    @property
    def terms(self) -> Dict[Exponents, GaussRat]:
        """{(el, ex, ey, er): GaussRat}, built on each call; i^0 and i^1 keys merge."""
        parts: Dict[int, list] = {}
        for k, c in self._num.items():
            parts.setdefault(k & (_I - 1), [0, 0])[k >> 4 * _W] = c
        den = self._den
        return {_unpack(m): _gauss(Fraction(re, den), Fraction(im, den))
                for m, (re, im) in parts.items()}

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def total_degree(self) -> int | None:
        """Max summed exponent vector, or None for the zero polynomial."""
        return max((sum(_unpack(k)) for k in self._num), default=None)

    def coefficient(self, exps: Exponents) -> "MPoly":
        """The coefficient of one monomial, as a degree-0 polynomial."""
        key = _pack(exps)
        return _make({k - key: self._num[k] for k in (key, key | _I) if k in self._num},
                     self._den)

    def __add__(self, other: PolyInput) -> "MPoly":
        big, small = self, MPoly.coerce(other)
        if len(big._num) < len(small._num):
            big, small = small, big
        g = gcd(big._den, small._den)
        mb, ms = small._den // g, big._den // g
        out = dict(big._num) if mb == 1 else {k: c * mb for k, c in big._num.items()}
        get = out.get
        for k, c in small._num.items():
            out[k] = get(k, 0) + c * ms
        return _make(out, big._den * mb)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _wrap({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other: PolyInput) -> "MPoly":
        return self + (-MPoly.coerce(other))

    def __rsub__(self, other: PolyInput) -> "MPoly":
        return MPoly.coerce(other) - self

    def __mul__(self, other: PolyInput) -> "MPoly":
        return _product(self, MPoly.coerce(other))

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> "MPoly":
        if type(value) is not int:
            value = as_rat(value)
        p = value.numerator
        return _make({k: c * p for k, c in self._num.items()}, self._den * value.denominator)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = _ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, var: str, replacement: PolyInput) -> "MPoly":
        """Image under the ring map sending ``var`` to ``replacement``."""
        shift = _shift(var)
        replacement = MPoly.coerce(replacement)
        groups: Dict[int, Dict[int, int]] = {}
        for k, c in self._num.items():
            e = k >> shift & _FIELD
            groups.setdefault(e, {})[k - (e << shift)] = c
        result, power, done = _ZERO, _ONE, 0
        for e in sorted(groups):
            for _ in range(e - done):
                power = power * replacement
            done = e
            result = result + _make(groups[e], self._den) * power
        return result

    def split_real_imag(self) -> Tuple["MPoly", "MPoly"]:
        """Return (p_re, p_im) with p = p_re + i*p_im, both real-coefficient."""
        items = self._num.items()
        return (_make({k: c for k, c in items if k < _I}, self._den),
                _make({k - _I: c for k, c in items if k >= _I}, self._den))

    def evaluate(self, bindings: Mapping[str, Scalar]) -> GaussRat:
        """Exact evaluation at rational values; every variable occurring in self
        must be bound.  For a complex point, substitute ``re + im * MPoly.I`` first."""
        values = {_shift(name): as_rat(value) for name, value in bindings.items()}
        nums, den, tables = self._num, self._den, []
        for shift in range(0, 4 * _W, _W):
            top = max((k >> shift & _FIELD for k in nums), default=0)
            if top and shift not in values:
                raise ValueError(f"unbound variable {VARIABLES[shift // _W]!r} in evaluation")
            if top:
                a, q = values[shift].numerator, values[shift].denominator
                # a^e * q^(top - e) is value^e over the denominator q^top.
                tables.append((shift, [a ** e * q ** (top - e) for e in range(top + 1)]))
                den *= q ** top
        sums = [0, 0]  # real and imaginary numerators
        for k, c in nums.items():
            for shift, table in tables:
                c *= table[k >> shift & _FIELD]
            sums[k >> 4 * _W] += c
        return _gauss(Fraction(sums[0], den), Fraction(sums[1], den))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._num.items())))
        return self._hash

    def to_text(self) -> str:
        """Canonical text form, e.g. "x^2 - 1/2*l*x - y^2"."""
        terms = self.terms
        out = []
        # Graded order, ties broken x-major so that the text reads naturally.
        for exps in sorted(terms, key=lambda e: (sum(e), e[1], e[0], e[2], e[3]), reverse=True):
            coeff = terms[exps]
            mono = "*".join(
                name if power == 1 else f"{name}^{power}"
                for name, power in zip(VARIABLES, exps)
                if power
            )
            if not coeff.im:
                mag = format_rat(abs(coeff.re))
                body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
                sign = "-" if coeff.re < 0 else "+"
            else:
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

"""Exact arithmetic in two complete discretely valued fields.

The built-in instances are the rationals with the p-adic valuation ("Qp")
and rational functions over F_p in one variable T with the order of
vanishing at T = 0 ("FpT").  Elements are immutable, normalized at
construction, and expose their valuation and, when integral, their image
in the residue field F_p.

A Q_p element is a pair of ints in lowest terms, the denominator
positive; `.value` gives the Fraction.  An F_p(T) element is a pair of
little-endian coefficient tuples in lowest terms, the denominator 1 at its
lowest nonzero degree.  Both combine as Fraction combines its pairs, with a
gcd only where a factor can cancel.  Against a power T^k the gcd is
T^min(ord, k) and the exact quotient a shift, with no Euclid's algorithm;
a sum with a 0 operand and a product with a 1 operand return the other
operand.  Each FieldSpec builds 0 and 1 once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DivisionByZeroError, DomainError, InputError

#: Valuation of the zero element.
INF = math.inf

Coercible = Union[int, Fraction, "FieldElement"]


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Miller-Rabin on the prime bases up to 41, which decides exactly below
    3.3 * 10**24; InputError from there on."""
    if p >= _PRIME_LIMIT:
        raise InputError(f"prime out of range: {p} >= {_PRIME_LIMIT}")
    if p in _PRIME_BASES:
        return True
    if p < 2 or p % 2 == 0:
        return False
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _PRIME_BASES:
        y = pow(b, d, p)
        if y == 1:
            continue
        for _ in range(r):
            if y == p - 1:
                break
            y = y * y % p
        else:
            return False
    return True


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer; InputError if n is 0 or p is below 2."""
    if n == 0 or p < 2:
        raise InputError(f"valuation of {n} at {p} is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ----------------------------------------------------------------------
# dense little-endian coefficient arithmetic for F_p[T]

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _pneg(a, p):
    return tuple((-c) % p for c in a)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    qlen = max(len(a) - len(b) + 1, 0)
    q = [0] * qlen
    inv_lead = pow(b[-1], -1, p)
    for k in range(qlen - 1, -1, -1):
        coeff = (rem[k + len(b) - 1] * inv_lead) % p
        if coeff:
            q[k] = coeff
            for j, bj in enumerate(b):
                rem[k + j] = (rem[k + j] - coeff * bj) % p
    return _trim(q), _trim(rem)


def _is_tpower(a):
    """Is a the monomial T^k, for some k >= 0?"""
    return a and a[-1] == 1 and a.count(0) == len(a) - 1


def _pgcd(a, b, p):
    """The gcd scaled so that its lowest nonzero coefficient is 1; dividing by
    it keeps the lowest coefficient of a normalised denominator at 1.
    Against T^k it is T^min(ord, k), with no division."""
    if _is_tpower(b):
        a, b = b, a
    if _is_tpower(a):
        k = _pord(b)
        return a if k is None or k >= len(a) - 1 else (0,) * k + (1,)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        a = _pscale(a, pow(a[_pord(a)], -1, p), p)
    return a


def _pquo(a, b, p):
    """The exact quotient a / b; by T^k it is a shift."""
    return a[len(b) - 1:] if _is_tpower(b) else _pdivmod(a, b, p)[0]


def _normalised(num, den, p):
    """(num, den) scaled so that the lowest nonzero coefficient of den is 1."""
    unit = pow(den[_pord(den)], -1, p)
    return (num, den) if unit == 1 else (_pscale(num, unit, p), _pscale(den, unit, p))


def _pord(a):
    """Index of the lowest nonzero coefficient, i.e. the order of vanishing at 0."""
    for i, c in enumerate(a):
        if c:
            return i
    return None


def _pscale(a, s, p):
    return tuple((c * s) % p for c in a)


def _exact(value, read, what: str):
    """read(value), refusing a float, whose binary value is not what was
    meant, and an int read that would truncate a rational."""
    if isinstance(value, float):
        raise InputError(f"a float {what} is not exact")
    out = read(value)
    if read is int and not isinstance(value, str) and out != value:
        raise InputError(f"{what} {value} is not an integer")
    return out


class _Frozen:
    """Refuses assignment and deletion, as a frozen dataclass does."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class FieldSpec(_Frozen):
    """A discretely valued field: kind "Qp" or "FpT", residue characteristic p.
    Immutable, equal and hashed by (kind, p)."""

    def __init__(self, kind: str, p: int):
        if kind not in ("Qp", "FpT"):
            raise InputError(f"unsupported field kind: {kind!r}")
        if not is_prime(p):
            raise InputError(f"residue characteristic must be prime, got {p}")
        self.__dict__.update(kind=kind, p=p)
        self.__dict__.update(_zero=self.element(0), _one=self.element(1))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.p) == (other.kind, other.p)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"{type(self).__name__}(kind={self.kind!r}, p={self.p!r})"

    def element(self, value: Coercible) -> "FieldElement":
        """Coerce an int, a Fraction, or an element of the same field."""
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise InputError("element belongs to a different field")
            return value
        if not isinstance(value, (int, Fraction)):
            if isinstance(value, float):
                raise InputError("a float field element is not exact")
            value = Fraction(value)
        if self.kind == "Qp":
            return QpElement(self, value.numerator, value.denominator)
        num = value.numerator % self.p
        den = value.denominator % self.p
        if den == 0:
            raise DivisionByZeroError(
                f"denominator of {value} vanishes modulo {self.p}")
        c = (num * pow(den, -1, self.p)) % self.p
        return FpTElement(self, (c,) if c else (), (1,))

    def polynomial(self, coeffs) -> "FieldElement":
        """Polynomial in T; coeffs is a low-to-high sequence or a {degree: coeff} map."""
        if self.kind != "FpT":
            raise DomainError("polynomials only exist over the rational function field")
        if isinstance(coeffs, dict):
            degrees = [_exact(d, int, "degree") for d in coeffs]
            if any(d < 0 for d in degrees):
                raise InputError(f"negative degree {min(degrees)} in a polynomial")
            dense = [0] * (max(degrees, default=-1) + 1)
            for d, c in zip(degrees, coeffs.values()):
                dense[d] = _exact(c, int, "coefficient") % self.p
        else:
            dense = [_exact(c, int, "coefficient") % self.p for c in coeffs]
        return FpTElement(self, _trim(dense), (1,))

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def uniformizer(self) -> "FieldElement":
        """The canonical valuation-one element: p, or the variable T."""
        if self.kind == "Qp":
            return QpElement(self, self.p, 1)
        return FpTElement(self, (0, 1), (1,))

    def label(self) -> str:
        return f"Q_{self.p}" if self.kind == "Qp" else f"F_{self.p}(T)"


class FieldElement:
    """Immutable element of a discretely valued field."""

    __slots__ = ("spec",)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise InputError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.element(other)
        return None

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inv()

    def __pow__(self, k: int):
        """Square and multiply."""
        if not isinstance(k, int):
            return NotImplemented
        base, k = (self, k) if k >= 0 else (self.inv(), -k)
        out = self.spec.one()
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # num is an int or a coefficient tuple, falsy exactly at zero
    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def is_integral(self) -> bool:
        return self.valuation() >= 0


class QpElement(FieldElement):
    """A rational number num/den, in lowest terms with den > 0, viewed inside
    the p-adic field."""

    __slots__ = ("num", "den", "_val")

    def __init__(self, spec: FieldSpec, num: int, den: int):
        self.spec = spec
        self.num = num
        self.den = den
        self._val = None

    value = property(lambda self: Fraction(self.num, self.den), doc="num/den as a Fraction")

    def valuation(self):
        if self._val is None:
            if not self.num:
                self._val = INF
            else:
                p = self.spec.p
                self._val = int_valuation(self.num, p) - int_valuation(self.den, p)
        return self._val

    def residue(self) -> int:
        v = self.valuation()
        if v != INF and v < 0:
            raise DomainError(f"residue of non-integral element {self!r}")
        if v == INF or v > 0:
            return 0
        p = self.spec.p
        return (self.num * pow(self.den, -1, p)) % p

    def inv(self):
        if not self.num:
            raise DivisionByZeroError("inverse of zero")
        if self.num < 0:
            return QpElement(self.spec, -self.den, -self.num)
        return QpElement(self.spec, self.den, self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return self if not o.num else o
        # as Fraction._add: a common factor of t and s * db divides g
        na, da, nb, db = self.num, self.den, o.num, o.den
        g = math.gcd(da, db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = math.gcd(t, g)
        return QpElement(self.spec, t // g2, s * (db // g2))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        na, da, nb, db = self.num, self.den, o.num, o.den
        if na == da or nb == db:  # a reduced pair is 1 exactly when num == den
            return o if na == da else self
        # as Fraction._mul: cancel across, and the products are coprime
        g1 = math.gcd(na, db)
        g2 = math.gcd(nb, da)
        return QpElement(self.spec, (na // g1) * (nb // g2), (da // g2) * (db // g1))

    def __neg__(self):
        return QpElement(self.spec, -self.num, self.den)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** -k
        return QpElement(self.spec, self.num ** k, self.den ** k)

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.spec, self.value))

    def __repr__(self):
        return f"{self.value}"


class FpTElement(FieldElement):
    """A reduced fraction of polynomials over F_p in the variable T."""

    __slots__ = ("num", "den", "_val")

    def __init__(self, spec: FieldSpec, num, den):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise DivisionByZeroError("zero denominator")
        p = spec.p
        if not num:
            den = (1,)
        elif den != (1,):
            g = _pgcd(num, den, p)
            num, den = _normalised(_pquo(num, g, p), _pquo(den, g, p), p)
        self.spec, self.num, self.den, self._val = spec, num, den, None

    def valuation(self):
        if self._val is None:
            if not self.num:
                self._val = INF
            else:
                self._val = _pord(self.num) - _pord(self.den)
        return self._val

    def residue(self) -> int:
        v = self.valuation()
        if v != INF and v < 0:
            raise DomainError(f"residue of non-integral element {self!r}")
        if v == INF or v > 0:
            return 0
        p = self.spec.p
        return (self.num[0] * pow(self.den[0], -1, p)) % p

    @classmethod
    def _reduced(cls, spec, num, den):
        """An element from a pair already in lowest terms with den normalised."""
        e = object.__new__(cls)
        e.spec, e.num, e.den, e._val = spec, num, den, None
        return e

    def inv(self):
        if not self.num:
            raise DivisionByZeroError("inverse of zero")
        return FpTElement._reduced(self.spec, *_normalised(self.den, self.num, self.spec.p))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return self if not o.num else o
        # as Fraction._add: a common factor of t and s * db divides g, so
        # there is no second gcd when g is 1
        p = self.spec.p
        na, da, nb, db = self.num, self.den, o.num, o.den
        g = (1,) if da == (1,) or db == (1,) else _pgcd(da, db, p)
        s = _pquo(da, g, p)
        t = _padd(_pmul(na, _pquo(db, g, p), p), _pmul(nb, s, p), p)
        g2 = g if g == (1,) else _pgcd(t, g, p)
        return FpTElement._reduced(self.spec, _pquo(t, g2, p),
                                   _pmul(s, _pquo(db, g2, p), p))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        na, da, nb, db = self.num, self.den, o.num, o.den
        if na == da or nb == db:
            return o if na == da else self
        # as Fraction._mul: cancel across, and the products are coprime
        p = self.spec.p
        g1 = db if db == (1,) else _pgcd(na, db, p)
        g2 = da if da == (1,) else _pgcd(nb, da, p)
        return FpTElement._reduced(self.spec, _pmul(_pquo(na, g1, p), _pquo(nb, g2, p), p),
                                   _pmul(_pquo(da, g2, p), _pquo(db, g1, p), p))

    def __neg__(self):
        return FpTElement._reduced(self.spec, _pneg(self.num, self.spec.p), self.den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.spec, self.num, self.den))

    def __repr__(self):
        def poly(c):
            if not c:
                return "0"
            terms = []
            for d, a in enumerate(c):
                if a == 0:
                    continue
                if d == 0:
                    terms.append(str(a))
                elif d == 1:
                    terms.append("T" if a == 1 else f"{a}*T")
                else:
                    terms.append(f"T^{d}" if a == 1 else f"{a}*T^{d}")
            return " + ".join(terms)

        if self.den == (1,):
            return poly(self.num)
        return f"({poly(self.num)})/({poly(self.den)})"

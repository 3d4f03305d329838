"""Exact arithmetic in two complete discretely valued fields.

The built-in instances are the rationals with the p-adic valuation ("Qp")
and rational functions over F_p in one variable T with the order of
vanishing at T = 0 ("FpT").  Elements are immutable, normalized at
construction, and expose their valuation and, when integral, their image
in the residue field F_p.

A Q_p element is a pair of ints in lowest terms, the denominator
positive; `.value` gives the Fraction.  An F_p(T) element is stored in
T-adic normal form T^v * u/w: an int v, which is its valuation, and
little-endian coefficient tuples u, w with u(0) != 0, w(0) = 1 and
gcd(u, w) = 1; zero is v = 0, u = (), w = (1,).  Its `num` and `den` give
the reduced pair, T^v joining the numerator or the denominator.  Both kinds
combine as Fraction combines its pairs, with a gcd only where a factor can
cancel.  A Laurent polynomial (w = 1), as every payload entry u/T^k and
every sampler element is, multiplies by one product of the u's and adds
by one shifted sum, with no gcd; a sum with a 0 operand and a Q_p product
with a 1 operand return the other operand.  Each FieldSpec builds 0 and 1
once.  `_axpy`, the row update row[j] += a * source[j] under every matrix
routine, builds one element per entry: from the int pairs over Q_p, and
from the u's of Laurent operands over F_p(T).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZeroError, DomainError, InputError

#: Valuation of the zero element.
INF = math.inf


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
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + y) % p for x, y in zip(a, b)] + list(a[len(b):]))


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


def _pgcd(a, b, p):
    """The gcd scaled so that its lowest nonzero coefficient is 1; dividing by
    it keeps the constant term of a denominator w with w(0) = 1 at 1."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        a = _pscale(a, pow(a[_pord(a)], -1, p), p)
    return a


def _pquo(a, b, p):
    """The exact quotient a / b."""
    return a if b == (1,) else _pdivmod(a, b, p)[0]


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

    def element(self, value: int | Fraction | FieldElement) -> "FieldElement":
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
        return FpTElement._reduced(self, 0, (c,) if c else (), (1,))

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
        return FpTElement._reduced(self, 1, (1,), (1,))

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
        out = None
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return self.spec.one() if out is None else out

    # a Q_p num is falsy exactly at zero; FpTElement reads its u
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

    def _axpy(self, row, source, cols):
        """row[j] += self * source[j] for j in cols, on the int pairs, with
        the cancellations of __mul__ and __add__."""
        spec, na, da, gcd = self.spec, self.num, self.den, math.gcd
        for j in cols:
            b, r = source[j], row[j]
            g1, g2 = gcd(na, b.den), gcd(b.num, da)
            n, d = (na // g1) * (b.num // g2), (da // g2) * (b.den // g1)
            if r.num:
                g = gcd(r.den, d)
                s = r.den // g
                n = r.num * (d // g) + n * s
                g2 = gcd(n, g)
                n, d = n // g2, s * (d // g2)
            row[j] = QpElement(spec, n, d)

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
    """A rational function over F_p in the variable T, as T^v * u/w with
    u(0) != 0, w(0) = 1 and gcd(u, w) = 1."""

    __slots__ = ("_v", "_u", "_w")

    def __init__(self, spec: FieldSpec, num, den):
        num, den = _trim(num), _trim(den)
        if not den:
            raise DivisionByZeroError("zero denominator")
        v, u, w = 0, num, (1,)
        if num:
            i, j = _pord(num), _pord(den)
            v, u, w = i - j, num[i:], den[j:]
            if w != (1,):
                p = spec.p
                g, unit = _pgcd(u, w, p), pow(w[0], -1, p)
                u, w = (_pscale(_pquo(c, g, p), unit, p) for c in (u, w))
        self.spec, self._v, self._u, self._w = spec, v, u, w

    @classmethod
    def _reduced(cls, spec, v, u, w):
        """T^v * u/w from parts already in normal form."""
        e = object.__new__(cls)
        e.spec, e._v, e._u, e._w = spec, v, u, w
        return e

    num = property(lambda self: (0,) * self._v + self._u, doc="reduced numerator")
    den = property(lambda self: (0,) * -self._v + self._w, doc="reduced denominator")

    def __bool__(self):
        return bool(self._u)

    def is_zero(self) -> bool:
        return not self._u

    def valuation(self):
        return self._v if self._u else INF

    def residue(self) -> int:
        if self._v < 0:
            raise DomainError(f"residue of non-integral element {self!r}")
        return self._u[0] if self._u and not self._v else 0

    def inv(self):
        if not self._u:
            raise DivisionByZeroError("inverse of zero")
        p = self.spec.p
        unit = pow(self._u[0], -1, p)
        return FpTElement._reduced(self.spec, -self._v, _pscale(self._w, unit, p),
                                   _pscale(self._u, unit, p))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._u or not o._u:
            return self if not o._u else o
        # T^m (a/wa + b/wb), with m the lesser v and the other u shifted up
        p, m = self.spec.p, min(self._v, o._v)
        a, b = (0,) * (self._v - m) + self._u, (0,) * (o._v - m) + o._u
        wa, wb = self._w, o._w
        if wa == wb == (1,):
            t, w = _padd(a, b, p), wa
        else:
            # as Fraction._add: a common factor of t and s * wb divides g, so
            # there is no second gcd when g is 1
            g = (1,) if wa == (1,) or wb == (1,) else _pgcd(wa, wb, p)
            s = _pquo(wa, g, p)
            t = _padd(_pmul(a, _pquo(wb, g, p), p), _pmul(b, s, p), p)
            g2 = g if g == (1,) else _pgcd(t, g, p)
            t, w = _pquo(t, g2, p), _pmul(s, _pquo(wb, g2, p), p)
        if not t:
            return self.spec.zero()
        k = _pord(t)
        return FpTElement._reduced(self.spec, m + k, t[k:], w)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ua, wa, ub, wb = self._u, self._w, o._u, o._w
        if not ua or not ub:
            return self if not ua else o
        p, v = self.spec.p, self._v + o._v
        if wa == wb == (1,):
            return FpTElement._reduced(self.spec, v, _pmul(ua, ub, p), wa)
        # as Fraction._mul: cancel across, and the products are coprime
        g1 = wb if wb == (1,) else _pgcd(ua, wb, p)
        g2 = wa if wa == (1,) else _pgcd(ub, wa, p)
        return FpTElement._reduced(self.spec, v, _pmul(_pquo(ua, g1, p), _pquo(ub, g2, p), p),
                                   _pmul(_pquo(wa, g2, p), _pquo(wb, g1, p), p))

    def __neg__(self):
        return FpTElement._reduced(self.spec, self._v, _pneg(self._u, self.spec.p), self._w)

    def _axpy(self, row, source, cols):
        """row[j] += self * source[j] for j in cols: one product of the u's and
        one shifted sum when all three are Laurent (w = 1), else r + self * s."""
        spec, p, va, ua = self.spec, self.spec.p, self._v, self._u
        laurent = self._w == (1,)
        for j in cols:
            s, r = source[j], row[j]
            if not (laurent and s._w == r._w == (1,)):
                row[j] = r + self * s
            elif ua and s._u:
                v, t = va + s._v, _pmul(ua, s._u, p)
                if r._u:
                    m = min(v, r._v)
                    t = _padd((0,) * (v - m) + t, (0,) * (r._v - m) + r._u, p)
                    k = _pord(t) or 0
                    v, t = m + k, t[k:]
                row[j] = FpTElement._reduced(spec, v, t, (1,)) if t else spec.zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._v == o._v and self._u == o._u and self._w == o._w

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

        num, den = self.num, self.den
        return poly(num) if den == (1,) else f"({poly(num)})/({poly(den)})"

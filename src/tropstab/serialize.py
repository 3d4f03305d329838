"""JSON encodings of field data, tropical data, points, and fans.

Rationals travel as strings "a" or "a/b" in base ten; the bottom tropical
element as "-inf".  The plain form -?[0-9]+(/[0-9]+)? is read with int(),
and an entry in it becomes an element of either field from its int pair,
reduced with one gcd; any other string goes to Fraction's parser, exponent
notation refused.
Rational-function field elements are objects with degree-to-coefficient
maps for numerator and denominator.  Each map is checked and reduced mod p
in one pass.  A one-term denominator c*T^k gives the T-adic normal form at
once, by a shift and a scaling; any other pair is reduced by the element's
constructor.  Matrices and vectors are nested arrays.
"""

from __future__ import annotations

from fractions import Fraction

from . import weights
from .errors import DivisionByZeroError, InputError
from .fields import FieldSpec, FpTElement, QpElement, _pscale
from .matrices import FieldMatrix
from .tropical import NEG_INF


#: The largest degree an F_p(T) payload may use.  Elements are dense
#: coefficient lists, so a degree costs its size in memory and its square in
#: time at every multiplication.
MAX_DEGREE = 1000

#: The largest rank a matrix payload may have: 2 * 32, the size of the
#: largest matrix that `verify --suite sp --n 32` builds.
MAX_MATRIX_RANK = 64


def fraction_to_str(q: Fraction) -> str:
    if type(q) is int:
        return str(q)
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _plain_ints(v: str):
    """(num, den), den > 0 and not reduced, of the plain form
    -?[0-9]+(/[0-9]+)? read with int(); None for any other string."""
    num, slash, den = v.partition("/")
    if not (v.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash)):
        return None
    try:
        pair = int(num), int(den or 1)
    except ValueError as exc:  # past int()'s digit limit
        raise InputError(f"not a rational: {v!r}") from exc
    if not pair[1]:
        raise InputError(f"not a rational: {v!r}")
    return pair


def fraction_from_json(v) -> Fraction:
    if isinstance(v, bool):
        raise InputError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    # no exponent notation: "1e10000000" alone would buy unbounded work
    if isinstance(v, str) and "e" not in v.lower():
        pair = _plain_ints(v)
        if pair:
            return Fraction(*pair)
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {v!r}") from exc
    raise InputError(f"not a rational: {v!r}")


def trop_to_json(t):
    return "-inf" if t is NEG_INF else fraction_to_str(t)


def trop_from_json(v):
    if v == "-inf":
        return NEG_INF
    return fraction_from_json(v)


def spec_to_json(spec: FieldSpec) -> dict:
    return {"kind": spec.kind, "p": spec.p}


def element_to_json(e):
    if isinstance(e, QpElement):
        return fraction_to_str(e.value)
    if isinstance(e, FpTElement):
        return {
            "num": {str(d): c for d, c in enumerate(e.num) if c},
            "den": {str(d): c for d, c in enumerate(e.den) if c},
        }
    raise InputError(f"not a field element: {e!r}")


def _terms(m, p: int) -> dict:
    """{degree: coefficient mod p} of one degree map, checked in one pass;
    of two equal degrees ("2" and "002") the last wins, zero or not."""
    terms = {}
    for d, c in m.items():
        if type(c) not in (int, str):
            raise TypeError("coefficients are integers or integer strings")
        terms[int(d)] = int(c) % p
    return terms


def _laurent(terms: dict):
    """(k, coefficients of T^k and up) of the nonzero terms, or (0, ())."""
    degrees = [d for d, c in terms.items() if c]
    if not degrees:
        return 0, ()
    k = min(degrees)
    out = [0] * (max(degrees) - k + 1)
    for d in degrees:
        out[d - k] = terms[d]
    return k, tuple(out)


def element_from_json(spec: FieldSpec, v):
    try:
        if isinstance(v, str) and (pair := _plain_ints(v)):
            return spec._ratio(*pair)
        if spec.kind == "Qp" or isinstance(v, (int, str)):
            return spec.element(fraction_from_json(v))
        if isinstance(v, dict):
            if v.keys() - {"num", "den"}:
                raise InputError(f"rational-function element with a key other than "
                                 f"num and den: {v!r}")
            p = spec.p
            try:
                num, den = _terms(v.get("num", {}), p), _terms(v.get("den", {"0": 1}), p)
            except (AttributeError, TypeError, ValueError) as exc:
                raise InputError(f"invalid rational-function element: {v!r}") from exc
            degrees = num.keys() | den.keys()
            if degrees and min(degrees) < 0:
                raise InputError(f"negative degree in rational-function element: {v!r}")
            if degrees and max(degrees) > MAX_DEGREE:
                raise InputError(f"degree above {MAX_DEGREE} in rational-function element")
            (lo, u), (k, w) = _laurent(num), _laurent(den)
            if len(w) != 1:
                return FpTElement(spec, (0,) * lo + u, (0,) * k + w)
            # a one-term denominator c * T^k: T^(lo - k) * (u / c) is the normal form
            if w[0] != 1:
                u = _pscale(u, pow(w[0], -1, p), p)
            return FpTElement._reduced(spec, lo - k, u, (1,)) if u else spec.zero()
    except DivisionByZeroError as exc:
        raise InputError(f"zero denominator modulo {spec.p}: {v!r}") from exc
    raise InputError(f"invalid element encoding: {v!r}")


def matrix_to_json(m: FieldMatrix):
    return [[element_to_json(e) for e in row] for row in m.rows]


def matrix_from_json(spec: FieldSpec, data) -> FieldMatrix:
    if not isinstance(data, list) or not data:
        raise InputError("matrix payload must be a nonempty array of rows")
    if len(data) > MAX_MATRIX_RANK:
        raise InputError(f"matrix payload of rank above {MAX_MATRIX_RANK}")
    if any(not isinstance(row, list) or len(row) != len(data) for row in data):
        raise InputError("matrix payload must be a square array of arrays")
    return FieldMatrix(spec, [[element_from_json(spec, e) for e in row] for row in data])


def point_to_json(coords):
    return [trop_to_json(c) for c in coords]


def point_from_json(data):
    if not isinstance(data, list) or not data:
        raise InputError("point payload must be a nonempty array")
    return [trop_from_json(v) for v in data]


def fan_to_json(fan: weights.Fan) -> dict:
    return {
        "group": fan.group.tag,
        "rank": fan.rank,
        "vertices": [list(weights.canonical_weight(fan.group, fc.vertex))
                     for fc in fan.maximal_cones],
        "cones": [
            {
                "vertex": list(weights.canonical_weight(fan.group, fc.vertex)),
                "inequalities": [list(f) for f in fc.cone.functionals],
            }
            for fc in fan.maximal_cones
        ],
    }

"""The max-plus semiring over the rationals with minus infinity adjoined.

Scalars are exact: either a rational number or the distinguished bottom
element NEG_INF.  Matrices over a valued field tropicalize entrywise by
minus the valuation, zero entries becoming NEG_INF, and act on vectors by
max-plus matrix-vector product.  The predicates at the end are the
workhorses of the whole library: the fixed-point checks of a point and of
a ray, and the valuation-inequality test that agrees with the first.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import (AllInfiniteError, DimensionMismatchError, DomainError,
                     InputError, SingularMatrixError)
from .matrices import FieldMatrix, _require_det_one


class NegInfinity:
    """The neutral element for max and absorbing element for plus."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("tropstab.NEG_INF")

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __neg__(self):
        raise DomainError("minus infinity has no negative")


NEG_INF = NegInfinity()

TropScalar = int | Fraction | NegInfinity


def as_trop_scalar(value) -> TropScalar:
    if value is NEG_INF or isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise InputError("a float coordinate is not exact")
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError("coordinate is neither a rational number nor -inf") from None


def trop_vector(values) -> tuple:
    return tuple(as_trop_scalar(v) for v in values)


def trop_add(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical sum: the maximum, with NEG_INF neutral."""
    if a is NEG_INF:
        return b
    if b is NEG_INF:
        return a
    return a if a >= b else b


def trop_mul(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical product: ordinary addition, with NEG_INF absorbing."""
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    return a + b


def tropicalize(g: FieldMatrix) -> tuple:
    """Entrywise minus valuation; zero entries map to NEG_INF.

    Requires an invertible matrix, which guarantees a finite entry in
    every row and column.
    """
    if g._trop is None:
        if g.determinant().is_zero():
            raise SingularMatrixError("tropicalization requires an invertible matrix")
        g._trop = tuple(
            tuple(NEG_INF if e.is_zero() else -e.valuation() for e in row)
            for row in g.rows)
    return g._trop


def trop_matvec(matrix: Sequence[Sequence[TropScalar]], x: Sequence[TropScalar]) -> tuple:
    """Max-plus matrix-vector product: x is scaled to integers once, and
    row i takes the max over finite terms of m_ij * scale + x_j."""
    n = len(x)
    if any(len(row) != n for row in matrix):
        raise DimensionMismatchError("matrix and vector dimensions differ")
    xi, scale = _scaled_int_vector(x)
    out = []
    for row in matrix:
        top = max((m * scale + xv for m, xv in zip(row, xi)
                   if m is not NEG_INF and xv is not None), default=None)
        out.append(NEG_INF if top is None else top if scale == 1 else Fraction(top, scale))
    return tuple(out)


def _scaled_int_vector(x):
    """Clear denominators: (entries of scale * x as ints, None for NEG_INF,
    and the least positive integer scale that makes them integral)."""
    scale = math.lcm(*(e.denominator for e in x if e is not NEG_INF))
    return [None if e is NEG_INF else e.numerator * (scale // e.denominator)
            for e in x], scale


def _fixes_ray(g: FieldMatrix, xs: tuple, ds: tuple) -> bool:
    """Row i of the action on x + s*d is the max over finite terms j of
    (trop(g)_ij + x_j) + s*d_j.  It is x_i + s*d_i for all s >= 0 exactly
    when no term exceeds that line in intercept or slope and one meets it
    in both; a NEG_INF x_i allows no finite term."""
    if all(e is NEG_INF for e in xs):
        raise AllInfiniteError("vector must have a finite entry")
    trop = tropicalize(g)
    n = g.size
    if len(xs) != n or len(ds) != n:
        raise DimensionMismatchError("matrix and vector dimensions differ")
    scaled, scale = _scaled_int_vector(xs + ds)
    xi, di = scaled[:n], scaled[n:]
    for i in range(n):
        row, top, slope = trop[i], xi[i], di[i]
        attained = top is None
        for j in range(n):
            m = row[j]
            if m is NEG_INF or xi[j] is None:
                continue
            t = m * scale + xi[j]
            if top is None or t > top or di[j] > slope:
                return False
            if t == top and di[j] == slope:
                attained = True
        if not attained:
            return False
    return True


def stabilizes_tropically(g: FieldMatrix, x: Sequence[TropScalar]) -> bool:
    """Does the tropicalized matrix fix the vector under max-plus action?

    Entries of x may be NEG_INF; the convention that minus infinity
    absorbs addition applies.  Equivalent to
    trop_matvec(tropicalize(g), x) == x, computed over scaled integers.
    """
    xs = trop_vector(x)
    return _fixes_ray(g, xs, (0,) * len(xs))


def fixes_ray(g: FieldMatrix, x: Sequence[TropScalar], d: Sequence) -> bool:
    """Does the tropicalized matrix fix x + s*d for every s >= 0?

    Exact, in O(n^2); x may have NEG_INF entries, the direction d may not.
    """
    ds = trop_vector(d)
    if any(e is NEG_INF for e in ds):
        raise DomainError("finite direction required")
    return _fixes_ray(g, trop_vector(x), ds)


def valuation_inequality_oracle(g: FieldMatrix, x: Sequence[TropScalar]) -> bool:
    """Conjugated-integrality test: v(g_ij) + x_i - x_j >= 0 for all i, j.

    Defined for determinant-one matrices and finite vectors only; there it
    agrees with stabilizes_tropically, because no row of an integral
    determinant-one matrix can consist of positive-valuation entries.
    """
    _require_det_one(g)
    xs = trop_vector(x)
    if any(e is NEG_INF for e in xs):
        raise DomainError("finite coordinates required")
    if len(xs) != g.size:
        raise DimensionMismatchError("matrix and vector dimensions differ")
    xi, scale = _scaled_int_vector(xs)
    for i in range(g.size):
        for j in range(g.size):
            e = g.rows[i][j]
            if e.is_zero():
                continue
            if e.valuation() * scale < xi[j] - xi[i]:
                return False
    return True

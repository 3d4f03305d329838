"""The apartment of the special linear group as a tropical torus.

Points carry exact rational coordinates modulo the all-ones line; the
canonical representative sums to zero.  The module provides the torus and
normalizer actions, the simplicial face address cut out by the integer
hyperplane arrangement, and two membership predicates for point
stabilizers: the tropical fixed-point test and, on the star of the origin,
the residue-flag test that characterizes parahoric subgroups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import (DeterminantNotOneError, DimensionMismatchError,
                     InputError, OutOfStarError)
from .fields import FieldSpec
from .matrices import FieldMatrix, perm_sign, _require_det_one
from .tropical import NEG_INF, stabilizes_tropically, trop_vector


class CoordinatePoint:
    """A point given by exact coordinates, rational unless a subclass
    normalises them otherwise; equal to points of its own type only."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        xs = trop_vector(coords)
        if any(c is NEG_INF for c in xs):
            raise InputError("apartment coordinates must be finite")
        cs = tuple(Fraction(c) for c in xs)
        if not cs:
            raise InputError("empty coordinate vector")
        self.coords = cs

    @property
    def n(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(str(c) for c in self.coords)})"


class ApartmentPoint(CoordinatePoint):
    """A point of the rank n-1 apartment, stored as sum-zero rationals."""

    __slots__ = ()

    def __init__(self, coords):
        super().__init__(coords)
        shift = sum(self.coords) / self.n
        self.coords = tuple(c - shift for c in self.coords)


def origin(n: int) -> ApartmentPoint:
    return ApartmentPoint((0,) * n)


def translation_point(diag) -> ApartmentPoint:
    """The apartment point a diagonal determinant-one matrix translates by.

    Accepts the diagonal entries or the diagonal matrix itself; coordinate
    i is minus the valuation of the i-th diagonal entry.
    """
    if isinstance(diag, FieldMatrix):
        n = diag.size
        if any(not diag.rows[i][j].is_zero()
               for i in range(n) for j in range(n) if i != j):
            raise InputError("matrix is not diagonal")
        entries = tuple(diag.rows[i][i] for i in range(n))
    else:
        entries = tuple(diag)
    if not entries:
        raise InputError("empty diagonal")
    spec = entries[0].spec
    product = reduce(lambda a, b: a * b, entries)
    if product != spec.one():
        raise DeterminantNotOneError("diagonal entries must multiply to one")
    return ApartmentPoint(tuple(Fraction(-e.valuation()) for e in entries))


@dataclass(frozen=True)
class MonomialMatrix:
    """A matrix with one nonzero entry per row and column.

    Column i carries the scalar t_i in row perm[i]; the permutation part is
    the Weyl reflection data, the scalars the torus part.  The determinant,
    sign(perm) times the product of the scalars, must equal one.
    """

    spec: FieldSpec
    perm: tuple
    scalars: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.scalars) != n:
            raise InputError("invalid permutation data")
        if any(s.is_zero() for s in self.scalars):
            raise InputError("monomial scalars must be nonzero")
        det = reduce(lambda a, b: a * b, self.scalars)
        if perm_sign(self.perm) < 0:
            det = -det
        if det != self.spec.one():
            raise DeterminantNotOneError("monomial matrix must have determinant one")

    def to_matrix(self) -> FieldMatrix:
        n = len(self.perm)
        zero = self.spec.zero()
        rows = [[zero] * n for _ in range(n)]
        for i, (target, scalar) in enumerate(zip(self.perm, self.scalars)):
            rows[target][i] = scalar
        g = FieldMatrix(self.spec, rows)
        g._det = self.spec.one()  # checked by __post_init__
        return g

    @classmethod
    def from_matrix(cls, g: FieldMatrix) -> "MonomialMatrix":
        n = g.size
        perm = [None] * n
        scalars = [None] * n
        for i in range(n):
            hits = [r for r in range(n) if not g.rows[r][i].is_zero()]
            if len(hits) != 1:
                raise InputError("matrix is not monomial")
            perm[i] = hits[0]
            scalars[i] = g.rows[hits[0]][i]
        return cls(g.spec, tuple(perm), tuple(scalars))


def normalizer_action(m: MonomialMatrix, x: ApartmentPoint) -> ApartmentPoint:
    """Affine-linear action: coordinate i lands at position perm[i] shifted by -v(t_i)."""
    if len(m.perm) != x.n:
        raise DimensionMismatchError("monomial matrix and point dimensions differ")
    out = [Fraction(0)] * x.n
    for i, (target, scalar) in enumerate(zip(m.perm, m.scalars)):
        out[target] = x.coords[i] - scalar.valuation()
    return ApartmentPoint(out)


@dataclass(frozen=True)
class FaceAddress:
    """Relative position of a point in the integer hyperplane arrangement.

    For each pair i < j the coordinate difference either sits on a wall
    (an integer m) or strictly between walls m and m+1.  Two points share
    an address exactly when they lie in the relative interior of the same
    face.
    """

    relations: tuple

    def __repr__(self):
        return f"FaceAddress{self.relations}"


def face_address(x: ApartmentPoint) -> FaceAddress:
    rel = []
    for i in range(x.n):
        for j in range(i + 1, x.n):
            d = x.coords[i] - x.coords[j]
            fl = math.floor(d)
            if d == fl:
                rel.append((i, j, "wall", fl))
            else:
                rel.append((i, j, "strip", fl))
    return FaceAddress(tuple(rel))


def in_star_of_origin(coords) -> bool:
    """All pairwise coordinate differences strictly below one in absolute value."""
    return all(abs(a - b) < 1 for i, a in enumerate(coords) for b in coords[i + 1:])


def stabilizer_membership(g: FieldMatrix, x: ApartmentPoint) -> bool:
    """Is g in the stabilizer of x, i.e. does g fix x tropically?"""
    _require_det_one(g)
    return stabilizes_tropically(g, x.coords)


def parahoric_oracle(g: FieldMatrix, x: ApartmentPoint) -> bool:
    """Residue-flag membership test, valid on the star of the origin.

    True exactly when g is integral and its reduction mod the uniformizer
    is block upper triangular for the partition of indices by decreasing
    coordinate value.  Agrees with stabilizer_membership on its domain.
    """
    _require_det_one(g)
    cs = x.coords
    if len(cs) != g.size:
        raise DimensionMismatchError("matrix and point dimensions differ")
    if not in_star_of_origin(cs):
        raise OutOfStarError("point outside the star of the origin")
    if not g.is_integral():
        return False
    res = g.residue()
    return all(res[i][j] == 0 for i in range(g.size) for j in range(g.size)
               if cs[i] < cs[j])

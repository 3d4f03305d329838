"""The apartment of the special linear group as a tropical torus.

Points carry exact rational coordinates modulo the all-ones line; the
canonical representative sums to zero.  The module provides the action of
the torus normalizer, where a determinant-one monomial matrix acts on any
coordinate point by its tropicalization (a diagonal one translates), the
simplicial face address cut out by the integer hyperplane arrangement, and
two membership predicates for point stabilizers: the tropical fixed-point
test and, on the star of the origin, the residue-flag test that
characterizes parahoric subgroups.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatchError, InputError, OutOfStarError
from .fields import _Frozen
from .matrices import FieldMatrix, _require_det_one
from .tropical import NEG_INF, stabilizes_tropically, trop_mul, trop_vector


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


def normalizer_action(m: FieldMatrix, x: CoordinatePoint) -> CoordinatePoint:
    """The action of a determinant-one monomial matrix by its tropicalization:
    coordinate j moves to the row of the one nonzero entry t of column j,
    shifted by -v(t).  Apartment points re-centre, boundary points re-anchor."""
    _require_det_one(m)
    if m.size != x.n:
        raise DimensionMismatchError("monomial matrix and point dimensions differ")
    out = [None] * x.n
    for j, xj in enumerate(x.coords):
        hits = [i for i in range(m.size) if m.rows[i][j]]
        if len(hits) != 1:
            raise InputError("matrix is not monomial")
        out[hits[0]] = trop_mul(xj, -m.rows[hits[0]][j].valuation())
    return type(x)(out)


class FaceAddress(_Frozen):
    """Relative position of a point in the integer hyperplane arrangement.

    For each pair i < j the coordinate difference either sits on a wall
    (an integer m) or strictly between walls m and m+1.  Two points share
    an address exactly when they lie in the relative interior of the same
    face.  Immutable, equal and hashed by its relations.
    """

    def __init__(self, relations: tuple):
        self.__dict__["relations"] = relations

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.relations == other.relations
        return NotImplemented

    def __hash__(self):
        return hash((self.relations,))

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


def stabilizer_membership(g: FieldMatrix, x: CoordinatePoint) -> bool:
    """Is g in the stabilizer of x, i.e. does g fix x tropically?  For an
    apartment point and for a boundary point alike."""
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

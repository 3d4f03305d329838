"""The apartment of the special linear group as a tropical torus.

Points carry exact rational coordinates modulo the all-ones line; the
canonical representative sums to zero.  A point's type fixes its group, and
each predicate runs the group's matrix check and decides on the point's
embedding into this apartment: the action of the torus normalizer by a
monomial matrix's tropicalization, the tropical fixed-point test for the
point and for a ray from it and, on the star of the origin, the
residue-flag test that characterizes parahoric subgroups.  Face addresses
come from the integer hyperplane arrangement.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatchError, InputError, OutOfStarError
from .fields import _Frozen
from .groups import GROUP_SL, GROUP_SP
from .matrices import FieldMatrix
from .tropical import NEG_INF, fixes_ray, stabilizes_tropically, trop_mul, trop_vector


class CoordinatePoint:
    """A point given by exact coordinates, rational unless a subclass
    normalises them otherwise; its type fixes its group, SL_n here.  Equal
    to points of its own type and group only."""

    __slots__ = ("coords",)
    group = GROUP_SL

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
        return self.coords == other.coords and self.group == other.group

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(str(c) for c in self.coords)})"

    def embed(self, v) -> tuple:
        """Coordinates v of this point's apartment, mapped into the special-linear one."""
        return self.group.embed(v)

    def pull_back(self, ys: tuple) -> "CoordinatePoint":
        """The point of this point's type whose embedding is ys."""
        xs = ys[:self.n]
        if self.embed(xs) != ys:
            raise InputError("matrix does not act on the symplectic apartment")
        return type(self)(xs)


class ApartmentPoint(CoordinatePoint):
    """A point of the rank n-1 apartment, stored as sum-zero rationals."""

    __slots__ = ()

    def __init__(self, coords):
        super().__init__(coords)
        shift = sum(self.coords) / self.n
        self.coords = tuple(c - shift for c in self.coords)


class SpApartmentPoint(CoordinatePoint):
    """A point of the symplectic apartment: n free rational coordinates."""

    __slots__ = ()
    group = GROUP_SP


def origin(n: int) -> ApartmentPoint:
    return ApartmentPoint((0,) * n)


def normalizer_action(m: FieldMatrix, x: CoordinatePoint) -> CoordinatePoint:
    """The action of a monomial matrix of x's group by its tropicalization on
    the embedded point: coordinate j moves to the row of the one nonzero
    entry t of column j, shifted by -v(t).  The image is pulled back to
    x's type: apartment points re-centre, boundary points re-anchor."""
    x.group.require(m)
    ys = x.embed(x.coords)
    if m.size != len(ys):
        raise DimensionMismatchError("monomial matrix and point dimensions differ")
    out = [None] * len(ys)
    for j, yj in enumerate(ys):
        hits = [i for i in range(m.size) if m.rows[i][j]]
        if len(hits) != 1:
            raise InputError("matrix is not monomial")
        out[hits[0]] = trop_mul(yj, -m.rows[hits[0]][j].valuation())
    return x.pull_back(tuple(out))


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
            rel.append((i, j, "wall" if d == fl else "strip", fl))
    return FaceAddress(tuple(rel))


def in_star_of_origin(coords) -> bool:
    """All pairwise coordinate differences strictly below one in absolute value."""
    return all(abs(a - b) < 1 for i, a in enumerate(coords) for b in coords[i + 1:])


def stabilizer_membership(g: FieldMatrix, x: CoordinatePoint) -> bool:
    """Is g, of x's group, in the stabilizer of x, i.e. does g fix the
    embedded point tropically?  For apartment and boundary points alike."""
    x.group.require(g)
    return stabilizes_tropically(g, x.embed(x.coords))


def ray_membership(g: FieldMatrix, x: CoordinatePoint, d) -> bool:
    """Does g, of x's group, fix x + s*d for every s >= 0?  The direction d
    is in x's coordinates; the ray is decided embedded, by fixes_ray."""
    x.group.require(g)
    return fixes_ray(g, x.embed(x.coords), x.embed(d))


def parahoric_oracle(g: FieldMatrix, x: CoordinatePoint) -> bool:
    """Residue-flag test on the embedded point, valid on the star of the origin.

    True exactly when g is integral and its reduction mod the uniformizer
    is block upper triangular for the partition of indices by decreasing
    coordinate value.  Agrees with stabilizer_membership on its domain.
    """
    x.group.require(g)
    cs = x.embed(x.coords)
    if len(cs) != g.size:
        raise DimensionMismatchError("matrix and point dimensions differ")
    if not in_star_of_origin(cs):
        raise OutOfStarError("point outside the star of the origin")
    if not g.is_integral():
        return False
    res = g.residue()
    return all(res[i][j] == 0 for i in range(g.size) for j in range(g.size)
               if cs[i] < cs[j])

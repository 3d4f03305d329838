"""Boundary points of the compactified apartment and their stabilizers.

The compactified apartment of the identity representation is the set of
vectors over the rationals with minus infinity adjoined, not all entries
infinite, modulo a common finite shift.  The stratum of a point is the set
of finite positions.  Boundary points arise as limits along fan
directions; their stabilizers are computed by the same tropical
fixed-point test, and independently by a block condition: the matrix must
preserve the coordinate subspace of the stratum and its restriction must
fix the finite part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .apartment import ApartmentPoint, CoordinatePoint
from .errors import (AllInfiniteError, DimensionMismatchError,
                     InvalidDirectionError)
from .matrices import FieldMatrix, _require_det_one
from .symplectic import SpApartmentPoint, _embed, _require_symplectic
from .tropical import NEG_INF, stabilizes_tropically, trop_vector
from .weights import Cone, sl_identity_character, weight_fan


def stratum(x) -> frozenset:
    """Indices of the finite entries of a tropical vector."""
    return BoundaryPoint(x).stratum


class BoundaryPoint(CoordinatePoint):
    """A point of the compactified apartment, anchored at its first finite entry."""

    __slots__ = ("stratum",)

    def __init__(self, coords):
        xs = trop_vector(coords)
        fin = [i for i, e in enumerate(xs) if e is not NEG_INF]
        if not fin:
            raise AllInfiniteError("vector has no finite entry")
        anchor = Fraction(xs[fin[0]])
        self.coords = tuple(
            NEG_INF if e is NEG_INF else Fraction(e) - anchor for e in xs)
        self.stratum = frozenset(fin)


@dataclass(frozen=True)
class FanDirection:
    """A fan cone together with a rational point of it, read as a recession direction."""

    cone: Cone
    point: tuple

    def __post_init__(self):
        pt = tuple(Fraction(c) for c in self.point)
        object.__setattr__(self, "point", pt)
        if self.cone.functionals and len(self.cone.functionals[0]) != len(pt):
            raise InvalidDirectionError("direction dimension does not match the cone")
        if not self.cone.contains(pt):
            raise InvalidDirectionError("direction point lies outside the cone")


def direction_for_stratum(indices, n: int) -> FanDirection:
    """Canonical direction whose limit lands in the given stratum."""
    I = sorted(set(indices))
    if not I or any(i < 0 or i >= n for i in I):
        raise InvalidDirectionError("stratum must be a nonempty subset of the indices")
    fan = weight_fan(sl_identity_character(n))
    lead = [0] * n
    lead[min(I)] = 1
    cone = next(fc.cone for fc in fan.maximal_cones if fc.vertex == tuple(lead))
    c = [Fraction(1) if i in I else Fraction(0) for i in range(n)]
    shift = sum(c) / n
    return FanDirection(cone, tuple(v - shift for v in c))


def _limit(ys, ds) -> BoundaryPoint:
    """Limit of ys + s*ds as s grows: the coordinates where ds attains its
    maximum stay finite, the others go to minus infinity."""
    if len(ds) != len(ys):
        raise InvalidDirectionError("direction dimension does not match the point")
    top = max(ds)
    return BoundaryPoint(tuple(y if e == top else NEG_INF for y, e in zip(ys, ds)))


def boundary_point_from_direction(x: ApartmentPoint, d: FanDirection) -> BoundaryPoint:
    """Limit of x along the direction: coordinates stay finite exactly where
    the coordinate weights attain their maximum on the direction point."""
    return _limit(x.coords, d.point)


def boundary_stabilizes(g: FieldMatrix, b: BoundaryPoint) -> bool:
    """Does g fix the boundary point tropically?"""
    _require_det_one(g)
    return stabilizes_tropically(g, b.coords)


def boundary_block_oracle(g: FieldMatrix, b: BoundaryPoint) -> bool:
    """Independent check: g preserves the stratum subspace and the restricted
    block fixes the finite part, attainment of every row maximum included."""
    _require_det_one(g)
    if g.size != b.n:
        raise DimensionMismatchError("matrix and point dimensions differ")
    inside = sorted(b.stratum)
    outside = [i for i in range(b.n) if i not in b.stratum]
    for i in outside:
        for j in inside:
            if not g.rows[i][j].is_zero():
                return False
    for i in inside:
        best = None
        for j in inside:
            e = g.rows[i][j]
            if e.is_zero():
                continue
            t = b.coords[j] - e.valuation()
            if best is None or t > best:
                best = t
        if best is None or best != b.coords[i]:
            return False
    return True


def permute_boundary(b: BoundaryPoint, perm) -> BoundaryPoint:
    """Coordinate i of the result at position perm[i]."""
    out = [NEG_INF] * b.n
    for i, target in enumerate(perm):
        out[target] = b.coords[i]
    return BoundaryPoint(out)


def sp_boundary_point(x: SpApartmentPoint, d: FanDirection) -> BoundaryPoint:
    """Embedded limit point: the weights of the standard symplectic
    representation evaluated on the direction decide which of the 2n
    embedded coordinates stay finite."""
    return _limit(_embed(x.coords), _embed(d.point))


def sp_boundary_stabilizes(g: FieldMatrix, x: SpApartmentPoint, d: FanDirection) -> bool:
    """Does the symplectic matrix g fix the embedded limit point tropically?"""
    _require_symplectic(g)
    return boundary_stabilizes(g, sp_boundary_point(x, d))

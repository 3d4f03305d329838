"""Boundary points of the compactified apartment and their stabilizers.

The compactified apartment of the identity representation is the set of
vectors over the rationals with minus infinity adjoined, not all entries
infinite, modulo a common finite shift.  The stratum of a point is the set
of finite positions.  A direction is a plain coordinate tuple d, and the
limit of x + s*d keeps finite the coordinates where d is largest.
Stabilizers of boundary points are decided by the apartment's predicate,
`apartment.stabilizer_membership`, and independently by a block
condition: the matrix must
preserve the coordinate subspace of the stratum and its restriction must
fix the finite part.
"""

from __future__ import annotations

from fractions import Fraction

from .apartment import CoordinatePoint, stabilizer_membership
from .errors import (AllInfiniteError, DimensionMismatchError, DomainError,
                     InvalidDirectionError)
from .matrices import FieldMatrix, _require_det_one
from .symplectic import SpApartmentPoint, _embed, _require_symplectic
from .tropical import NEG_INF, trop_vector


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


def direction_for_stratum(indices, n: int) -> tuple:
    """The sum-zero direction (n*[i in I] - |I|)/n, whose limit has stratum I."""
    I = set(indices)
    if not I or any(not isinstance(i, int) or not 0 <= i < n for i in I):
        raise InvalidDirectionError("stratum must be a nonempty subset of the indices")
    return tuple(Fraction(n * (i in I) - len(I), n) for i in range(n))


def boundary_point_from_direction(ys, ds) -> BoundaryPoint:
    """Limit of ys + s*ds as s grows: the coordinates where ds attains its
    maximum stay finite, the others go to minus infinity."""
    ds = trop_vector(ds)
    if any(e is NEG_INF for e in ds):
        raise DomainError("finite direction required")
    if not ds or len(ds) != len(ys):
        raise InvalidDirectionError("direction must be nonempty and match the point")
    top = max(ds)
    return BoundaryPoint(tuple(y if e == top else NEG_INF for y, e in zip(ys, ds)))


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


def sp_boundary_point(x: SpApartmentPoint, d) -> BoundaryPoint:
    """Embedded limit point: the weights +-e_i of the standard symplectic
    representation, evaluated on d, are the embedded direction."""
    return boundary_point_from_direction(_embed(x.coords), _embed(d))


def sp_boundary_stabilizes(g: FieldMatrix, x: SpApartmentPoint, d) -> bool:
    """Does the symplectic matrix g fix the embedded limit point tropically?"""
    _require_symplectic(g)
    return stabilizer_membership(g, sp_boundary_point(x, d))

"""Boundary points of the compactified apartment and their stabilizers.

The compactified apartment of the identity representation is the set of
vectors over the rationals with minus infinity adjoined, not all entries
infinite, modulo a common finite shift.  The stratum of a point is the set
of finite positions, which are already special-linear coordinates.  A
direction is a coordinate tuple d in x's own coordinates, and the limit of
x + s*d, which keeps the group of x, keeps finite the embedded coordinates
where the embedded d is largest.
Stabilizers of boundary points are decided by the apartment's predicate,
`apartment.stabilizer_membership`, and independently by a block
condition: the matrix must preserve the coordinate subspace of the
stratum and its restriction must fix the finite part.
"""

from __future__ import annotations

from fractions import Fraction

from .apartment import CoordinatePoint
from .errors import (AllInfiniteError, DimensionMismatchError, DomainError,
                     InvalidDirectionError)
from .groups import GROUP_SL
from .matrices import FieldMatrix
from .tropical import NEG_INF, trop_vector


class BoundaryPoint(CoordinatePoint):
    """A point of the compactified apartment, anchored at its first finite
    entry; its group is SL_n or that of the point it is a limit of."""

    __slots__ = ("stratum", "group")

    def __init__(self, coords, group=GROUP_SL):
        xs = trop_vector(coords)
        fin = [i for i, e in enumerate(xs) if e is not NEG_INF]
        if not fin:
            raise AllInfiniteError("vector has no finite entry")
        anchor = Fraction(xs[fin[0]])
        self.coords = tuple(
            NEG_INF if e is NEG_INF else Fraction(e) - anchor for e in xs)
        self.stratum = frozenset(fin)
        self.group = group

    def embed(self, v) -> tuple:
        """The identity: the coordinates already lie in the special-linear apartment."""
        return tuple(v)

    def pull_back(self, ys: tuple) -> "BoundaryPoint":
        """The point of this point's group whose coordinates are ys."""
        return type(self)(ys, self.group)


def direction_for_stratum(indices, n: int) -> tuple:
    """The sum-zero direction (n*[i in I] - |I|)/n, whose limit has stratum I."""
    I = set(indices)
    if not I or any(not isinstance(i, int) or not 0 <= i < n for i in I):
        raise InvalidDirectionError("stratum must be a nonempty subset of the indices")
    return tuple(Fraction(n * (i in I) - len(I), n) for i in range(n))


def boundary_point_from_direction(x: CoordinatePoint, d) -> BoundaryPoint:
    """Limit of x + s*d as s grows, with d in x's coordinates, taken
    embedded: the coordinates where the embedded d attains its maximum stay
    finite, the others go to minus infinity.  The limit keeps x's group."""
    ds = trop_vector(d)
    if any(e is NEG_INF for e in ds):
        raise DomainError("finite direction required")
    ys, ds = x.embed(x.coords), x.embed(ds)
    if not ds or len(ds) != len(ys):
        raise InvalidDirectionError("direction must be nonempty and match the point")
    top = max(ds)
    return BoundaryPoint(tuple(y if e == top else NEG_INF for y, e in zip(ys, ds)), x.group)


def boundary_block_oracle(g: FieldMatrix, b: BoundaryPoint) -> bool:
    """Independent check: g preserves the stratum subspace and the restricted
    block fixes the finite part, attainment of every row maximum included."""
    b.group.require(g)
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

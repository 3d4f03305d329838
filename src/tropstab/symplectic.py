"""The symplectic group, its apartment, and the embedding into the
special-linear apartment.

The standard form is built from the antidiagonal identity; symplectic
apartment points have n free rational coordinates and embed into the
rank 2n-1 apartment as the palindromically antisymmetric vectors
(x_1, ..., x_n, -x_n, ..., -x_1).  Each symplectic predicate is the form
check followed by the special-linear predicate on the embedded point.  The
form check records det = 1 and the embedded vector sums to zero, so the
membership and ray predicates hand the embedded coordinates straight to
the tropical test.
"""

from __future__ import annotations

from .apartment import (ApartmentPoint, CoordinatePoint, normalizer_action,
                        parahoric_oracle)
from .errors import DimensionMismatchError, InputError, NotSymplecticError
from .fields import FieldSpec
from .matrices import FieldMatrix
from .tropical import fixes_ray, stabilizes_tropically


def standard_form(spec: FieldSpec, n: int) -> FieldMatrix:
    """The 2n x 2n coordinate matrix of the standard symplectic form."""
    one, zero = spec.one(), spec.zero()
    rows = []
    for i in range(2 * n):
        row = [zero] * (2 * n)
        if i < n:
            row[2 * n - 1 - i] = one
        else:
            row[2 * n - 1 - i] = -one
        rows.append(row)
    return FieldMatrix(spec, rows)


def antitranspose(m: FieldMatrix) -> FieldMatrix:
    """Reflection in the antidiagonal; an involution with (MN)^† = N^† M^†."""
    n = m.size
    return FieldMatrix(m.spec, [[m.rows[n - 1 - j][n - 1 - i] for j in range(n)]
                                for i in range(n)])


def is_symplectic(m: FieldMatrix) -> bool:
    """Does m preserve the standard symplectic form exactly?

    Compares (m^T psi m)_ij = sum over k < n of (m_ki m_k'j - m_k'i m_kj),
    k' = 2n-1-k, with psi_ij for i < j only, skipping zero entries: the
    diagonal and the lower triangle follow formally, in every characteristic.
    """
    size = m.size
    if size % 2 != 0:
        raise DimensionMismatchError("symplectic matrices have even size")
    zero, one = m.spec.zero(), m.spec.one()
    cols = list(zip(*m.rows))
    for i, ci in enumerate(cols):
        for j in range(i + 1, size):
            cj, acc = cols[j], zero
            for k in range(size // 2):
                kk = size - 1 - k
                if ci[k] and cj[kk]:
                    acc = acc + ci[k] * cj[kk]
                if ci[kk] and cj[k]:
                    acc = acc - ci[kk] * cj[k]
            if acc != (one if i + j == size - 1 else zero):
                return False
    return True


class SpApartmentPoint(CoordinatePoint):
    """A point of the symplectic apartment: n free rational coordinates."""

    __slots__ = ()


def _embed(values) -> tuple:
    """The palindromically antisymmetric vector (x, -reversed(x))."""
    return tuple(values) + tuple(-v for v in reversed(values))


def embed_point(x: SpApartmentPoint) -> ApartmentPoint:
    """Embedding into the special-linear apartment: (x, -reversed(x))."""
    return ApartmentPoint(_embed(x.coords))


def _require_symplectic(g: FieldMatrix) -> None:
    """Raise NotSymplecticError unless g preserves the standard form psi, and
    record that g passed; products of two that passed, and inverses, inherit
    it.  Then det g = 1 in every characteristic, 2 included, since g^T psi g
    = psi gives Pf(psi) = det(g) Pf(psi) with Pf(psi) = +-1; record it too."""
    if g._symplectic:
        return
    if not is_symplectic(g):
        raise NotSymplecticError("matrix does not preserve the symplectic form")
    g._det = g.spec.one()
    g._symplectic = True


def sp_stabilizer_membership(g: FieldMatrix, x: SpApartmentPoint) -> bool:
    """Is the symplectic matrix g in the stabilizer of the apartment point x?"""
    _require_symplectic(g)
    return stabilizes_tropically(g, _embed(x.coords))


def sp_fixes_ray(g: FieldMatrix, x: SpApartmentPoint, d) -> bool:
    """Does the symplectic matrix g fix x + s*d for every s >= 0?"""
    _require_symplectic(g)
    return fixes_ray(g, _embed(x.coords), _embed(d))


def sp_parahoric_oracle(g: FieldMatrix, x: SpApartmentPoint) -> bool:
    """Residue-flag test through the embedding, valid on the star of the origin."""
    _require_symplectic(g)
    return parahoric_oracle(g, embed_point(x))


def sp_normalizer_action(m: FieldMatrix, x: SpApartmentPoint) -> SpApartmentPoint:
    """Action of a symplectic monomial matrix, computed in the embedded picture."""
    _require_symplectic(m)
    cs = normalizer_action(m, embed_point(x)).coords
    if _embed(cs[:x.n]) != cs:
        raise InputError("matrix does not act on the symplectic apartment")
    return SpApartmentPoint(cs[:x.n])

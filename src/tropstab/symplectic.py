"""The symplectic group's form check and its apartment's embedding, which
make up `groups.GROUP_SP`, the group of `apartment.SpApartmentPoint`.

The standard form is built from the antidiagonal identity.  The form check
records det = 1, and the embedding x -> (x, -reversed(x)) into the rank
2n-1 special-linear apartment sums to zero, so an embedded point goes
straight to the tropical test.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, NotSymplecticError
from .fields import FieldSpec
from .matrices import FieldMatrix


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


def _embed(values) -> tuple:
    """The palindromically antisymmetric vector (x, -reversed(x))."""
    return tuple(values) + tuple(-v for v in reversed(values))


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

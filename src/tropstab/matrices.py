"""Square matrices over a valued field, with exact determinant and inverse.
Every row update, transvections included, is one kernel: `_add_multiple`."""

from __future__ import annotations

from .errors import (DeterminantNotOneError, DimensionMismatchError, DomainError,
                     InputError, SingularMatrixError)
from .fields import FieldElement, FieldSpec


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images on 0..n-1."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _identity_rows(spec, n):
    one, zero = spec.one(), spec.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _add_multiple(row, a, source, cols):
    """row[j] += a * source[j] for j in cols, the nonzero columns of source:
    the fused update of a's field, or the plain loop over Fractions."""
    if isinstance(a, FieldElement):
        a._axpy(row, source, cols)
        return
    for j in cols:
        row[j] = row[j] + a * source[j]


def _eliminate(rows, zero):
    """Forward elimination in place, over field elements or Fractions, on the
    first len(rows) columns; longer rows carry their extra columns along.
    Swaps in the first nonzero pivot, skips zeros under it and in its row.
    Returns the signed product of the pivots, or `zero` on a zero column."""
    n = len(rows)
    det, negate = None, False
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            negate = not negate
        top = rows[col]
        pivot = top[col]
        support = [j for j in range(col + 1, len(top)) if top[j]]
        scale = None  # -1 / pivot: the one inverse of this column, taken once used
        for row in rows[col + 1:]:
            if row[col]:
                scale = scale or (-pivot) ** -1
                _add_multiple(row, row[col] * scale, top, support)
        det = pivot if det is None else det * pivot
    return -det if negate else det


class FieldMatrix:
    """Immutable n x n matrix with entries in a fixed valued field; it keeps
    its determinant once known and whether it passed the symplectic form check."""

    __slots__ = ("spec", "rows", "_det", "_trop", "_symplectic")

    def __init__(self, spec: FieldSpec, rows):
        coerced = tuple(tuple(e if isinstance(e, FieldElement) and e.spec is spec
                              else spec.element(e) for e in row) for row in rows)
        n = len(coerced)
        if n == 0 or any(len(r) != n for r in coerced):
            raise DimensionMismatchError("a nonempty square matrix is required")
        self.spec = spec
        self.rows = coerced
        self._det = None
        self._trop = None
        self._symplectic = False

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        return cls(spec, _identity_rows(spec, n))

    @classmethod
    def diagonal(cls, spec: FieldSpec, entries) -> "FieldMatrix":
        entries = [spec.element(e) for e in entries]
        zero = spec.zero()
        n = len(entries)
        return cls(spec, [[entries[i] if i == j else zero for j in range(n)]
                          for i in range(n)])

    @property
    def size(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if other.spec is not self.spec and other.spec != self.spec:
            raise InputError("matrices over different fields")
        if other.size != self.size:
            raise DimensionMismatchError("matrix product of incompatible matrices")
        right = other.rows
        supports = [[j for j, b in enumerate(row) if b] for row in right]
        out = [[self.spec.zero()] * self.size for _ in right]
        for row, left in zip(out, self.rows):
            for k, a in enumerate(left):
                if a:
                    _add_multiple(row, a, right[k], supports[k])
        product = FieldMatrix(self.spec, out)
        if self._det is not None and other._det is not None:
            product._det = self._det * other._det
        product._symplectic = self._symplectic and other._symplectic
        return product

    def transpose(self) -> "FieldMatrix":
        n = self.size
        return FieldMatrix(self.spec, [[self.rows[j][i] for j in range(n)]
                                       for i in range(n)])

    def determinant(self):
        """Exact determinant by Gaussian elimination over the field."""
        if self._det is None:
            self._det = _eliminate([list(r) for r in self.rows], self.spec.zero())
        return self._det

    def inverse(self) -> "FieldMatrix":
        """Forward elimination of [g | 1], then back substitution on the right.
        Records det g, and 1/det g as the determinant of the inverse."""
        n = self.size
        rows = [list(r) + e for r, e in zip(self.rows, _identity_rows(self.spec, n))]
        self._det = _eliminate(rows, self.spec.zero())
        if not self._det:
            raise SingularMatrixError("matrix is not invertible")
        out, supports = [None] * n, [None] * n
        for i in reversed(range(n)):
            row, x = rows[i], rows[i][n:]
            for j in range(i + 1, n):
                if row[j]:
                    _add_multiple(x, -row[j], out[j], supports[j])
            inv = row[i].inv()
            out[i] = [inv * e for e in x]
            supports[i] = [k for k, e in enumerate(x) if e]
        inverse = FieldMatrix(self.spec, out)
        inverse._det = self._det.inv()
        inverse._symplectic = self._symplectic
        return inverse

    def is_integral(self) -> bool:
        return all(e.is_integral() for row in self.rows for e in row)

    def residue(self):
        """Entrywise reduction to F_p; requires an integral matrix."""
        if not self.is_integral():
            raise DomainError("residue of a non-integral matrix")
        return tuple(tuple(e.residue() for e in row) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.spec == other.spec and self.rows == other.rows

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.rows)
        return f"[{body}]"


def _require_det_one(g: FieldMatrix) -> None:
    """Raise DeterminantNotOneError unless g has determinant one."""
    if g.determinant() != g.spec.one():
        raise DeterminantNotOneError("determinant-one matrix required")

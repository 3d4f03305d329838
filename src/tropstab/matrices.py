"""Square matrices over a valued field, with exact determinant and inverse."""

from __future__ import annotations

from .errors import (DeterminantNotOneError, DimensionMismatchError, DomainError,
                     SingularMatrixError)
from .fields import FieldSpec


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


def _determinant(rows, zero):
    """Exact determinant of a nonempty square matrix over a field, by forward
    elimination with a row swap to the first nonzero pivot: the signed product
    of the pivots, or `zero` on a zero column.  Works on field elements and on
    Fractions.  Zero entries are skipped: a row is updated only if it has a
    nonzero entry under the pivot, and only in the pivot row's nonzero columns.
    """
    a = [list(r) for r in rows]
    n = len(a)
    det, negate = None, False
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return zero
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            negate = not negate
        top = a[col]
        pivot = top[col]
        support = [j for j in range(col + 1, n) if top[j]]
        for row in a[col + 1:]:
            if row[col]:
                f = row[col] / pivot
                for j in support:
                    row[j] = row[j] - f * top[j]
        det = pivot if det is None else det * pivot
    return -det if negate else det


class FieldMatrix:
    """Immutable n x n matrix with entries in a fixed valued field."""

    __slots__ = ("spec", "rows", "_det", "_trop")

    def __init__(self, spec: FieldSpec, rows):
        coerced = tuple(tuple(spec.element(e) for e in row) for row in rows)
        n = len(coerced)
        if n == 0 or any(len(r) != n for r in coerced):
            raise DimensionMismatchError("a nonempty square matrix is required")
        self.spec = spec
        self.rows = coerced
        self._det = None
        self._trop = None

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        one, zero = spec.one(), spec.zero()
        return cls(spec, [[one if i == j else zero for j in range(n)] for i in range(n)])

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
        if other.spec != self.spec or other.size != self.size:
            raise DimensionMismatchError("matrix product of incompatible matrices")
        n = self.size
        zero = self.spec.zero()
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    a = self.rows[i][k]
                    if a.is_zero():
                        continue
                    b = other.rows[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return FieldMatrix(self.spec, out)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if other.spec != self.spec or other.size != self.size:
            raise DimensionMismatchError("matrix difference of incompatible matrices")
        return FieldMatrix(self.spec, [[a - b for a, b in zip(r1, r2)]
                                       for r1, r2 in zip(self.rows, other.rows)])

    def transpose(self) -> "FieldMatrix":
        n = self.size
        return FieldMatrix(self.spec, [[self.rows[j][i] for j in range(n)]
                                       for i in range(n)])

    def determinant(self):
        """Exact determinant by Gaussian elimination over the field."""
        if self._det is None:
            self._det = _determinant(self.rows, self.spec.zero())
        return self._det

    def inverse(self) -> "FieldMatrix":
        n = self.size
        a = [list(r) for r in self.rows]
        b = [list(r) for r in FieldMatrix.identity(self.spec, n).rows]
        for col in range(n):
            piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if piv is None:
                raise SingularMatrixError("matrix is not invertible")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                b[col], b[piv] = b[piv], b[col]
            inv = a[col][col].inv()
            a[col] = [e * inv for e in a[col]]
            b[col] = [e * inv for e in b[col]]
            for r in range(n):
                if r == col or a[r][col].is_zero():
                    continue
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
        return FieldMatrix(self.spec, b)

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

"""Seeded random generators for elements, matrices, words, and points.

Every function takes an explicit random.Random so that a reported seed
reproduces a run exactly.  Matrix words are built by row operations from
generators that are determinant-one by construction: elementary
transvections, unit monomial matrices, and torus elements; symplectic
words additionally use form-compatible block generators and are symplectic
by construction; the symplectic predicates check the form at entry.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .apartment import MonomialMatrix
from .fields import FieldSpec
from .matrices import FieldMatrix, perm_sign
from .symplectic import _embed, antitranspose


def random_fraction(rng: random.Random, max_num=6, max_den=6) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_point(rng: random.Random, n: int, max_num=6, max_den=6) -> tuple:
    return tuple(random_fraction(rng, max_num, max_den) for _ in range(n))


def random_unit(spec: FieldSpec, rng: random.Random):
    """A valuation-zero element."""
    p = spec.p
    if spec.kind == "Qp":
        # numerator and denominator: the k-th of the 3p - 3 integers in
        # [1, 3p) prime to p is k + 1 + k // (p - 1), with k drawn exactly
        # as rng.choice over a list of them would draw its index
        num, den = (k + 1 + k // (p - 1)
                    for k in (rng.randrange(3 * p - 3), rng.randrange(3 * p - 3)))
        sign = rng.choice((1, -1))
        return spec.element(Fraction(sign * num, den))
    coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 2))]
    return spec.polynomial(coeffs)


def random_element(spec: FieldSpec, rng: random.Random, vmin=0, vmax=2):
    """A nonzero element with valuation in [vmin, vmax]."""
    v = rng.randint(vmin, vmax)
    return random_unit(spec, rng) * spec.uniformizer() ** v


def random_integral(spec: FieldSpec, rng: random.Random, allow_zero=True):
    """An element of the valuation ring, possibly zero."""
    if allow_zero and rng.random() < 0.2:
        return spec.zero()
    return random_element(spec, rng, 0, 2)


# ----------------------------------------------------------------------
# row-operation word builders

def _identity_rows(spec, n):
    one, zero = spec.one(), spec.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _left_transvection(rows, i, j, a):
    """Left multiply by the elementary matrix with entry a at (i, j)."""
    rows[i] = [x + a * y for x, y in zip(rows[i], rows[j])]


def _left_scale(rows, i, u):
    rows[i] = [u * x for x in rows[i]]


def _left_permute(rows, perm):
    out = [None] * len(rows)
    for i, target in enumerate(perm):
        out[target] = rows[i]
    rows[:] = out


def _units_with_product(spec, n, rng, sign=1):
    """n - 1 random units, then the inverse of their product times the
    sign, so that all n multiply to the sign."""
    units = [random_unit(spec, rng) for _ in range(n - 1)]
    fix = spec.one()
    for u in units:
        fix = fix * u
    if sign < 0:
        fix = -fix
    units.append(fix.inv())
    return units


def _left_unit_torus(spec, rows, rng):
    """Left multiply by a random diagonal of units with determinant one."""
    for i, u in enumerate(_units_with_product(spec, len(rows), rng)):
        _left_scale(rows, i, u)


def random_monomial(spec: FieldSpec, n: int, rng: random.Random) -> MonomialMatrix:
    """A unit-scalar monomial matrix with determinant one."""
    perm = list(range(n))
    rng.shuffle(perm)
    scalars = _units_with_product(spec, n, rng, perm_sign(tuple(perm)))
    return MonomialMatrix(spec, tuple(perm), tuple(scalars))


def random_torus(spec: FieldSpec, n: int, rng: random.Random, emax=2) -> FieldMatrix:
    """A diagonal determinant-one matrix with uniformizer powers and units."""
    exps = [rng.randint(-emax, emax) for _ in range(n - 1)]
    exps.append(-sum(exps))
    units = _units_with_product(spec, n, rng)
    pi = spec.uniformizer()
    return FieldMatrix.diagonal(spec, [u * pi ** e for u, e in zip(units, exps)])


def random_sl_integral(spec: FieldSpec, n: int, rng: random.Random, length=6) -> FieldMatrix:
    """A word in integral transvections and unit monomial matrices."""
    rows = _identity_rows(spec, n)
    for _ in range(length):
        if rng.random() < 0.75:
            i, j = rng.sample(range(n), 2)
            _left_transvection(rows, i, j, random_integral(spec, rng))
        else:
            mono = random_monomial(spec, n, rng)
            for i, s in enumerate(mono.scalars):
                _left_scale(rows, i, s)
            _left_permute(rows, mono.perm)
    return FieldMatrix(spec, rows)


def conjugate(g: FieldMatrix, t: FieldMatrix) -> FieldMatrix:
    return t * g * t.inverse()


def random_sl(spec: FieldSpec, n: int, rng: random.Random, length=6) -> FieldMatrix:
    """A determinant-one matrix: an integral word, a torus conjugate of one,
    or a word with non-integral transvections."""
    style = rng.randrange(3)
    if style == 0:
        return random_sl_integral(spec, n, rng, length)
    if style == 1:
        word = random_sl_integral(spec, n, rng, length)
        return conjugate(word, random_torus(spec, n, rng))
    rows = _identity_rows(spec, n)
    for _ in range(length):
        i, j = rng.sample(range(n), 2)
        _left_transvection(rows, i, j, random_element(spec, rng, -2, 2))
    return FieldMatrix(spec, rows)


def random_sl_nonintegral(spec: FieldSpec, n: int, rng: random.Random, length=6) -> FieldMatrix:
    """A determinant-one matrix with at least one negative-valuation entry."""
    while True:
        g = random_sl(spec, n, rng, length)
        if not g.is_integral():
            return g


def random_stabilizing(spec: FieldSpec, coords, rng: random.Random, length=6) -> FieldMatrix:
    """A determinant-one matrix fixing the given finite rational vector
    tropically: transvections with valuation at least ceil(x_j - x_i)."""
    coords = [Fraction(c) for c in coords]
    n = len(coords)
    rows = _identity_rows(spec, n)
    for _ in range(length):
        if rng.random() < 0.7:
            i, j = rng.sample(range(n), 2)
            bound = math.ceil(coords[j] - coords[i])
            a = random_element(spec, rng, bound, bound + 2)
            if rng.random() < 0.15:
                a = spec.zero()
            _left_transvection(rows, i, j, a)
        else:
            _left_unit_torus(spec, rows, rng)
    return FieldMatrix(spec, rows)


# ----------------------------------------------------------------------
# symplectic words

def _sp_block_generator(spec, n, rng, upper: bool, integral: bool) -> FieldMatrix:
    """[[1, B], [0, 1]] or [[1, 0], [C, 1]] with the block antidiagonal-symmetric."""
    def entry(i, j):
        if rng.random() < 0.4:
            return spec.zero()
        if integral:
            return random_integral(spec, rng, allow_zero=False)
        return random_element(spec, rng, -1, 2)

    return _sp_block_matrix(spec, n, entry, upper)


def _sp_block_matrix(spec, n, entries, upper: bool) -> FieldMatrix:
    """[[1, B], [0, 1]] or [[1, 0], [B, 1]] for the n x n block B fixed under
    reflection in the antidiagonal, with entries(i, j) on and above it."""
    block = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n - i):
            block[i][j] = entries(i, j)
    rows = _identity_rows(spec, 2 * n)
    for i in range(n):
        for j in range(n):
            b = block[i][j] if i + j <= n - 1 else block[n - 1 - j][n - 1 - i]
            if upper:
                rows[i][n + j] = b
            else:
                rows[n + i][j] = b
    return FieldMatrix(spec, rows)


def _sp_linear_generator(spec, n, rng, integral: bool) -> FieldMatrix:
    """[[A, 0], [0, (A^†)^{-1}]] with A a determinant-one word, or a unit
    for rank one."""
    if n == 1:
        a = FieldMatrix(spec, [[random_unit(spec, rng)]])
    else:
        a = _sl_word_any_size(spec, n, rng, integral)
    inv = antitranspose(a).inverse()
    zero = spec.zero()
    rows = []
    for i in range(n):
        rows.append(list(a.rows[i]) + [zero] * n)
    for i in range(n):
        rows.append([zero] * n + list(inv.rows[i]))
    return FieldMatrix(spec, rows)


def sp_torus(spec: FieldSpec, n: int, entries) -> FieldMatrix:
    """diag(s_1, ..., s_n, s_n^{-1}, ..., s_1^{-1})."""
    ss = [spec.element(s) for s in entries]
    return FieldMatrix.diagonal(spec, ss + [s.inv() for s in reversed(ss)])


def random_sp_torus(spec: FieldSpec, n: int, rng: random.Random, emax=1) -> FieldMatrix:
    pi = spec.uniformizer()
    return sp_torus(spec, n, [random_unit(spec, rng) * pi ** rng.randint(-emax, emax)
                              for _ in range(n)])


def random_sp_monomial(spec: FieldSpec, n: int, rng: random.Random) -> FieldMatrix:
    """A signed-permutation symplectic matrix: an embedded permutation of the
    first n coordinates composed with sign flips in symplectic planes."""
    rows = _identity_rows(spec, 2 * n)
    perm = list(range(n))
    rng.shuffle(perm)
    full = [0] * (2 * n)
    for i, t in enumerate(perm):
        full[i] = t
        full[2 * n - 1 - i] = 2 * n - 1 - t
    _left_permute(rows, full)
    for i in range(n):
        if rng.random() < 0.5:
            a, b = i, 2 * n - 1 - i
            rows[a], rows[b] = rows[b], [-e for e in rows[a]]
    return FieldMatrix(spec, rows)


def random_sp_integral(spec: FieldSpec, n: int, rng: random.Random, length=5) -> FieldMatrix:
    """An integral symplectic word."""
    g = FieldMatrix.identity(spec, 2 * n)
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            f = _sp_block_generator(spec, n, rng, upper=True, integral=True)
        elif kind == 1:
            f = _sp_block_generator(spec, n, rng, upper=False, integral=True)
        elif kind == 2:
            f = _sp_linear_generator(spec, n, rng, integral=True)
        else:
            f = random_sp_monomial(spec, n, rng)
        g = f * g
    return g


def random_sp(spec: FieldSpec, n: int, rng: random.Random, length=5) -> FieldMatrix:
    """A symplectic word, integral or torus-twisted."""
    g = random_sp_integral(spec, n, rng, length)
    style = rng.randrange(3)
    if style == 1:
        g = conjugate(g, random_sp_torus(spec, n, rng))
    elif style == 2:
        g = random_sp_torus(spec, n, rng) * g
    return g


def random_ray_stabilizing(spec: FieldSpec, base, direction,
                           rng: random.Random, length=6) -> FieldMatrix:
    """Determinant-one matrix fixing every point base + s * direction for
    all s >= 0: a transvection at a position whose constraint grows along
    the ray must vanish, otherwise its valuation clears the bound at the
    ray's start."""
    base = [Fraction(c) for c in base]
    direction = [Fraction(c) for c in direction]
    n = len(base)
    rows = _identity_rows(spec, n)
    for _ in range(length):
        if rng.random() < 0.7:
            i, j = rng.sample(range(n), 2)
            if direction[j] > direction[i] or rng.random() < 0.2:
                a = spec.zero()
            else:
                bound = math.ceil(base[j] - base[i])
                a = random_element(spec, rng, bound, bound + 1)
            _left_transvection(rows, i, j, a)
        else:
            _left_unit_torus(spec, rows, rng)
    return FieldMatrix(spec, rows)


def random_sp_ray_adapted(spec: FieldSpec, n: int, base, direction,
                          rng: random.Random, length=4) -> FieldMatrix:
    """Symplectic word fixing every point base + s * direction for all
    s >= 0: unit torus factors and block generators whose entries vanish at
    positions with growing embedded constraints and otherwise clear the
    bound at the ray's start, the antidiagonal mirror position included."""
    y0 = _embed([Fraction(c) for c in base])
    dy = _embed([Fraction(c) for c in direction])

    def bound(row, col):
        if dy[col] > dy[row]:
            return None
        return math.ceil(y0[col] - y0[row])

    def bounded_entry(upper):
        def entry(i, j):
            if rng.random() < 0.5:
                return spec.zero()
            if upper:
                bounds = (bound(i, n + j), bound(n - 1 - j, n + (n - 1 - i)))
            else:
                bounds = (bound(n + i, j), bound(n + (n - 1 - j), n - 1 - i))
            if any(b is None for b in bounds):
                return spec.zero()
            b = max(bounds)
            return random_element(spec, rng, b, b + 1)
        return entry

    g = FieldMatrix.identity(spec, 2 * n)
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            f = sp_torus(spec, n, [random_unit(spec, rng) for _ in range(n)])
        else:
            f = _sp_block_matrix(spec, n, bounded_entry(kind == 1), kind == 1)
        g = f * g
    return g


def _sl_word_any_size(spec, k, rng, integral):
    if k == 1:
        return FieldMatrix(spec, [[spec.one()]])
    if integral:
        return random_sl_integral(spec, k, rng, 4)
    return random_sl(spec, k, rng, 4)


def random_block_triangular(spec: FieldSpec, n: int, inside, rng: random.Random) -> FieldMatrix:
    """Determinant-one matrix preserving the coordinate subspace of the given
    index set: determinant-one inner and outer blocks, free mixed entries on
    the preserved side, zeros on the other.  A reciprocal unit or uniformizer
    pair occasionally rescales one inner and one outer row."""
    inside = sorted(inside)
    outside = [i for i in range(n) if i not in inside]
    integral = rng.random() < 0.6
    a = _sl_word_any_size(spec, len(inside), rng, integral)
    zero = spec.zero()
    rows = [[zero] * n for _ in range(n)]
    for bi, i in enumerate(inside):
        for bj, j in enumerate(inside):
            rows[i][j] = a.rows[bi][bj]
    if outside:
        d = _sl_word_any_size(spec, len(outside), rng, integral)
        for bi, i in enumerate(outside):
            for bj, j in enumerate(outside):
                rows[i][j] = d.rows[bi][bj]
        for i in inside:
            for j in outside:
                if rng.random() < 0.5:
                    rows[i][j] = random_element(spec, rng, -1, 2)
        if rng.random() < 0.5:
            s = random_unit(spec, rng) * spec.uniformizer() ** rng.randint(-1, 1)
            rows[inside[0]] = [s * e for e in rows[inside[0]]]
            rows[outside[0]] = [s.inv() * e for e in rows[outside[0]]]
    return FieldMatrix(spec, rows)

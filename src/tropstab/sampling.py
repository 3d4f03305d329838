"""Seeded random generators for elements, matrices, words, and points.

Every function takes an explicit random.Random so that a reported seed
reproduces a run exactly.  An element is built whole, as the reduced pair
of unit * pi^v.  Words of both groups are built by row operations in
place, without matrix products or inverses: transvections, unit scalings,
permutations, torus factors and entrywise torus conjugates.  Symplectic
words are symplectic by construction; the predicates check the form.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .fields import FieldSpec, FpTElement, QpElement, _trim
from .matrices import FieldMatrix, _add_multiple, _identity_rows, perm_sign
from .symplectic import _embed


def random_fraction(rng: random.Random, max_num=6, max_den=6) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_point(rng: random.Random, n: int, max_num=6, max_den=6) -> tuple:
    return tuple(random_fraction(rng, max_num, max_den) for _ in range(n))


def _unit_times_power(spec: FieldSpec, rng: random.Random, v: int):
    """A random unit times pi^v, built whole with no gcd: over Q_p the unit's
    parts are prime to p, and over F_p(T) it is u with u(0) != 0, so the
    element is T^v * u in normal form."""
    p = spec.p
    if spec.kind == "Qp":
        # numerator and denominator: the k-th of the 3p - 3 integers in
        # [1, 3p) prime to p is k + 1 + k // (p - 1), with k drawn exactly
        # as rng.choice over a list of them would draw its index
        num, den = (k + 1 + k // (p - 1)
                    for k in (rng.randrange(3 * p - 3), rng.randrange(3 * p - 3)))
        g = math.gcd(num, den)
        sign = rng.choice((1, -1))
        return QpElement(spec, sign * (num // g) * p ** max(v, 0), den // g * p ** max(-v, 0))
    coeffs = _trim([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 2))])
    return FpTElement._reduced(spec, v, coeffs, (1,))


def random_unit(spec: FieldSpec, rng: random.Random):
    """A valuation-zero element."""
    return _unit_times_power(spec, rng, 0)


def random_element(spec: FieldSpec, rng: random.Random, vmin=0, vmax=2):
    """A nonzero element with valuation in [vmin, vmax]."""
    return _unit_times_power(spec, rng, rng.randint(vmin, vmax))


def random_integral(spec: FieldSpec, rng: random.Random, allow_zero=True):
    """An element of the valuation ring, possibly zero."""
    if allow_zero and rng.random() < 0.2:
        return spec.zero()
    return random_element(spec, rng, 0, 2)


# ----------------------------------------------------------------------
# row-operation word builders

def _left_transvection(rows, i, j, a):
    """Left multiply by the elementary matrix with entry a at (i, j)."""
    if a:
        _add_multiple(rows[i], a, rows[j], [k for k, e in enumerate(rows[j]) if e])


def _left_scale(rows, i, u):
    rows[i] = [u * x if x else x for x in rows[i]]


def _left_permute(rows, perm):
    """Move row i to perm[i]; on 2n rows for n entries of perm, also row i'
    to perm[i]', with k' = 2n-1-k."""
    out, last = list(rows), len(rows) - 1
    for i, target in enumerate(perm):
        out[target] = rows[i]
        if len(rows) > len(perm):
            out[last - target] = rows[last - i]
    rows[:] = out


def _left_sp_scale(rows, i, u):
    """Left multiply by the torus element with u at i and u^{-1} at i'."""
    _left_scale(rows, i, u)
    _left_scale(rows, len(rows) - 1 - i, u.inv())


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


def _monomial_parts(spec, n, rng):
    """A random permutation and n units whose product is its sign."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, _units_with_product(spec, n, rng, perm_sign(tuple(perm)))


def random_monomial(spec: FieldSpec, n: int, rng: random.Random) -> FieldMatrix:
    """A unit-scalar monomial matrix, scalar s_i in row perm[i] of column i.
    It records its determinant sign(perm) * prod(s_i), which is one."""
    perm, scalars = _monomial_parts(spec, n, rng)
    rows = _identity_rows(spec, n)
    det = spec.one() if perm_sign(perm) > 0 else -spec.one()
    for i, s in enumerate(scalars):
        _left_scale(rows, i, s)
        det = det * s
    _left_permute(rows, perm)
    m = FieldMatrix(spec, rows)
    m._det = det
    return m


def random_torus(spec: FieldSpec, n: int, rng: random.Random, emax=2) -> FieldMatrix:
    """A diagonal determinant-one matrix with uniformizer powers and units."""
    exps = [rng.randint(-emax, emax) for _ in range(n - 1)]
    exps.append(-sum(exps))
    units = _units_with_product(spec, n, rng)
    pi = spec.uniformizer()
    return FieldMatrix.diagonal(spec, [u * pi ** e for u, e in zip(units, exps)])


def _left_integral_word(spec, rows, n, rng, length):
    """Left multiply the first n rows by a word in integral transvections and
    unit monomial matrices.  On 2n rows each step s also acts as its mirror
    (s^†)^{-1} on the last n: E_ij(a) with E_j'i'(-a), a unit u on row i
    with u^{-1} on row i', a permutation with its mirror."""
    last, mirrored = len(rows) - 1, len(rows) > n
    for _ in range(length):
        if rng.random() < 0.75:
            i, j = rng.sample(range(n), 2)
            a = random_integral(spec, rng)
            _left_transvection(rows, i, j, a)
            if mirrored:
                _left_transvection(rows, last - j, last - i, -a)
        else:
            perm, scalars = _monomial_parts(spec, n, rng)
            for i, s in enumerate(scalars):
                (_left_sp_scale if mirrored else _left_scale)(rows, i, s)
            _left_permute(rows, perm)


def random_sl_integral(spec: FieldSpec, n: int, rng: random.Random, length=6) -> FieldMatrix:
    """A word in integral transvections and unit monomial matrices."""
    rows = _identity_rows(spec, n)
    _left_integral_word(spec, rows, n, rng, length)
    return FieldMatrix(spec, rows)


def _torus_conjugate(g: FieldMatrix, t: FieldMatrix) -> FieldMatrix:
    """t g t^{-1} for a diagonal t, entrywise: t_i g_ij t_j^{-1}."""
    diag = [t.rows[i][i] for i in range(t.size)]
    inv = [d.inv() for d in diag]
    return FieldMatrix(g.spec, [[d * e * v if e else e for e, v in zip(row, inv)]
                                for d, row in zip(diag, g.rows)])


def random_sl(spec: FieldSpec, n: int, rng: random.Random, length=6) -> FieldMatrix:
    """A determinant-one matrix: an integral word, a torus conjugate of one,
    or a word with non-integral transvections."""
    style = rng.randrange(3)
    if style == 0:
        return random_sl_integral(spec, n, rng, length)
    if style == 1:
        word = random_sl_integral(spec, n, rng, length)
        return _torus_conjugate(word, random_torus(spec, n, rng))
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

def _left_sp_block(rows, n, entries, upper: bool):
    """Left multiply by [[1, B], [0, 1]] or [[1, 0], [B, 1]] for the n x n
    block B fixed under reflection in the antidiagonal, with entries(i, j)
    on and above it: one transvection per nonzero entry of B."""
    block = [[entries(i, j) for j in range(n - i)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            b = block[i][j] if i + j <= n - 1 else block[n - 1 - j][n - 1 - i]
            if not b:
                continue
            if upper:
                _left_transvection(rows, i, n + j, b)
            else:
                _left_transvection(rows, n + i, j, b)


def sp_torus(spec: FieldSpec, n: int, entries) -> FieldMatrix:
    """diag(s_1, ..., s_n, s_n^{-1}, ..., s_1^{-1})."""
    ss = [spec.element(s) for s in entries]
    return FieldMatrix.diagonal(spec, ss + [s.inv() for s in reversed(ss)])


def _left_sp_monomial(rows, n, rng):
    """Left multiply by a random signed permutation, as random_sp_monomial."""
    perm = list(range(n))
    rng.shuffle(perm)
    _left_permute(rows, perm)
    last = 2 * n - 1
    for i in range(n):
        if rng.random() < 0.5:
            rows[i], rows[last - i] = rows[last - i], [-e for e in rows[i]]


def random_sp_monomial(spec: FieldSpec, n: int, rng: random.Random) -> FieldMatrix:
    """A signed-permutation symplectic matrix: an embedded permutation of the
    first n coordinates composed with sign flips in symplectic planes."""
    rows = _identity_rows(spec, 2 * n)
    _left_sp_monomial(rows, n, rng)
    return FieldMatrix(spec, rows)


def random_sp_integral(spec: FieldSpec, n: int, rng: random.Random, length=5) -> FieldMatrix:
    """An integral symplectic word: integral block generators, [[A, 0],
    [0, (A^†)^{-1}]] for an integral word or unit A, signed permutations."""
    def entry(i, j):
        if rng.random() < 0.4:
            return spec.zero()
        return random_integral(spec, rng, allow_zero=False)

    rows = _identity_rows(spec, 2 * n)
    for _ in range(length):
        kind = rng.randrange(4)
        if kind < 2:
            _left_sp_block(rows, n, entry, upper=kind == 0)
        elif kind == 3:
            _left_sp_monomial(rows, n, rng)
        elif n == 1:
            _left_sp_scale(rows, 0, random_unit(spec, rng))
        else:
            _left_integral_word(spec, rows, n, rng, 4)
    return FieldMatrix(spec, rows)


def random_sp(spec: FieldSpec, n: int, rng: random.Random, length=5) -> FieldMatrix:
    """A symplectic word, integral, torus-conjugated, or times a torus element."""
    g = random_sp_integral(spec, n, rng, length)
    style = rng.randrange(3)
    if style == 0:
        return g
    pi = spec.uniformizer()
    t = sp_torus(spec, n, [random_unit(spec, rng) * pi ** rng.randint(-1, 1)
                           for _ in range(n)])
    if style == 1:
        return _torus_conjugate(g, t)
    return FieldMatrix(spec, [[t.rows[i][i] * e for e in row]
                              for i, row in enumerate(g.rows)])


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

    rows = _identity_rows(spec, 2 * n)
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            for i, u in enumerate([random_unit(spec, rng) for _ in range(n)]):
                _left_sp_scale(rows, i, u)
        else:
            _left_sp_block(rows, n, bounded_entry(kind == 1), kind == 1)
    return FieldMatrix(spec, rows)


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

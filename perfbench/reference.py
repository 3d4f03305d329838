"""Reference answers computed without tropstab.

Everything here uses plain integers, ``Fraction`` and coefficient maps over
F_p, so a fault in the program cannot hide in its own reference.  Minus
infinity is ``None`` throughout.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# ----------------------------------------------------------------------
# valuations

def padic_valuation(q: Fraction, p: int):
    """Exponent of p in a rational; None for zero."""
    if q == 0:
        return None

    def vp(n):
        n, v = abs(n), 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return vp(q.numerator) - vp(q.denominator)


def laurent_add(a: dict, b: dict, p: int) -> dict:
    """Sum of Laurent polynomials over F_p given as {degree: coefficient}."""
    out = dict(a)
    for d, c in b.items():
        s = (out.get(d, 0) + c) % p
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def laurent_mul(a: dict, b: dict, p: int) -> dict:
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            out[d] = (out.get(d, 0) + ca * cb) % p
    return {d: c for d, c in out.items() if c}


def laurent_valuation(a: dict):
    """Order of vanishing at T = 0; None for zero."""
    return min(a) if a else None


def matmul(a, b, add, mul, zero):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = add(acc, mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


# ----------------------------------------------------------------------
# max-plus action and the two stabilizer rules

def trop_matvec(trop, x):
    """Max-plus product; entries and coordinates may be None (minus infinity)."""
    out = []
    for row in trop:
        terms = [m + xj for m, xj in zip(row, x) if m is not None and xj is not None]
        out.append(max(terms) if terms else None)
    return out


def stabilizes_by_inequalities(vals, x) -> bool:
    """v(g_ij) >= x_j - x_i for every nonzero entry: the conjugated-integrality
    rule that decides stabilization of a finite point by a determinant-one
    matrix."""
    n = len(x)
    return all(vals[i][j] is None or vals[i][j] >= x[j] - x[i]
               for i in range(n) for j in range(n))


def stabilizes_by_blocks(vals, b) -> bool:
    """Block rule for a boundary point: no entry leads from the stratum of
    finite coordinates out of it, and on the stratum every row maximum of
    b_j - v(g_ij) equals b_i."""
    inside = [i for i, c in enumerate(b) if c is not None]
    outside = [i for i, c in enumerate(b) if c is None]
    if any(vals[i][j] is not None for i in outside for j in inside):
        return False
    for i in inside:
        terms = [b[j] - vals[i][j] for j in inside if vals[i][j] is not None]
        if not terms or max(terms) != b[i]:
            return False
    return True


# ----------------------------------------------------------------------
# partitions and characters

def padded(lam, n: int) -> tuple:
    return tuple(lam) + (0,) * (n - len(lam))


def compositions(total: int, parts: int):
    """Weak compositions of total into the given number of parts."""
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        bounds = (-1,) + cut + (total + parts - 1,)
        yield tuple(bounds[k + 1] - bounds[k] - 1 for k in range(parts))


def dominated(mu, lam) -> bool:
    """Is the sorted composition mu below lam in dominance order?"""
    a = sorted(mu, reverse=True)
    b = padded(lam, len(a))
    return sum(a) == sum(b) and all(sum(a[:k]) <= sum(b[:k]) for k in range(1, len(a)))


def character_weights(lam, n: int) -> frozenset:
    """Weights of the irreducible character: the compositions dominated by lam,
    exactly those with a nonzero Kostka number."""
    return frozenset(mu for mu in compositions(sum(lam), n) if dominated(mu, lam))


def hook_content_dimension(lam, n: int) -> int:
    """Dimension of the GL_n representation of shape lam."""
    lam = [a for a in lam if a]
    conj = [sum(1 for a in lam if a > c) for c in range(lam[0])] if lam else []
    num = den = 1
    for r, row in enumerate(lam):
        for c in range(row):
            num *= n + c - r
            den *= (row - c - 1) + (conj[c] - r - 1) + 1
    return num // den


def orbit_vertices(lam, n: int) -> frozenset:
    """Vertices of the weight polytope: the distinct permutations of lam."""
    return frozenset(itertools.permutations(padded(lam, n)))


def integer_point(x) -> list:
    """Clear denominators of a rational point."""
    scale = math.lcm(*(q.denominator for q in x))
    return [q.numerator * (scale // q.denominator) for q in x]


def normal_cone_members(vertices, x) -> dict:
    """For each vertex: does it maximize the integer pairing with x?"""
    xi = integer_point(x)
    pair = {v: sum(a * b for a, b in zip(v, xi)) for v in vertices}
    top = max(pair.values())
    return {v: s == top for v, s in pair.items()}


def partition_count(size: int, max_parts: int) -> int:
    """Number of partitions of size with at most max_parts parts."""
    def count(rest, cap, room):
        if rest == 0:
            return 1
        if room == 0:
            return 0
        return sum(count(rest - first, first, room - 1)
                   for first in range(min(rest, cap), 0, -1))
    return count(size, size, max_parts)


def ordered_set_partitions(n: int) -> int:
    """Fubini number: ordered set partitions of n labelled items."""
    if n == 0:
        return 1
    return sum(math.comb(n, k) * ordered_set_partitions(n - k) for k in range(1, n + 1))


def weyl_order(group: str, n: int) -> int:
    return math.factorial(n) * (2 ** n if group == "sp2n" else 1)

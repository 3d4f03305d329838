"""Strict-inequality feasibility over the rationals.

Fourier-Motzkin elimination on homogeneous systems f(x) > 0 with integer
coefficient rows.  Combining a row with positive and one with negative
coefficient in the pivot variable keeps strictness, so the system is
feasible exactly when no all-zero row is ever produced.  That holds in any
elimination order; the variable eliminated next is the one with the fewest
positive-times-negative row pairs, which keeps the systems small.
"""

from __future__ import annotations

from math import gcd

from .errors import InputError


def _primitive_vector(row) -> tuple:
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*row)
    return tuple(c // g for c in row) if g > 1 else tuple(row)


def strictly_feasible(rows) -> bool:
    """Is there a real vector x with f . x > 0 for every functional f?"""
    rows = [tuple(int(c) for c in r) for r in rows]
    if not rows:
        return True
    dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise InputError("functionals of mixed dimensions")
    work = set()
    for r in rows:
        if not any(r):
            return False
        work.add(_primitive_vector(r))
    left = list(range(dim))
    while work:
        var = min(left, key=lambda v: sum(r[v] > 0 for r in work)
                  * sum(r[v] < 0 for r in work))
        left.remove(var)
        pos = [r for r in work if r[var] > 0]
        neg = [r for r in work if r[var] < 0]
        nxt = {r for r in work if r[var] == 0}
        for a in pos:
            for b in neg:
                comb = tuple(-b[var] * ak + a[var] * bk for ak, bk in zip(a, b))
                if not any(comb):
                    return False
                nxt.add(_primitive_vector(comb))
        work = nxt
    return True

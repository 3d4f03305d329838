"""Weight systems of the built-in representations and their geometry.

A WeightedCharacter is a finite map from integer weight vectors to
multiplicities, and a group.  From it we compute the dominance cone of
each extreme weight, the complete fan of such cones, the vertex set of the
weight polytope (by exact integer certificates, and linear feasibility
where they say nothing), and membership in the tropical hypersurface cut
out by the character, whose locus coincides with the codimension-one
skeleton of the fan.  Two independent routes evaluate Schur polynomials:
semistandard tableau enumeration and the bialternant determinant ratio.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from .errors import (DimensionMismatchError, InputError, NotAVertexError,
                     RepeatedValuesError, TooManyPartsError,
                     TypeMismatchError, WeightMismatchError)
from .feasibility import _primitive_vector, strictly_feasible
from .fields import FieldSpec, _exact, int_valuation
from .groups import GROUP_SL, GROUP_SP, Group, as_group
from .matrices import _eliminate
from .tropical import NEG_INF, _scaled_int_vector, trop_vector


# ----------------------------------------------------------------------
# partitions, tableaux, Kostka numbers, Schur polynomials

def as_partition(lam) -> tuple:
    """Validate and normalize a partition: weakly decreasing, trailing zeros dropped."""
    t = tuple(_exact(a, int, "partition part") for a in lam)
    if any(a < 0 for a in t):
        raise InputError("partition parts must be nonnegative")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise InputError("partition parts must be weakly decreasing")
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def kostka_number(lam, mu) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    Counted by direct backtracking: rows weakly increase, columns strictly
    increase, letter i is used exactly mu_i times.
    """
    lam = as_partition(lam)
    mu = tuple(_exact(m, int, "content entry") for m in mu)
    if any(m < 0 for m in mu):
        raise InputError("content entries must be nonnegative")
    if sum(lam) != sum(mu):
        raise WeightMismatchError("partition size and content size differ")
    if not lam:
        return 1
    letters = len(mu)
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    grid = [[0] * lam[r] for r in range(len(lam))]
    remaining = list(mu)
    total = 0

    def fill(k):
        nonlocal total
        if k == len(cells):
            total += 1
            return
        r, c = cells[k]
        lo = grid[r][c - 1] if c else 1
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, letters + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                grid[r][c] = v
                fill(k + 1)
                remaining[v - 1] += 1
        grid[r][c] = 0

    fill(0)
    return total


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def partitions_of(m: int, max_parts: int | None = None):
    """All partitions of m, largest part first, optionally with bounded length."""
    limit = m if max_parts is None else max_parts

    def rec(rest, cap, room):
        if rest == 0:
            yield ()
            return
        if room == 0:
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first, room - 1):
                yield (first,) + tail

    yield from rec(m, m, limit)


class WeightedCharacter:
    """Finite weight-multiplicity map of a representation on the torus."""

    __slots__ = ("group", "rank", "_map", "_vertices", "_fan", "_dominant")

    def __init__(self, group: Group, rank: int, multiplicities):
        group = as_group(group)
        mp = {}
        for mu, c in dict(multiplicities).items():
            mu = tuple(_exact(a, int, "weight entry") for a in mu)
            if len(mu) != rank:
                raise InputError("weight length does not match the rank")
            c = _exact(c, int, "multiplicity")
            if c < 1:
                raise InputError("multiplicities must be positive")
            mp[mu] = c
        if not mp:
            raise InputError("empty character")
        self.group = group
        self.rank = rank
        self._map = mp
        self._vertices = None
        self._fan = None
        self._dominant = None

    @property
    def weights(self) -> tuple:
        return tuple(sorted(self._map))

    def items(self):
        return tuple(sorted(self._map.items()))

    def multiplicity(self, mu) -> int:
        return self._map.get(tuple(mu), 0)

    def dimension(self) -> int:
        return sum(self._map.values())

    def __eq__(self, other):
        if not isinstance(other, WeightedCharacter):
            return NotImplemented
        return (self.group, self.rank, self._map) == (other.group, other.rank, other._map)

    def __repr__(self):
        return f"WeightedCharacter({self.group}, rank={self.rank}, dim={self.dimension()})"


def _standard_character(group: Group, n: int) -> WeightedCharacter:
    """The Weyl orbit of the first coordinate character, each weight once."""
    return WeightedCharacter(group, n, {tuple(s * (j == i) for j in range(n)): 1
                                        for i in range(n) for s in group.signs})


def sl_identity_character(n: int) -> WeightedCharacter:
    """Weights of the identity representation: the n coordinate characters."""
    if n < 2:
        raise InputError("rank at least two required")
    return _standard_character(GROUP_SL, n)


def sp_standard_character(n: int) -> WeightedCharacter:
    """Weights of the standard symplectic representation: plus-minus coordinates."""
    if n < 1:
        raise InputError("rank at least one required")
    return _standard_character(GROUP_SP, n)


@lru_cache(maxsize=None)
def _partition_character(lam: tuple, n: int) -> WeightedCharacter:
    weights = {}
    for mu in _compositions(sum(lam), n):
        k = kostka_number(lam, mu)
        if k:
            weights[mu] = k
    return WeightedCharacter(GROUP_SL, n, weights)


def sl_partition_character(lam, n: int) -> WeightedCharacter:
    """Weight multiplicities of the irreducible representation attached to a partition.

    The multiplicity of a content vector mu is the Kostka number for
    (lam, mu); contents with Kostka number zero are omitted.
    """
    lam = as_partition(lam)
    if len(lam) > n:
        raise TooManyPartsError("partition has more parts than the rank")
    return _partition_character(lam, n)


def _schur_input(lam, z) -> tuple:
    """The partition and the exact evaluation point, checked for length."""
    lam = as_partition(lam)
    zs = tuple(_exact(v, Fraction, "evaluation value") for v in z)
    if len(lam) > len(zs):
        raise TooManyPartsError("partition has more parts than variables")
    return lam, zs


def schur_eval_tableaux(lam, z: Sequence) -> Fraction:
    """Schur polynomial value as the content-generating sum over tableaux."""
    lam, zs = _schur_input(lam, z)
    n = len(zs)
    if not lam:
        return Fraction(1)
    total = Fraction(0)
    for mu, k in sl_partition_character(lam, n).items():
        term = Fraction(k)
        for zi, mi in zip(zs, mu):
            if mi:
                term *= zi ** mi
        total += term
    return total


def schur_eval_bialternant(lam, z: Sequence) -> Fraction:
    """Schur polynomial value as a ratio of alternant determinants."""
    lam, zs = _schur_input(lam, z)
    n = len(zs)
    if len(set(zs)) != n:
        raise RepeatedValuesError("bialternant requires pairwise distinct values")
    if n == 0:
        return Fraction(1)  # both alternants are empty, of determinant one
    padded = lam + (0,) * (n - len(lam))
    zero = Fraction(0)
    num = _eliminate([[zj ** (padded[i] + n - 1 - i) for zj in zs] for i in range(n)], zero)
    den = _eliminate([[zj ** (n - 1 - i) for zj in zs] for i in range(n)], zero)
    return num / den


def schur_eval(lam, z: Sequence) -> Fraction:
    """Evaluate by both routes and insist that they agree."""
    a = schur_eval_tableaux(lam, z)
    b = schur_eval_bialternant(lam, z)
    if a != b:
        raise ArithmeticError(f"tableau and bialternant evaluations differ: {a} vs {b}")
    return a


# ----------------------------------------------------------------------
# Weyl elements, cones, fans

@dataclass(frozen=True)
class WeylElement:
    """A (signed) permutation: index i goes to perm[i] with sign signs[i]."""

    perm: tuple
    signs: tuple

    def apply(self, vec):
        out = [0] * len(vec)
        for i, (p, s) in enumerate(zip(self.perm, self.signs)):
            out[p] = vec[i] if s == 1 else -vec[i]
        return tuple(out)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """First apply other, then self."""
        n = len(self.perm)
        perm = [0] * n
        signs = [1] * n
        for i in range(n):
            perm[i] = self.perm[other.perm[i]]
            signs[i] = other.signs[i] * self.signs[other.perm[i]]
        return WeylElement(tuple(perm), tuple(signs))

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        return cls(tuple(range(n)), (1,) * n)


def weyl_elements(group: Group, n: int):
    """All Weyl elements: permutations, or signed permutations for the symplectic type."""
    group = as_group(group)
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product(group.signs, repeat=n):
            yield WeylElement(perm, signs)


def weyl_orbit(group: Group, mu) -> set:
    """The distinct images w.apply(mu) over all Weyl elements w, built
    coordinate by coordinate: the work follows the orbit, not the group."""
    group = as_group(group)
    orbit = set()
    for a in set(mu):
        i = mu.index(a)
        rest = weyl_orbit(group, mu[:i] + mu[i + 1:]) if len(mu) > 1 else {()}
        orbit.update((s * a,) + r for s in group.signs for r in rest)
    return orbit


@dataclass(frozen=True)
class Cone:
    """Closed polyhedral cone in H-representation: all functionals nonnegative."""

    functionals: tuple

    def contains(self, coords) -> bool:
        """Decided on a positive integer multiple of the rational point coords."""
        xi, _ = _cleared(coords)
        return all(sum(map(mul, f, xi)) >= 0 for f in self.functionals)


@dataclass(frozen=True)
class FanCone:
    vertex: tuple
    cone: Cone


@dataclass(frozen=True)
class Fan:
    """Maximal cones of a complete fan, each tagged with its extreme weight."""

    group: Group
    rank: int
    maximal_cones: tuple

    def __len__(self):
        return len(self.maximal_cones)


def _cleared(x):
    """(xi, scale) with xi = scale * x integral: a vector of plain ints is
    its own multiple, any other goes through _scaled_int_vector."""
    if set(map(type, x)) == {int}:
        return list(x), 1
    return _scaled_int_vector(x)


def integer_coords(x, rank: int):
    """(xi, scale) with xi = scale * x integral and scale > 0, for a
    sequence x of integers and rationals."""
    cs = trop_vector(x)
    if any(c is NEG_INF for c in cs):
        raise InputError("finite coordinates required")
    if len(cs) != rank:
        raise DimensionMismatchError("point dimension does not match the rank")
    return _cleared(cs)


def weight_eval(mu, coords):
    return sum(map(mul, mu, coords))


def dominant_weight(char: WeightedCharacter) -> tuple:
    """The extreme weight that dominates a regular point of the leading chamber."""
    if char._dominant is None:
        probe = tuple(range(char.rank, 0, -1))
        vals = {mu: weight_eval(mu, probe) for mu in char.weights}
        top = max(vals.values())
        best = [mu for mu, val in vals.items() if val == top]
        if len(best) > 1:
            raise InputError("character has no unique leading extreme weight")
        char._dominant = best[0]
    return char._dominant


def _check_weyl(char: WeightedCharacter, w: WeylElement):
    if len(w.perm) != char.rank:
        raise TypeMismatchError("Weyl element rank does not match the character")
    choices = char.group.signs
    if any(s not in choices for s in w.signs):
        raise TypeMismatchError(
            f"Weyl elements of type {char.group} take only the signs {choices}")


def _cone_of_vertex(char: WeightedCharacter, mu0) -> Cone:
    fns = {_primitive_vector(tuple(a - b for a, b in zip(mu0, mu)))
           for mu in char.weights if mu != mu0}
    return Cone(tuple(sorted(fns)))


def dominance_cone(char: WeightedCharacter, w: WeylElement) -> Cone:
    """Locus where the w-image of the leading extreme weight dominates all weights."""
    _check_weyl(char, w)
    mu0 = w.apply(dominant_weight(char))
    return next(fc.cone for fc in weight_fan(char).maximal_cones if fc.vertex == mu0)


def weight_fan(char: WeightedCharacter) -> Fan:
    """All dominance cones, one per extreme weight in the Weyl orbit."""
    if char._fan is None:
        orbit = sorted(weyl_orbit(char.group, dominant_weight(char)))
        char._fan = Fan(char.group, char.rank,
                        tuple(FanCone(v, _cone_of_vertex(char, v)) for v in orbit))
    return char._fan


def polytope_vertices(char: WeightedCharacter) -> frozenset:
    """Weights exposed by some linear functional.  Two integer certificates
    decide mu where they can: f = N*mu - S, for S the sum of the N weights,
    exposes it, or it is the midpoint of two other weights; strict
    feasibility of the rows mu - nu decides the rest."""
    if char._vertices is None:
        verts = []
        ws = char.weights
        total = [sum(c) for c in zip(*ws)]
        for i, mu in enumerate(ws):
            f = [len(ws) * a - s for a, s in zip(mu, total)]
            vals = [sum(map(mul, f, nu)) for nu in ws]
            top = vals[i]
            if max(vals) == top and vals.count(top) == 1:
                verts.append(mu)
                continue
            others = [nu for nu in ws if nu != mu]
            if any(tuple(2 * a - b for a, b in zip(mu, nu)) in char._map for nu in others):
                continue
            if strictly_feasible([tuple(a - b for a, b in zip(mu, nu)) for nu in others]):
                verts.append(mu)
        char._vertices = frozenset(verts)
    return char._vertices


def normal_cone_member(char: WeightedCharacter, mu, x) -> bool:
    """Is x in the normal cone of the given polytope vertex?"""
    mu = tuple(a if type(a) is int else _exact(a, int, "vertex entry") for a in mu)
    if mu not in polytope_vertices(char):
        raise NotAVertexError(f"{mu} is not a vertex of the weight polytope")
    xi, _ = integer_coords(x, char.rank)
    top = weight_eval(mu, xi)
    return all(weight_eval(nu, xi) <= top for nu in char._map)


# ----------------------------------------------------------------------
# tropical character hypersurface and fan skeleton

def tropical_hypersurface_member(char: WeightedCharacter, field, x) -> bool:
    """Tie detection for the tropicalized character.

    Each weight contributes minus the p-adic valuation of its multiplicity
    plus the pairing with x; membership means the maximum is attained at
    least twice.  Multiplicities are read in characteristic zero.  The
    terms are compared scaled by the positive integer that clears x.
    """
    p = field.p if isinstance(field, FieldSpec) else int(field)
    xi, scale = integer_coords(x, char.rank)
    best = None
    count = 0
    for mu, c in char._map.items():
        t = weight_eval(mu, xi) - int_valuation(c, p) * scale
        if best is None or t > best:
            best, count = t, 1
        elif t == best:
            count += 1
    return count >= 2


def skeleton_member(fan: Fan, x) -> bool:
    """Is x in at least two distinct maximal cones of the fan?"""
    xi, _ = integer_coords(x, fan.rank)
    hits = 0
    for fc in fan.maximal_cones:
        if fc.cone.contains(xi):
            hits += 1
            if hits >= 2:
                return True
    return False


def weyl_cone(group: Group, n: int, w: WeylElement) -> Cone:
    """The w-image of the leading Weyl chamber, as an H-representation."""
    group = as_group(group)
    base = []
    for i in range(n - 1):
        row = [0] * n
        row[i], row[i + 1] = 1, -1
        base.append(tuple(row))
    if -1 in group.signs:  # the sign flip of the last coordinate is a simple reflection
        last = [0] * n
        last[n - 1] = 1
        base.append(tuple(last))
    return Cone(tuple(sorted(_primitive_vector(w.apply(f)) for f in base)))


def canonical_weight(group: Group, mu) -> tuple:
    """Canonical representative: for the special linear type, last coordinate zero."""
    group = as_group(group)
    mu = tuple(int(a) for a in mu)
    if group is GROUP_SL and mu:
        mu = tuple(a - mu[-1] for a in mu)
    return mu

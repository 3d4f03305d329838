import itertools
import random
from fractions import Fraction

import pytest

from tropstab import matrices, sampling, suites
from tropstab.apartment import (ApartmentPoint, SpApartmentPoint, normalizer_action, origin,
                                parahoric_oracle, ray_membership,
                                stabilizer_membership)
from tropstab.compactification import (BoundaryPoint, boundary_block_oracle,
                                       boundary_point_from_direction,
                                       direction_for_stratum)
from tropstab.errors import (AllInfiniteError, DeterminantNotOneError,
                             DimensionMismatchError, DomainError, InputError,
                             InvalidDirectionError, NotSymplecticError)
from tropstab.fields import FieldSpec
from tropstab.groups import GROUP_SL, GROUP_SP
from tropstab.matrices import FieldMatrix
from tropstab.symplectic import _embed, _require_symplectic
from tropstab.tropical import (NEG_INF, fixes_ray, stabilizes_tropically, trop_matvec,
                               tropicalize)
from tropstab.weights import sl_identity_character, sp_standard_character, weight_fan

Q2 = FieldSpec("Qp", 2)
Q5 = FieldSpec("Qp", 5)
F3T = FieldSpec("FpT", 3)


def fixes_limit(g, x, d):
    """Does g fix the limit of x + s*d?"""
    return stabilizer_membership(g, boundary_point_from_direction(x, d))


def test_stratum_examples():
    assert BoundaryPoint((0, NEG_INF, 3)).stratum == frozenset({0, 2})
    assert BoundaryPoint((Fraction(1, 2), 1, 0)).stratum == frozenset({0, 1, 2})
    assert BoundaryPoint((NEG_INF, 0)).stratum == frozenset({1})
    with pytest.raises(AllInfiniteError):
        BoundaryPoint((NEG_INF, NEG_INF))


def test_boundary_point_canonical_form():
    b = BoundaryPoint((3, NEG_INF, 5))
    assert b.coords == (0, NEG_INF, 2)
    assert b.stratum == frozenset({0, 2})
    assert b == BoundaryPoint((Fraction(-1), NEG_INF, 1))
    assert b != BoundaryPoint((0, NEG_INF, 3))


def test_points_of_different_types_never_compare_equal():
    coords = (0, 0)
    points = [ApartmentPoint(coords), SpApartmentPoint(coords), BoundaryPoint(coords)]
    assert all(p.coords == points[0].coords for p in points)
    for a, b in itertools.permutations(points, 2):
        assert a != b and not a == b
    assert len(set(points)) == 3


def test_point_types_fix_their_groups():
    assert ApartmentPoint((1, 0)).group is GROUP_SL
    assert SpApartmentPoint((1, 0)).group is GROUP_SP
    for point_type in (ApartmentPoint, SpApartmentPoint):
        with pytest.raises(TypeError):
            point_type((1, 0), GROUP_SL)
    # a boundary point is given its group, and the normalizer action keeps it
    b = boundary_point_from_direction(SpApartmentPoint((1, 0)), (1, 0))
    assert b.group is GROUP_SP and BoundaryPoint(b.coords).group is GROUP_SL
    moved = normalizer_action(FieldMatrix.identity(Q2, 4), b)
    assert moved == b and moved.group is GROUP_SP


def test_boundary_point_from_direction_examples():
    n = 3
    x = ApartmentPoint((Fraction(5), Fraction(7), Fraction(11)))
    interior = direction_for_stratum({0}, n)
    b = boundary_point_from_direction(x, interior)
    assert b.coords == (0, NEG_INF, NEG_INF)

    pair = direction_for_stratum({0, 1}, n)
    b2 = boundary_point_from_direction(origin(3), pair)
    assert b2.coords == (0, 0, NEG_INF)

    trivial = direction_for_stratum({0, 1, 2}, n)
    b3 = boundary_point_from_direction(x, trivial)
    assert b3.stratum == frozenset({0, 1, 2})
    assert b3 == BoundaryPoint(x.coords)


def test_direction_for_stratum_rejects_bad_input():
    with pytest.raises(InvalidDirectionError):
        direction_for_stratum(set(), 3)
    with pytest.raises(InvalidDirectionError):
        direction_for_stratum({5}, 3)
    with pytest.raises(InvalidDirectionError):
        direction_for_stratum({0.5}, 3)
    with pytest.raises(InvalidDirectionError):
        direction_for_stratum({"a"}, 3)
    with pytest.raises(InvalidDirectionError):
        boundary_point_from_direction(origin(2), ())


def test_directions_lie_in_their_fan_cones():
    # a stratum's direction is a sum-zero point of the cone of e_{min I} and
    # its limit has stratum I; the nonzero Sp4 directions are the four cone
    # interiors, each in one maximal cone, and the four rays, each in two
    rng = random.Random(29)
    for n in range(2, 6):
        cones = {fc.vertex: fc.cone
                 for fc in weight_fan(sl_identity_character(n)).maximal_cones}
        for k in range(1, n + 1):
            for I in itertools.combinations(range(n), k):
                d = direction_for_stratum(I, n)
                assert sum(d) == 0
                assert cones[tuple(int(i == min(I)) for i in range(n))].contains(d)
                x = sampling.random_point(rng, n)
                assert boundary_point_from_direction(ApartmentPoint(x), d).stratum == frozenset(I)
    sp_cones = [fc.cone for fc in weight_fan(sp_standard_character(2)).maximal_cones]
    trivial, *directions = suites._SP4_DIRECTIONS
    assert trivial == (0, 0)
    assert [sum(c.contains(d) for c in sp_cones) for d in directions] == [1] * 4 + [2] * 4


def test_limits_reject_infinite_directions():
    g = sampling.random_sp(Q2, 2, random.Random(31))
    x = SpApartmentPoint((0, 0))
    for limit in (lambda: boundary_point_from_direction(origin(2), (0, NEG_INF)),
                  lambda: boundary_point_from_direction(x, (0, NEG_INF)),
                  lambda: fixes_limit(g, x, (0, NEG_INF))):
        with pytest.raises(DomainError):
            limit()


def test_non_rational_coordinates_are_input_errors():
    g = FieldMatrix.identity(Q2, 2)
    for bad in ("a", None, object()):
        for build in (ApartmentPoint, BoundaryPoint,
                      lambda c: stabilizes_tropically(g, c)):
            with pytest.raises(InputError):
                build((bad, 0))
    with pytest.raises(InputError):
        ApartmentPoint((NEG_INF, 0))


def test_boundary_stabilizes_half_infinite_case():
    rng = random.Random(3)
    b = BoundaryPoint((0, NEG_INF))
    for _ in range(120):
        g = (sampling.random_block_triangular(Q2, 2, [0], rng)
             if rng.random() < 0.5 else sampling.random_sl(Q2, 2, rng, 4))
        explicit = g.rows[1][0].is_zero() and \
            (not g.rows[0][0].is_zero()) and g.rows[0][0].valuation() == 0
        assert stabilizer_membership(g, b) == explicit


def test_identity_stabilizes_every_boundary_point():
    identity = FieldMatrix.identity(Q5, 3)
    for coords in ((0, NEG_INF, NEG_INF), (NEG_INF, 2, Fraction(1, 2)),
                   (1, 2, 3)):
        assert stabilizer_membership(identity, BoundaryPoint(coords))


def test_full_stratum_reduces_to_plain_stabilization():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.choice((2, 3))
        x = sampling.random_point(rng, n)
        g = sampling.random_sl(Q2, n, rng, 4)
        assert stabilizer_membership(g, BoundaryPoint(x)) == \
            stabilizes_tropically(g, x)


def test_boundary_requires_determinant_one():
    with pytest.raises(DeterminantNotOneError):
        stabilizer_membership(FieldMatrix.diagonal(Q2, [2, 1]),
                            BoundaryPoint((0, NEG_INF)))


def test_block_oracle_equivalence():
    rng = random.Random(7)
    for spec in (Q2, F3T):
        for n in (2, 3):
            strata = [s for k in range(1, n + 1)
                      for s in __import__("itertools").combinations(range(n), k)]
            for inside in strata:
                for _ in range(30):
                    coords = [NEG_INF] * n
                    for i in inside:
                        coords[i] = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                    b = BoundaryPoint(coords)
                    g = (sampling.random_block_triangular(spec, n, inside, rng)
                         if rng.random() < 0.5
                         else sampling.random_sl(spec, n, rng, 4))
                    assert stabilizer_membership(g, b) == boundary_block_oracle(g, b)


def test_boundary_group_property():
    rng = random.Random(9)
    b = BoundaryPoint((0, Fraction(1, 2), NEG_INF))
    hits = 0
    for _ in range(200):
        g = sampling.random_block_triangular(Q2, 3, [0, 1], rng)
        h = sampling.random_block_triangular(Q2, 3, [0, 1], rng)
        if stabilizer_membership(g, b) and stabilizer_membership(h, b):
            hits += 1
            assert stabilizer_membership(g * h, b)
            assert stabilizer_membership(g.inverse(), b)
    assert hits > 0


def test_monomial_equivariance():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.choice((2, 3))
        inside = rng.choice([s for k in range(1, n + 1)
                             for s in __import__("itertools").combinations(range(n), k)])
        coords = [NEG_INF] * n
        for i in inside:
            coords[i] = Fraction(rng.randint(-2, 2))
        b = BoundaryPoint(coords)
        m = sampling.random_monomial(Q2, n, rng)
        g = (sampling.random_block_triangular(Q2, n, inside, rng)
             if rng.random() < 0.5 else sampling.random_sl(Q2, n, rng, 4))
        assert stabilizer_membership(g, b) == \
            stabilizer_membership(m * g * m.inverse(), normalizer_action(m, b))


def test_limit_coherence_one_directional():
    rng = random.Random(13)
    strata = [s for size in (1, 2, 3) for s in itertools.combinations(range(4), size)]
    for spec in (Q2, F3T):
        for _ in range(100):
            n = rng.choice((3, 4))
            d = direction_for_stratum(rng.choice([s for s in strata if max(s) < n]), n)
            x = ApartmentPoint(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)))
            g = sampling.random_ray_stabilizing(spec, x.coords, d, rng)
            assert fixes_ray(g, x.coords, d)
            assert stabilizer_membership(g, boundary_point_from_direction(x, d))


def test_converse_of_limit_coherence_fails():
    # stabilizing the limit does not require stabilizing the ray: this
    # matrix fixes (0, -inf) but moves the ray's base point (0, 0)
    p = Q2.uniformizer()
    g = FieldMatrix(Q2, [[1, p.inv()], [0, 1]])
    b = BoundaryPoint((0, NEG_INF))
    assert stabilizer_membership(g, b)
    assert not stabilizes_tropically(g, (0, 0))


# ----------------------------------------------------------------------
# symplectic boundary

def test_sp_boundary_point_examples():
    x = SpApartmentPoint((0, 0))
    d = (Fraction(1), Fraction(0))
    b = boundary_point_from_direction(x, d)
    assert b.coords == (0, NEG_INF, NEG_INF, NEG_INF)

    ray = (Fraction(1), Fraction(1))
    b2 = boundary_point_from_direction(SpApartmentPoint((Fraction(1, 2), 0)), ray)
    assert b2.coords == (0, Fraction(-1, 2), NEG_INF, NEG_INF)

    trivial = (Fraction(0), Fraction(0))
    b3 = boundary_point_from_direction(x, trivial)
    assert b3.stratum == frozenset(range(4))


def test_sp_rank_one_boundary_matches_special_linear():
    rng = random.Random(17)
    d = (Fraction(1),)
    x = SpApartmentPoint((0,))
    for _ in range(60):
        g = sampling.random_sp(Q2, 1, rng)
        expected = stabilizer_membership(g, BoundaryPoint((0, NEG_INF)))
        assert fixes_limit(g, x, d) == expected


def test_sp_trivial_direction_reduces_to_stabilizer():
    rng = random.Random(19)
    d = (Fraction(0), Fraction(0))
    for _ in range(40):
        g = sampling.random_sp(Q2, 2, rng)
        x = SpApartmentPoint(sampling.random_point(rng, 2))
        assert fixes_limit(g, x, d) == stabilizer_membership(g, x)


def test_sp_boundary_requires_symplectic():
    d = (Fraction(1), Fraction(0))
    with pytest.raises(NotSymplecticError):
        fixes_limit(FieldMatrix.diagonal(Q2, [2, 1, 1, 1]), SpApartmentPoint((0, 0)), d)


def test_limit_and_boundary_point_of_other_groups_differ():
    # equal coordinates, but the limit keeps the symplectic group check
    a = boundary_point_from_direction(SpApartmentPoint((1, 0)), (1, 0))
    b = BoundaryPoint(a.coords)
    assert a.coords == b.coords and hash(a) == hash(b)
    assert a != b
    assert {b: 1}.get(a) is None
    g = FieldMatrix.diagonal(Q2, [2, Fraction(1, 2), 1, 1])
    with pytest.raises(NotSymplecticError):
        stabilizer_membership(g, a)
    assert stabilizer_membership(g, b) is False


def test_boundary_predicates_reject_wrong_sizes():
    with pytest.raises(DimensionMismatchError):
        stabilizer_membership(FieldMatrix.identity(Q2, 3), BoundaryPoint((0, NEG_INF)))
    g = sampling.random_sp(Q2, 3, random.Random(61))
    with pytest.raises(DimensionMismatchError):
        fixes_limit(g, SpApartmentPoint((0, 0)), (Fraction(1), Fraction(0)))


def test_sp_predicates_eliminate_no_matrix(monkeypatch):
    # the form check records determinant one, so no predicate after it
    # eliminates the matrix; half the words fix the ray, so both answers occur
    rng = random.Random(67)
    x = SpApartmentPoint((Fraction(1, 4), 0))
    d = (Fraction(1), Fraction(1))
    words = [w for spec in (Q2, F3T) for _ in range(3)
             for w in (sampling.random_sp(spec, 2, rng),
                       sampling.random_sp_ray_adapted(spec, 2, x.coords, d, rng))]

    def fresh(g):
        return FieldMatrix(g.spec, g.rows)

    y = ApartmentPoint(x.embed(x.coords))
    expected = [(stabilizer_membership(g, y), fixes_ray(g, y.coords, _embed(d)),
                 parahoric_oracle(g, y), stabilizer_membership(g, boundary_point_from_direction(x, d)))
                for g in words]

    def refuse(rows, zero):
        raise AssertionError("a symplectic matrix was eliminated")

    monkeypatch.setattr(matrices, "_eliminate", refuse)
    assert [(stabilizer_membership(fresh(g), x), ray_membership(fresh(g), x, d),
             parahoric_oracle(fresh(g), x), fixes_limit(fresh(g), x, d))
            for g in words] == expected


def test_sp_predicates_reject_non_symplectic_products():
    # det-one matrices that break the form, alone and multiplied by checked
    # symplectic words: only both factors passing makes a product pass
    rng = random.Random(71)
    x = SpApartmentPoint((0, 0))
    d = (Fraction(1), Fraction(0))
    for spec in (Q2, F3T):
        g = sampling.random_sp(spec, 2, rng)
        _require_symplectic(g)
        pi = spec.uniformizer()
        bad = FieldMatrix.diagonal(spec, [pi, pi.inv(), 1, 1])
        for m in (bad, g * bad, bad * g, g * bad.inverse(), (g * bad) * g.inverse()):
            assert m.determinant() == spec.one()
            for predicate in (lambda: stabilizer_membership(m, x),
                              lambda: ray_membership(m, x, d),
                              lambda: parahoric_oracle(m, x),
                              lambda: fixes_limit(m, x, d)):
                with pytest.raises(NotSymplecticError):
                    predicate()


def test_sp_limit_coherence():
    rng = random.Random(23)
    for spec in (Q2, F3T):
        for d in ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)),
                  (Fraction(0), Fraction(-1)), (Fraction(-1), Fraction(1))):
            for _ in range(15):
                x = SpApartmentPoint(tuple(Fraction(rng.randint(-1, 1))
                                           for _ in range(2)))
                g = sampling.random_sp_ray_adapted(spec, 2, x.coords, d, rng)
                assert ray_membership(g, x, d)
                assert fixes_limit(g, x, d)


# ----------------------------------------------------------------------
# points that carry their group

@pytest.mark.parametrize("spec", [Q2, F3T], ids=["Q2", "F3T"])
def test_predicates_decide_on_the_embedded_point(spec):
    # each point-level predicate is its tuple kernel on x.embed(x.coords),
    # for a special-linear point, a symplectic one and a symplectic limit;
    # every even word fixes its point, so both answers occur
    rng = random.Random(79)
    base, ray = SpApartmentPoint((Fraction(1, 4), 0)), (1, 0)
    sl = ApartmentPoint((Fraction(1, 4), Fraction(-1, 8), Fraction(-1, 8)))

    def sl_word(k):
        if k % 2:
            return sampling.random_sl(spec, 3, rng, 4)
        return sampling.random_stabilizing(spec, sl.coords, rng)

    def sp_word(k):
        if k % 2:
            return sampling.random_sp(spec, 2, rng)
        return sampling.random_sp_ray_adapted(spec, 2, base.coords, ray, rng)

    def sl_monomial():
        return sampling.random_monomial(spec, 3, rng)

    def sp_monomial():
        return sampling.random_sp_monomial(spec, 2, rng)

    cases = [(sl, sl_word, sl_monomial), (base, sp_word, sp_monomial),
             (boundary_point_from_direction(base, ray), sp_word, sp_monomial)]
    for x, word, monomial in cases:
        ys = x.embed(x.coords)
        seen = set()
        for k in range(20):
            g, m = word(k), monomial()
            d = tuple(Fraction(rng.randint(-1, 1)) for _ in x.coords)
            fixed = stabilizer_membership(g, x)
            seen.add(fixed)
            assert fixed == stabilizes_tropically(g, ys)
            assert ray_membership(g, x, d) == fixes_ray(g, ys, x.embed(d))
            if NEG_INF not in ys:
                assert parahoric_oracle(g, x) == fixed
            image = trop_matvec(tropicalize(m), ys)
            normal = (BoundaryPoint if NEG_INF in image else ApartmentPoint)(image)
            assert x.embed(normalizer_action(m, x).coords) == normal.coords
        assert seen == {True, False}


@pytest.mark.parametrize("spec", [Q2, F3T], ids=["Q2", "F3T"])
def test_symplectic_points_refuse_other_matrices(spec):
    # a det-one matrix that breaks the form is refused by every predicate on
    # a symplectic point, on its limit and on the limit moved by a
    # symplectic monomial: the limit and its image keep the form check
    rng = random.Random(83)
    pi = spec.uniformizer()
    bad = FieldMatrix.diagonal(spec, [pi, pi.inv(), 1, 1])
    assert bad.determinant() == spec.one()
    x = SpApartmentPoint((Fraction(1, 4), 0))
    limit = boundary_point_from_direction(x, (1, 0))
    moved = normalizer_action(sampling.random_sp_monomial(spec, 2, rng), limit)
    assert isinstance(limit, BoundaryPoint) and isinstance(moved, BoundaryPoint)
    for y, d in ((x, (1, 0)), (limit, (1, 0, 0, -1)), (moved, (1, 0, 0, -1))):
        predicates = [stabilizer_membership, parahoric_oracle, normalizer_action,
                      lambda g, y: ray_membership(g, y, d)]
        if y is not x:
            predicates.append(boundary_block_oracle)
        for predicate in predicates:
            with pytest.raises(NotSymplecticError):
                predicate(bad, y)

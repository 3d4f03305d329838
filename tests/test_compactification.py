import itertools
import random
from fractions import Fraction

import pytest

from tropstab import matrices, sampling, suites
from tropstab.apartment import (ApartmentPoint, normalizer_action, origin,
                                parahoric_oracle, stabilizer_membership)
from tropstab.compactification import (BoundaryPoint, boundary_block_oracle,
                                       boundary_point_from_direction,
                                       direction_for_stratum,
                                       sp_boundary_point,
                                       sp_boundary_stabilizes)
from tropstab.errors import (AllInfiniteError, DeterminantNotOneError,
                             DimensionMismatchError, DomainError, InputError,
                             InvalidDirectionError, NotSymplecticError)
from tropstab.fields import FieldSpec
from tropstab.matrices import FieldMatrix
from tropstab.symplectic import (SpApartmentPoint, _embed, _require_symplectic,
                                 embed_point, sp_fixes_ray, sp_parahoric_oracle,
                                 sp_stabilizer_membership)
from tropstab.tropical import NEG_INF, fixes_ray, stabilizes_tropically
from tropstab.weights import sl_identity_character, sp_standard_character, weight_fan

Q2 = FieldSpec("Qp", 2)
Q5 = FieldSpec("Qp", 5)
F3T = FieldSpec("FpT", 3)


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


def test_boundary_point_from_direction_examples():
    n = 3
    x = ApartmentPoint((Fraction(5), Fraction(7), Fraction(11)))
    interior = direction_for_stratum({0}, n)
    b = boundary_point_from_direction(x.coords, interior)
    assert b.coords == (0, NEG_INF, NEG_INF)

    pair = direction_for_stratum({0, 1}, n)
    b2 = boundary_point_from_direction(origin(3).coords, pair)
    assert b2.coords == (0, 0, NEG_INF)

    trivial = direction_for_stratum({0, 1, 2}, n)
    b3 = boundary_point_from_direction(x.coords, trivial)
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
        boundary_point_from_direction((), ())


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
                assert boundary_point_from_direction(x, d).stratum == frozenset(I)
    sp_cones = [fc.cone for fc in weight_fan(sp_standard_character(2)).maximal_cones]
    trivial, *directions = suites._SP4_DIRECTIONS
    assert trivial == (0, 0)
    assert [sum(c.contains(d) for c in sp_cones) for d in directions] == [1] * 4 + [2] * 4


def test_limits_reject_infinite_directions():
    g = sampling.random_sp(Q2, 2, random.Random(31))
    x = SpApartmentPoint((0, 0))
    for limit in (lambda: boundary_point_from_direction((0, 0), (0, NEG_INF)),
                  lambda: sp_boundary_point(x, (0, NEG_INF)),
                  lambda: sp_boundary_stabilizes(g, x, (0, NEG_INF))):
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
            assert stabilizer_membership(g, boundary_point_from_direction(x.coords, d))


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
    b = sp_boundary_point(x, d)
    assert b.coords == (0, NEG_INF, NEG_INF, NEG_INF)

    ray = (Fraction(1), Fraction(1))
    b2 = sp_boundary_point(SpApartmentPoint((Fraction(1, 2), 0)), ray)
    assert b2.coords == (0, Fraction(-1, 2), NEG_INF, NEG_INF)

    trivial = (Fraction(0), Fraction(0))
    b3 = sp_boundary_point(x, trivial)
    assert b3.stratum == frozenset(range(4))


def test_sp_rank_one_boundary_matches_special_linear():
    rng = random.Random(17)
    d = (Fraction(1),)
    x = SpApartmentPoint((0,))
    for _ in range(60):
        g = sampling.random_sp(Q2, 1, rng)
        expected = stabilizer_membership(g, BoundaryPoint((0, NEG_INF)))
        assert sp_boundary_stabilizes(g, x, d) == expected


def test_sp_trivial_direction_reduces_to_stabilizer():
    rng = random.Random(19)
    d = (Fraction(0), Fraction(0))
    for _ in range(40):
        g = sampling.random_sp(Q2, 2, rng)
        x = SpApartmentPoint(sampling.random_point(rng, 2))
        assert sp_boundary_stabilizes(g, x, d) == sp_stabilizer_membership(g, x)


def test_sp_boundary_requires_symplectic():
    d = (Fraction(1), Fraction(0))
    with pytest.raises(NotSymplecticError):
        sp_boundary_stabilizes(FieldMatrix.diagonal(Q2, [2, 1, 1, 1]),
                               SpApartmentPoint((0, 0)), d)


def test_boundary_predicates_reject_wrong_sizes():
    with pytest.raises(DimensionMismatchError):
        stabilizer_membership(FieldMatrix.identity(Q2, 3), BoundaryPoint((0, NEG_INF)))
    g = sampling.random_sp(Q2, 3, random.Random(61))
    with pytest.raises(DimensionMismatchError):
        sp_boundary_stabilizes(g, SpApartmentPoint((0, 0)),
                               (Fraction(1), Fraction(0)))


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

    y = embed_point(x)
    expected = [(stabilizer_membership(g, y), fixes_ray(g, y.coords, _embed(d)),
                 parahoric_oracle(g, y), stabilizer_membership(g, sp_boundary_point(x, d)))
                for g in words]

    def refuse(rows, zero):
        raise AssertionError("a symplectic matrix was eliminated")

    monkeypatch.setattr(matrices, "_eliminate", refuse)
    assert [(sp_stabilizer_membership(fresh(g), x), sp_fixes_ray(fresh(g), x, d),
             sp_parahoric_oracle(fresh(g), x), sp_boundary_stabilizes(fresh(g), x, d))
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
            for predicate in (lambda: sp_stabilizer_membership(m, x),
                              lambda: sp_fixes_ray(m, x, d),
                              lambda: sp_parahoric_oracle(m, x),
                              lambda: sp_boundary_stabilizes(m, x, d)):
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
                assert sp_fixes_ray(g, x, d)
                assert sp_boundary_stabilizes(g, x, d)

import random
from fractions import Fraction

import pytest

from tropstab import sampling
from tropstab.apartment import (ApartmentPoint, face_address, in_star_of_origin,
                                normalizer_action, origin, parahoric_oracle,
                                stabilizer_membership)
from tropstab.compactification import BoundaryPoint
from tropstab.errors import (DeterminantNotOneError, DimensionMismatchError,
                             InputError, OutOfStarError)
from tropstab.fields import FieldSpec
from tropstab.matrices import FieldMatrix
from tropstab.suites import face_point, ordered_set_partitions
from tropstab.tropical import NEG_INF, trop_matvec, tropicalize

Q2 = FieldSpec("Qp", 2)
Q5 = FieldSpec("Qp", 5)
F3T = FieldSpec("FpT", 3)


def test_points_are_classes_modulo_diagonal():
    a = ApartmentPoint((1, 2, 3))
    b = ApartmentPoint((0, 1, 2))
    assert a == b
    assert sum(a.coords) == 0
    assert a != ApartmentPoint((0, 0, 0))


def test_diagonal_matrices_translate_the_origin():
    # coordinate i of the translate is minus the valuation of entry i
    p, t = Q5.uniformizer(), F3T.uniformizer()
    for spec, diag, moved in ((Q5, [p, p.inv()], (-1, 1)),
                              (Q5, [1, 1, 1], (0, 0, 0)),
                              (F3T, [t, t, t ** -2], (-1, -1, 2))):
        m = FieldMatrix.diagonal(spec, diag)
        assert normalizer_action(m, origin(len(diag))) == ApartmentPoint(moved)


def test_normalizer_action_cases():
    perm = FieldMatrix(Q2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    x = ApartmentPoint((Fraction(1), Fraction(2), Fraction(-3)))
    moved = normalizer_action(perm, x)
    assert moved == ApartmentPoint((Fraction(-3), Fraction(1), Fraction(2)))

    p = Q2.uniformizer()
    trans = FieldMatrix.diagonal(Q2, [p, p.inv()])
    assert normalizer_action(trans, origin(2)) == ApartmentPoint((-1, 1))

    anti = FieldMatrix(Q2, [[0, 1], [-1, 0]])
    x = ApartmentPoint((Fraction(1, 2), Fraction(-1, 2)))
    assert normalizer_action(anti, x) == ApartmentPoint((Fraction(-1, 2), Fraction(1, 2)))


def test_normalizer_action_rejects_bad_matrices():
    p = Q5.uniformizer()
    with pytest.raises(DeterminantNotOneError):
        normalizer_action(FieldMatrix.diagonal(Q5, [p, 1]), origin(2))
    with pytest.raises(InputError, match="not monomial"):
        normalizer_action(FieldMatrix(Q5, [[1, 1], [0, 1]]), origin(2))
    with pytest.raises(DimensionMismatchError):
        normalizer_action(FieldMatrix.identity(Q5, 3), origin(2))


def _random_boundary_point(rng, n):
    inside = rng.sample(range(n), rng.randint(1, n))
    return BoundaryPoint([sampling.random_fraction(rng) if i in inside else NEG_INF
                          for i in range(n)])


@pytest.mark.parametrize("spec", [Q2, Q5, F3T], ids=["Q2", "Q5", "F3T"])
def test_normalizer_action_is_the_tropical_action(spec):
    # reference: the max-plus product of trop(m) with the coordinates, on
    # unit-scalar monomials and on torus multiples of them, whose scalars
    # have any valuation; apartment points and boundary points alike
    rng = random.Random(41)
    for n in (2, 3, 4):
        for _ in range(15):
            m = sampling.random_monomial(spec, n, rng)
            if rng.random() < 0.5:
                m = sampling.random_torus(spec, n, rng) * m
            for x in (ApartmentPoint(sampling.random_point(rng, n)),
                      _random_boundary_point(rng, n)):
                reference = type(x)(trop_matvec(tropicalize(m), x.coords))
                assert normalizer_action(m, x) == reference


def test_face_address_examples():
    assert all(kind == "wall" for (_, _, kind, _) in face_address(origin(3)).relations)
    a = face_address(ApartmentPoint((Fraction(1, 4), Fraction(-1, 4))))
    assert a.relations == ((0, 1, "strip", 0),)
    b = face_address(ApartmentPoint((Fraction(1, 3), 0, Fraction(-1, 3))))
    assert all(kind == "strip" and m == 0 for (_, _, kind, m) in b.relations)
    # the equality, hash, repr and refused assignment of the frozen dataclass
    # FaceAddress was
    again = face_address(ApartmentPoint((Fraction(1, 4), Fraction(-1, 4))))
    assert again == a and again is not a and a != b and a != a.relations
    assert hash(again) == hash(a) == hash((a.relations,))
    assert {a: 1, b: 2}[again] == 1
    assert repr(a) == "FaceAddress((0, 1, 'strip', 0),)"
    with pytest.raises(AttributeError):
        a.relations = b.relations
    assert a.relations == ((0, 1, "strip", 0),)


def test_face_address_separates_faces():
    assert face_address(origin(2)) != face_address(ApartmentPoint((Fraction(1, 4), 0)))
    assert face_address(ApartmentPoint((Fraction(1, 4), 0))) != \
        face_address(ApartmentPoint((0, Fraction(1, 4))))


def test_stabilizer_at_origin_is_integrality():
    rng = random.Random(11)
    for spec in (Q2, F3T):
        for _ in range(40):
            g = sampling.random_sl(spec, 3, rng, 5)
            assert stabilizer_membership(g, origin(3)) == g.is_integral()


def test_stabilizer_at_translate_is_conjugated_integrality():
    rng = random.Random(13)
    p = Q2.uniformizer()
    diag = [p ** 2, p.inv(), p.inv()]
    t = FieldMatrix.diagonal(Q2, diag)
    x = normalizer_action(t, origin(3))
    for _ in range(40):
        g = sampling.random_sl(Q2, 3, rng, 5)
        conj = t.inverse() * g * t
        assert stabilizer_membership(g, x) == conj.is_integral()


def test_iwahori_point():
    rng = random.Random(17)
    x = ApartmentPoint((Fraction(1, 4), Fraction(-1, 4)))
    for _ in range(60):
        g = sampling.random_sl(Q2, 2, rng, 5)
        explicit = (g.rows[0][0].valuation() >= 0
                    and g.rows[0][1].valuation() >= 0
                    and g.rows[1][1].valuation() >= 0
                    and g.rows[1][0].valuation() >= 1)
        assert stabilizer_membership(g, x) == explicit


def test_parahoric_at_origin_is_integrality():
    rng = random.Random(19)
    for _ in range(30):
        g = sampling.random_sl(Q5, 3, rng, 5)
        assert parahoric_oracle(g, origin(3)) == g.is_integral()


def test_parahoric_outside_star_raises():
    with pytest.raises(OutOfStarError):
        parahoric_oracle(FieldMatrix.identity(Q2, 2), ApartmentPoint((1, 0)))


def test_parahoric_agrees_on_partial_flag():
    rng = random.Random(23)
    eps = Fraction(1, 5)
    x = ApartmentPoint((eps, eps, -2 * eps))
    for _ in range(200):
        g = (sampling.random_sl_integral(Q2, 3, rng)
             if rng.random() < 0.5 else sampling.random_sl(Q2, 3, rng))
        assert parahoric_oracle(g, x) == stabilizer_membership(g, x)


def test_parahoric_agrees_on_every_face_of_star():
    rng = random.Random(29)
    for n in (2, 3):
        for blocks in ordered_set_partitions(range(n)):
            x = face_point(blocks, n)
            assert in_star_of_origin(x.coords)
            for _ in range(25):
                g = (sampling.random_sl_integral(F3T, n, rng)
                     if rng.random() < 0.5 else sampling.random_sl(F3T, n, rng))
                assert parahoric_oracle(g, x) == stabilizer_membership(g, x)


def test_equivariance_under_normalizer():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.choice((2, 3))
        g = sampling.random_sl(Q2, n, rng, 4)
        m = sampling.random_monomial(Q2, n, rng)
        x = ApartmentPoint(sampling.random_point(rng, n))
        assert stabilizer_membership(g, x) == \
            stabilizer_membership(m * g * m.inverse(), normalizer_action(m, x))


def test_stabilizer_group_property():
    rng = random.Random(37)
    x = ApartmentPoint((Fraction(1, 2), 0, Fraction(-1, 2)))
    for _ in range(20):
        g = sampling.random_stabilizing(Q5, x.coords, rng)
        h = sampling.random_stabilizing(Q5, x.coords, rng)
        assert stabilizer_membership(g, x) and stabilizer_membership(h, x)
        assert stabilizer_membership(g * h, x)
        assert stabilizer_membership(g.inverse(), x)

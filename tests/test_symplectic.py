import random
from fractions import Fraction

import pytest

from tropstab import sampling
from tropstab.apartment import ApartmentPoint, stabilizer_membership
from tropstab.errors import (DimensionMismatchError, NotSymplecticError,
                             OutOfStarError)
from tropstab.fields import FieldSpec
from tropstab.matrices import FieldMatrix
from tropstab.symplectic import (SpApartmentPoint, antitranspose, embed_point,
                                 is_symplectic, sp_fixes_ray,
                                 sp_in_star_of_origin, sp_normalizer_action,
                                 sp_parahoric_oracle, sp_stabilizer_membership,
                                 standard_form)

Q2 = FieldSpec("Qp", 2)
Q5 = FieldSpec("Qp", 5)
F2T = FieldSpec("FpT", 2)
F3T = FieldSpec("FpT", 3)


def test_standard_form_shape():
    psi = standard_form(Q2, 2)
    rows = [[int(e.value) for e in row] for row in psi.rows]
    assert rows == [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    assert psi.transpose() == FieldMatrix(Q2, [[-e for e in row] for row in psi.rows])


def test_is_symplectic_examples():
    assert is_symplectic(FieldMatrix.identity(Q5, 4))
    p = Q5.uniformizer()
    torus = FieldMatrix.diagonal(Q5, [p, 3, Q5.element(Fraction(1, 3)), p.inv()])
    assert is_symplectic(torus)
    bad = FieldMatrix(Q5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
    assert not is_symplectic(bad)
    with pytest.raises(DimensionMismatchError):
        is_symplectic(FieldMatrix.identity(Q5, 3))


def test_symplectic_implies_determinant_one():
    rng = random.Random(5)
    for n in (1, 2, 3):
        g = sampling.random_sp(Q2, n, rng)
        assert g.determinant() == Q2.one()


def test_antitranspose():
    m = FieldMatrix(Q5, [[1, 2], [3, 4]])
    assert antitranspose(m) == FieldMatrix(Q5, [[4, 2], [3, 1]])
    assert antitranspose(antitranspose(m)) == m
    rng = random.Random(7)
    for _ in range(10):
        a = sampling.random_sl(Q5, 3, rng, 4)
        b = sampling.random_sl(Q5, 3, rng, 4)
        assert antitranspose(a * b) == antitranspose(b) * antitranspose(a)


def test_block_criterion():
    rng = random.Random(9)
    for _ in range(15):
        g = sampling.random_sp(Q2, 2, rng)
        a = [[g.rows[i][j] for j in range(2)] for i in range(2)]
        b = [[g.rows[i][j + 2] for j in range(2)] for i in range(2)]
        c = [[g.rows[i + 2][j] for j in range(2)] for i in range(2)]
        d = [[g.rows[i + 2][j + 2] for j in range(2)] for i in range(2)]
        A, B = FieldMatrix(Q2, a), FieldMatrix(Q2, b)
        C, D = FieldMatrix(Q2, c), FieldMatrix(Q2, d)
        assert antitranspose(A) * D - antitranspose(C) * B == FieldMatrix.identity(Q2, 2)
        assert antitranspose(A) * C == antitranspose(C) * A
        assert antitranspose(B) * D == antitranspose(D) * B


def test_embed_point_examples():
    assert embed_point(SpApartmentPoint((0, 0))) == ApartmentPoint((0, 0, 0, 0))
    assert embed_point(SpApartmentPoint((1, 0))) == ApartmentPoint((1, 0, 0, -1))
    assert embed_point(SpApartmentPoint((Fraction(1, 2), Fraction(1, 3)))) == \
        ApartmentPoint((Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 2)))


def test_origin_stabilizer_is_integrality():
    rng = random.Random(11)
    zero = SpApartmentPoint((0, 0))
    for _ in range(60):
        g = sampling.random_sp(Q2, 2, rng)
        assert sp_stabilizer_membership(g, zero) == g.is_integral()


def test_torus_translate_does_not_stabilize_origin():
    p = Q2.uniformizer()
    g = FieldMatrix.diagonal(Q2, [p, 1, 1, p.inv()])
    assert is_symplectic(g)
    assert not sp_stabilizer_membership(g, SpApartmentPoint((0, 0)))


def test_requires_symplectic():
    g = FieldMatrix.diagonal(Q2, [2, 1, 1, 1])
    with pytest.raises(NotSymplecticError):
        sp_stabilizer_membership(g, SpApartmentPoint((0, 0)))
    with pytest.raises(NotSymplecticError):
        sp_fixes_ray(g, SpApartmentPoint((0, 0)), (1, 0))


def test_rank_one_matches_special_linear():
    rng = random.Random(13)
    for _ in range(80):
        g = sampling.random_sp(Q5, 1, rng)
        c = sampling.random_fraction(rng)
        assert sp_stabilizer_membership(g, SpApartmentPoint((c,))) == \
            stabilizer_membership(g, ApartmentPoint((c, -c)))


def test_star_of_origin_predicate():
    assert sp_in_star_of_origin((Fraction(1, 4), Fraction(-1, 4)))
    assert not sp_in_star_of_origin((Fraction(1, 2), 0))
    assert not sp_in_star_of_origin((Fraction(1, 4), Fraction(-3, 4)))


def test_parahoric_oracle_iwahori_case():
    rng = random.Random(17)
    eps = Fraction(1, 4)
    x = SpApartmentPoint((eps, eps / 2))
    for _ in range(120):
        g = sampling.random_sp(Q2, 2, rng)
        assert sp_parahoric_oracle(g, x) == sp_stabilizer_membership(g, x)
        if g.is_integral():
            res = g.residue()
            upper = all(res[i][j] == 0 for i in range(4) for j in range(4) if i > j)
            assert sp_parahoric_oracle(g, x) == upper


def test_parahoric_oracle_partial_flag():
    rng = random.Random(19)
    x = SpApartmentPoint((Fraction(1, 4), 0))
    for _ in range(120):
        g = sampling.random_sp(F3T, 2, rng)
        assert sp_parahoric_oracle(g, x) == sp_stabilizer_membership(g, x)


def test_parahoric_outside_star():
    with pytest.raises(OutOfStarError):
        sp_parahoric_oracle(FieldMatrix.identity(Q2, 4), SpApartmentPoint((1, 0)))


def test_group_closure():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.choice((1, 2))
        x = SpApartmentPoint(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)))
        t = sampling.sp_torus(Q2, n, [Q2.uniformizer() ** -int(c) for c in x.coords])
        g = t * sampling.random_sp_integral(Q2, n, rng) * t.inverse()
        h = t * sampling.random_sp_integral(Q2, n, rng) * t.inverse()
        assert sp_stabilizer_membership(g, x) and sp_stabilizer_membership(h, x)
        assert sp_stabilizer_membership(g * h, x)
        assert sp_stabilizer_membership(g.inverse(), x)


def test_weyl_equivariance():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        g = sampling.random_sp(Q2, n, rng)
        w = sampling.random_sp_monomial(Q2, n, rng)
        x = SpApartmentPoint(sampling.random_point(rng, n))
        assert sp_stabilizer_membership(g, x) == \
            sp_stabilizer_membership(w * g * w.inverse(), sp_normalizer_action(w, x))


def test_star_matches_embedded_arrangement():
    # the rank-n wall data (doubled coordinates, sums, differences) is the
    # restriction of the embedded rank-2n wall data to symmetric vectors
    rng = random.Random(41)
    from tropstab.apartment import in_star_of_origin
    for _ in range(80):
        n = rng.choice((2, 3))
        x = SpApartmentPoint(tuple(Fraction(rng.randint(-8, 8), 8)
                                   for _ in range(n)))
        assert sp_in_star_of_origin(x.coords) == \
            in_star_of_origin(embed_point(x).coords)


def test_samplers_self_check():
    # the samplers return their words unchecked; these are the invariants
    # the words have by construction
    rng = random.Random(31)
    for spec in (Q5, F3T):
        for n in (1, 2, 3):
            for _ in range(4):
                assert is_symplectic(sampling.random_sp_monomial(spec, n, rng))
                g = sampling.random_sp_integral(spec, n, rng)
                assert is_symplectic(g) and g.is_integral()
                assert is_symplectic(sampling.random_sp(spec, n, rng))
        # the directions of test_sp_limit_coherence
        for c in ((1, 0), (1, 1), (0, -1), (-1, 1)):
            for _ in range(4):
                x = tuple(Fraction(rng.randint(-1, 1)) for _ in range(2))
                g = sampling.random_sp_ray_adapted(spec, 2, x, c, rng)
                assert is_symplectic(g)


def _is_symplectic_by_product(m):
    """The definition: m^T psi m == psi, by two matrix products."""
    psi = standard_form(m.spec, m.size // 2)
    return m.transpose() * psi * m == psi


@pytest.mark.parametrize("spec", [Q2, F2T, F3T], ids=["Q2", "F2T", "F3T"])
def test_is_symplectic_matches_product_definition(spec):
    # characteristic 2 included: there an antisymmetric form need not have
    # a zero diagonal, and the entrywise check must not assume it does
    rng = random.Random(43)
    samplers = (sampling.random_sp_monomial, sampling.random_sp_integral,
                sampling.random_sp)
    rejected = 0
    for n in (1, 2, 3):
        for _ in range(6):
            g = rng.choice(samplers)(spec, n, rng)
            assert is_symplectic(g) and _is_symplectic_by_product(g)
            rows = [list(r) for r in g.rows]
            i, j = rng.randrange(2 * n), rng.randrange(2 * n)
            rows[i][j] = rows[i][j] + sampling.random_element(spec, rng, -1, 1)
            h = FieldMatrix(spec, rows)
            assert is_symplectic(h) == _is_symplectic_by_product(h)
            rejected += not is_symplectic(h)
    assert rejected > 0

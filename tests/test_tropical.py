import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropstab import sampling
from tropstab.apartment import ApartmentPoint
from tropstab.errors import (AllInfiniteError, DeterminantNotOneError,
                             DimensionMismatchError, DomainError, InputError,
                             SingularMatrixError)
from tropstab.fields import FieldSpec
from tropstab.matrices import FieldMatrix
from tropstab.suites import composition_example_matrices
from tropstab.tropical import (NEG_INF, as_trop_scalar, fixes_ray,
                               stabilizes_tropically, trop_add, trop_matvec,
                               trop_mul, tropicalize, valuation_inequality_oracle)
from tropstab.weights import integer_coords

Q2 = FieldSpec("Qp", 2)
Q5 = FieldSpec("Qp", 5)
F3T = FieldSpec("FpT", 3)

scalars = st.one_of(
    st.just(NEG_INF),
    st.fractions(min_value=-20, max_value=20, max_denominator=12))


def test_scalar_examples():
    assert trop_add(3, NEG_INF) == 3
    assert trop_mul(5, NEG_INF) is NEG_INF
    assert trop_mul(2, 3) == 5


@given(a=scalars, b=scalars, c=scalars)
def test_semiring_laws(a, b, c):
    assert trop_add(a, b) == trop_add(b, a)
    assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))
    assert trop_add(a, a) == a
    assert trop_mul(a, b) == trop_mul(b, a)
    assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))
    assert trop_mul(a, trop_add(b, c)) == trop_add(trop_mul(a, b), trop_mul(a, c))
    assert trop_add(a, NEG_INF) == a
    assert trop_mul(a, 0) == a
    assert trop_mul(a, NEG_INF) is NEG_INF


def test_neg_inf_is_a_singleton_variant():
    assert NEG_INF is not None
    assert NEG_INF != Fraction(0)
    assert not isinstance(NEG_INF, Fraction)
    assert repr(NEG_INF) == "-inf"
    assert NEG_INF < Fraction(-10 ** 9)


def test_tropicalize_examples():
    g = FieldMatrix(Q2, [[1, 1], [0, 1]])
    assert tropicalize(g) == ((0, 0), (NEG_INF, 0))
    identity = FieldMatrix.identity(Q5, 3)
    assert tropicalize(identity) == (
        (0, NEG_INF, NEG_INF), (NEG_INF, 0, NEG_INF), (NEG_INF, NEG_INF, 0))
    p = Q5.uniformizer()
    h = FieldMatrix(Q5, [[p, p.inv()], [0, 1]])
    assert tropicalize(h) == ((-1, 1), (NEG_INF, 0))


def test_tropicalize_requires_invertible():
    with pytest.raises(SingularMatrixError):
        tropicalize(FieldMatrix(Q2, [[1, 1], [1, 1]]))


def test_matvec_composition_example():
    g, h = composition_example_matrices(Q2)
    gh = g * h
    for x1, x2 in ((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(3)),
                   (Fraction(0), Fraction(0))):
        x = (x1, x2)
        assert trop_matvec(tropicalize(gh), x) == (x2, max(x1, x2))
        composed = trop_matvec(tropicalize(g), trop_matvec(tropicalize(h), x))
        assert composed == (max(x1, x2), max(x1, x2))
    assert trop_matvec(tropicalize(gh), (1, 0)) == (0, 1)
    composed = trop_matvec(tropicalize(g), trop_matvec(tropicalize(h), (1, 0)))
    assert composed == (1, 1)
    assert composed != trop_matvec(tropicalize(gh), (1, 0))


def test_matvec_identity_and_dimension():
    identity = FieldMatrix.identity(Q2, 2)
    assert trop_matvec(tropicalize(identity), (Fraction(1, 3), 7)) == (Fraction(1, 3), 7)
    with pytest.raises(DimensionMismatchError):
        trop_matvec(tropicalize(identity), (1, 2, 3))


def _textbook_matvec(matrix, x):
    """The max-plus product as the definition reads: the reference."""
    out = []
    for row in matrix:
        acc = NEG_INF
        for m, xv in zip(row, x):
            acc = trop_add(acc, trop_mul(m, xv))
        out.append(acc)
    return tuple(out)


matvec_entries = st.one_of(st.just(NEG_INF), st.integers(min_value=-9, max_value=9),
                           st.fractions(min_value=-9, max_value=9, max_denominator=12))


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       st.data())
def test_matvec_matches_textbook_loop(r, n, data):
    rows = st.lists(matvec_entries, min_size=n, max_size=n)
    matrix = data.draw(st.lists(rows | st.just([NEG_INF] * n), min_size=r, max_size=r))
    x = data.draw(rows | st.just([NEG_INF] * n))
    got, expected = trop_matvec(matrix, x), _textbook_matvec(matrix, x)
    assert len(got) == r
    for g, e in zip(got, expected):
        assert (g is NEG_INF) == (e is NEG_INF)
        assert g == e


def test_matvec_refuses_mismatched_rows():
    for matrix, x in (([[0, 1, 2], [1, 0, 2]], (0, 0)), ([[0, 1], [1]], (0, 0)),
                      ([[NEG_INF]], ())):
        with pytest.raises(DimensionMismatchError, match="dimensions differ"):
            trop_matvec(matrix, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_matvec_homogeneity(seed, shift):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    m = tropicalize(sampling.random_sl(Q2, n, rng, 4))
    x = sampling.random_point(rng, n)
    shifted = tuple(c + shift for c in x)
    lhs = trop_matvec(m, shifted)
    rhs = tuple(trop_mul(shift, y) for y in trop_matvec(m, x))
    assert lhs == rhs


def test_stabilizes_examples():
    identity = FieldMatrix.identity(Q5, 2)
    assert stabilizes_tropically(identity, (Fraction(1, 2), Fraction(-7, 3)))
    p = Q5.uniformizer()
    torus = FieldMatrix.diagonal(Q5, [p, p.inv()])
    assert not stabilizes_tropically(torus, (0, 0))
    anti = FieldMatrix(Q5, [[0, 1], [-1, 0]])
    assert stabilizes_tropically(anti, (0, 0))


def test_stabilizes_matches_matvec_definition():
    rng = random.Random(99)
    for spec in (Q2, F3T):
        for _ in range(60):
            n = rng.choice((2, 3))
            g = sampling.random_sl(spec, n, rng, 5)
            x = sampling.random_point(rng, n)
            direct = trop_matvec(tropicalize(g), x) == tuple(Fraction(c) for c in x)
            assert stabilizes_tropically(g, x) == direct


def test_fixes_ray_matches_finite_probe():
    # Integer directions keep every slope gap at least one, and entry
    # valuations within 40 keep every intercept gap below 100, so every
    # breakpoint of a row maximum against its target line lies below 100
    # and the probes s = 0, ..., 200 decide the whole ray.
    rng = random.Random(31)
    agree = 0
    for spec in (Q2, F3T) * 150:
        while True:
            n = rng.choice((2, 3))
            x = [NEG_INF if rng.random() < 0.15 else c
                 for c in sampling.random_point(rng, n)]
            if all(c is NEG_INF for c in x):
                continue
            d = tuple(rng.randint(-2, 2) for _ in range(n))
            style = rng.randrange(3)
            if style == 0:
                g = sampling.random_sl(spec, n, rng, 5)
            elif style == 1:
                g = sampling.random_stabilizing(
                    spec, [0 if c is NEG_INF else c for c in x], rng)
            else:
                g = sampling.random_ray_stabilizing(
                    spec, [0 if c is NEG_INF else c for c in x], d, rng)
            if all(abs(e.valuation()) <= 40 for row in g.rows for e in row
                   if not e.is_zero()):
                break
        m = tropicalize(g)
        probes = (tuple(trop_mul(c, s * v) for c, v in zip(x, d)) for s in range(201))
        probed = all(trop_matvec(m, y) == y for y in probes)
        assert fixes_ray(g, x, d) == probed
        assert fixes_ray(g, x, (0,) * n) == stabilizes_tropically(g, x)
        agree += probed
    assert 0 < agree < 300


def test_fixes_ray_examples():
    p = Q2.uniformizer()
    g = FieldMatrix(Q2, [[1, p.inv()], [0, 1]])
    # fixes (0, -1) + s(1, 0), whose second coordinate falls behind, but not
    # the ray (0, -1) + s(0, 1), on which it rises past the first
    assert fixes_ray(g, (0, -1), (1, 0))
    assert not fixes_ray(g, (0, -1), (0, 1))
    # fixes the points (0, -11) + s(0, 1) up to s = 10, a finite horizon's
    # last probe, and moves them from s = 11 on
    assert all(stabilizes_tropically(g, (0, -11 + s)) for s in range(11))
    assert not stabilizes_tropically(g, (0, 0))
    assert not fixes_ray(g, (0, -11), (0, 1))
    assert fixes_ray(g, (0, NEG_INF), (0, 5))
    with pytest.raises(DomainError):
        fixes_ray(g, (0, 0), (0, NEG_INF))
    with pytest.raises(DimensionMismatchError):
        fixes_ray(g, (0, 0), (0, 0, 0))
    with pytest.raises(AllInfiniteError):
        fixes_ray(g, (NEG_INF, NEG_INF), (0, 0))


def test_stabilizes_rejects_all_infinite():
    with pytest.raises(AllInfiniteError):
        stabilizes_tropically(FieldMatrix.identity(Q2, 2), (NEG_INF, NEG_INF))


def test_oracle_examples():
    identity = FieldMatrix.identity(Q5, 3)
    assert valuation_inequality_oracle(identity, (1, 2, Fraction(1, 3)))
    rng = random.Random(4)
    for _ in range(25):
        g = sampling.random_sl_integral(Q5, 2, rng)
        assert valuation_inequality_oracle(g, (0, 0))
    p = Q5.uniformizer()
    g = FieldMatrix(Q5, [[1, p.inv()], [0, 1]])
    assert not valuation_inequality_oracle(g, (0, 0))
    assert valuation_inequality_oracle(g, (1, 0))


def test_oracle_requires_determinant_one():
    p = Q5.uniformizer()
    g = FieldMatrix.diagonal(Q5, [p, 1])
    with pytest.raises(DeterminantNotOneError):
        valuation_inequality_oracle(g, (0, 0))


def test_oracle_requires_finite_coordinates():
    with pytest.raises(DomainError):
        valuation_inequality_oracle(FieldMatrix.identity(Q2, 2), (0, NEG_INF))


def test_oracle_equivalence_small():
    rng = random.Random(12)
    for spec in (Q2, Q5, F3T):
        for _ in range(40):
            n = rng.choice((2, 3))
            g = sampling.random_sl(spec, n, rng, 5)
            x = sampling.random_point(rng, n)
            assert stabilizes_tropically(g, x) == valuation_inequality_oracle(g, x)


def test_group_closure_small():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.choice((2, 3))
        x = sampling.random_point(rng, n, max_num=3, max_den=3)
        g = sampling.random_stabilizing(Q2, x, rng)
        h = sampling.random_stabilizing(Q2, x, rng)
        assert stabilizes_tropically(g, x)
        assert stabilizes_tropically(h, x)
        assert stabilizes_tropically(g * h, x)
        assert stabilizes_tropically(g.inverse(), x)


def test_rows_from_invertible_matrix_have_finite_entry():
    rng = random.Random(31)
    for _ in range(20):
        g = sampling.random_sl(F3T, 3, rng, 5)
        trop = tropicalize(g)
        assert all(any(m is not NEG_INF for m in row) for row in trop)


def test_matvec_of_finite_vector_is_finite():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        g = sampling.random_sl(Q2, n, rng, 5)
        x = sampling.random_point(rng, n)
        image = trop_matvec(tropicalize(g), x)
        assert all(y is not NEG_INF for y in image)


def test_floats_are_input_errors():
    # a float carries its binary value, not the decimal it was written as
    for read in (lambda: as_trop_scalar(0.1),
                 lambda: ApartmentPoint((0.1, 0)),
                 lambda: Q2.element(0.1),
                 lambda: FieldSpec("FpT", 3).element(0.5),
                 lambda: FieldMatrix(Q2, [[0.5, 0], [0, 2.0]]),
                 lambda: integer_coords((0.5, 1), 2),
                 lambda: integer_coords((NEG_INF, 1), 2)):
        with pytest.raises(InputError):
            read()
    half = Fraction(1, 2)
    assert as_trop_scalar(half) is half
    assert Q2.element(half) == Q2.element(1) / Q2.element(2)
    assert integer_coords((half, 1), 2) == ([1, 2], 2)
    assert integer_coords(("1/2", 1), 2) == ([1, 2], 2)

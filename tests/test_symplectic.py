import math
import random
from fractions import Fraction

import pytest

from tropstab import sampling, suites, symplectic
from tropstab.apartment import (ApartmentPoint, SpApartmentPoint, normalizer_action,
                                parahoric_oracle, ray_membership, stabilizer_membership)
from tropstab.errors import (DimensionMismatchError, NotSymplecticError,
                             OutOfStarError)
from tropstab.fields import FieldSpec
from tropstab.matrices import FieldMatrix
from tropstab.symplectic import (_require_symplectic, antitranspose, is_symplectic,
                                 standard_form)
from tropstab.tropical import trop_matvec, tropicalize

Q2 = FieldSpec("Qp", 2)
Q5 = FieldSpec("Qp", 5)
F2T = FieldSpec("FpT", 2)
F3T = FieldSpec("FpT", 3)


def embedded(x):
    """The special-linear apartment point of a symplectic one."""
    return ApartmentPoint(x.embed(x.coords))


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


@pytest.mark.parametrize("spec", [Q2, Q5, F2T, F3T], ids=["Q2", "Q5", "F2T", "F3T"])
def test_form_check_records_the_eliminated_determinant(spec):
    # Pf(psi) = det(g) Pf(psi) in every characteristic, 2 included
    rng = random.Random(53)
    for n in (1, 2, 3):
        for sampler in (sampling.random_sp_monomial, sampling.random_sp_integral,
                        sampling.random_sp):
            g = sampler(spec, n, rng)
            _require_symplectic(g)
            assert g.determinant() == FieldMatrix(spec, g.rows).determinant() == spec.one()


def _count_form_checks(monkeypatch):
    """Patch is_symplectic to record each matrix it checks; returns the record."""
    checked = []

    def counting(m):
        checked.append(m)
        return is_symplectic(m)

    monkeypatch.setattr(symplectic, "is_symplectic", counting)
    return checked


def test_form_check_travels_through_products_and_inverses(monkeypatch):
    checked = _count_form_checks(monkeypatch)
    rng = random.Random(73)
    for spec in (Q2, F3T):
        g, h = sampling.random_sp(spec, 2, rng), sampling.random_sp(spec, 2, rng)
        _require_symplectic(g)
        _require_symplectic(h)
        _require_symplectic(g)
        assert checked == [g, h]
        checked.clear()
        for m in (g * h, g.inverse(), h * g.inverse() * g, (g * h).inverse()):
            _require_symplectic(m)
            assert m.determinant() == spec.one()
        assert checked == []
        # a copy, a torus conjugate and a product with an unchecked factor
        # are checked afresh
        t = sampling.sp_torus(spec, 2, [spec.uniformizer(), 1])
        fresh = [FieldMatrix(spec, g.rows), sampling._torus_conjugate(g, t), g * t,
                 t.inverse() * h]
        for m in fresh:
            _require_symplectic(m)
        assert len(checked) == len(fresh) and all(c is m for c, m in zip(checked, fresh))
        checked.clear()


def test_group_closure_checks_each_form_once(monkeypatch):
    # g and h are checked; g h and the inverse of g inherit their checks
    checked = _count_form_checks(monkeypatch)
    checks_per_case = []
    not_closed = suites._not_closed

    def counted(*args):
        before = len(checked)
        witness = not_closed(*args)
        checks_per_case.append(len(checked) - before)
        return witness

    monkeypatch.setattr(suites, "_not_closed", counted)
    for spec in (Q2, F3T):
        assert suites.run_sp(spec, 2, 19, count=8)["pass"]
    assert checks_per_case == [2] * 8


def test_membership_builds_no_apartment_point(monkeypatch):
    # the form check records det = 1 and the embedded vector sums to zero,
    # so the embedded coordinates go straight to the tropical test
    rng = random.Random(73)
    cases = [(sampler(spec, 2, rng), SpApartmentPoint(sampling.random_point(rng, 2, 2, 2)))
             for spec in (Q2, F3T) for sampler in (sampling.random_sp_integral,
                                                   sampling.random_sp) for _ in range(3)]
    expected = [stabilizer_membership(g, embedded(x)) for g, x in cases]
    assert set(expected) == {True, False}
    built = []
    init = ApartmentPoint.__init__

    def counted(self, coords):
        built.append(coords)
        init(self, coords)

    monkeypatch.setattr(ApartmentPoint, "__init__", counted)
    assert [stabilizer_membership(g, x) for g, x in cases] == expected
    assert built == []


def test_predicates_reject_wrong_sizes():
    g = sampling.random_sp(Q2, 2, random.Random(59))
    for x in (SpApartmentPoint((0,)), SpApartmentPoint((0, 0, 0))):
        with pytest.raises(DimensionMismatchError):
            stabilizer_membership(g, x)
        with pytest.raises(DimensionMismatchError):
            parahoric_oracle(g, x)
        with pytest.raises(DimensionMismatchError):
            ray_membership(g, x, (1,) * x.n)
    for d in ((1,), (1, 0, 0)):
        with pytest.raises(DimensionMismatchError):
            ray_membership(g, SpApartmentPoint((0, 0)), d)


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
        difference = [[x - y for x, y in zip(r, s)] for r, s in
                      zip((antitranspose(A) * D).rows, (antitranspose(C) * B).rows)]
        assert FieldMatrix(Q2, difference) == FieldMatrix.identity(Q2, 2)
        assert antitranspose(A) * C == antitranspose(C) * A
        assert antitranspose(B) * D == antitranspose(D) * B


def test_embed_point_examples():
    assert embedded(SpApartmentPoint((0, 0))) == ApartmentPoint((0, 0, 0, 0))
    assert embedded(SpApartmentPoint((1, 0))) == ApartmentPoint((1, 0, 0, -1))
    assert embedded(SpApartmentPoint((Fraction(1, 2), Fraction(1, 3)))) == \
        ApartmentPoint((Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 2)))


def test_origin_stabilizer_is_integrality():
    rng = random.Random(11)
    zero = SpApartmentPoint((0, 0))
    for _ in range(60):
        g = sampling.random_sp(Q2, 2, rng)
        assert stabilizer_membership(g, zero) == g.is_integral()


def test_torus_translate_does_not_stabilize_origin():
    p = Q2.uniformizer()
    g = FieldMatrix.diagonal(Q2, [p, 1, 1, p.inv()])
    assert is_symplectic(g)
    assert not stabilizer_membership(g, SpApartmentPoint((0, 0)))


def test_requires_symplectic():
    g = FieldMatrix.diagonal(Q2, [2, 1, 1, 1])
    with pytest.raises(NotSymplecticError):
        stabilizer_membership(g, SpApartmentPoint((0, 0)))
    with pytest.raises(NotSymplecticError):
        ray_membership(g, SpApartmentPoint((0, 0)), (1, 0))


def test_rank_one_matches_special_linear():
    rng = random.Random(13)
    for _ in range(80):
        g = sampling.random_sp(Q5, 1, rng)
        c = sampling.random_fraction(rng)
        assert stabilizer_membership(g, SpApartmentPoint((c,))) == \
            stabilizer_membership(g, ApartmentPoint((c, -c)))


def _in_sp_star(coords):
    """Does parahoric_oracle accept the symplectic point, i.e. is it in its
    star of the origin, the special-linear star of the embedded point?"""
    try:
        parahoric_oracle(FieldMatrix.identity(Q2, 2 * len(coords)),
                         SpApartmentPoint(coords))
    except OutOfStarError:
        return False
    return True


def test_star_of_origin_predicate():
    assert _in_sp_star((Fraction(1, 4), Fraction(-1, 4)))
    assert not _in_sp_star((Fraction(1, 2), 0))
    assert not _in_sp_star((Fraction(1, 4), Fraction(-3, 4)))


def test_parahoric_oracle_iwahori_case():
    rng = random.Random(17)
    eps = Fraction(1, 4)
    x = SpApartmentPoint((eps, eps / 2))
    for _ in range(120):
        g = sampling.random_sp(Q2, 2, rng)
        assert parahoric_oracle(g, x) == stabilizer_membership(g, x)
        if g.is_integral():
            res = g.residue()
            upper = all(res[i][j] == 0 for i in range(4) for j in range(4) if i > j)
            assert parahoric_oracle(g, x) == upper


def test_parahoric_oracle_partial_flag():
    rng = random.Random(19)
    x = SpApartmentPoint((Fraction(1, 4), 0))
    for _ in range(120):
        g = sampling.random_sp(F3T, 2, rng)
        assert parahoric_oracle(g, x) == stabilizer_membership(g, x)


def test_parahoric_outside_star():
    with pytest.raises(OutOfStarError):
        parahoric_oracle(FieldMatrix.identity(Q2, 4), SpApartmentPoint((1, 0)))


def test_group_closure():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.choice((1, 2))
        x = SpApartmentPoint(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)))
        t = sampling.sp_torus(Q2, n, [Q2.uniformizer() ** -int(c) for c in x.coords])
        g = t * sampling.random_sp_integral(Q2, n, rng) * t.inverse()
        h = t * sampling.random_sp_integral(Q2, n, rng) * t.inverse()
        assert stabilizer_membership(g, x) and stabilizer_membership(h, x)
        assert stabilizer_membership(g * h, x)
        assert stabilizer_membership(g.inverse(), x)


def test_weyl_equivariance():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        g = sampling.random_sp(Q2, n, rng)
        w = sampling.random_sp_monomial(Q2, n, rng)
        x = SpApartmentPoint(sampling.random_point(rng, n))
        assert stabilizer_membership(g, x) == \
            stabilizer_membership(w * g * w.inverse(), normalizer_action(w, x))


@pytest.mark.parametrize("spec", [Q2, Q5, F3T], ids=["Q2", "Q5", "F3T"])
def test_sp_normalizer_action_is_the_tropical_action(spec):
    # through the embedding, on signed permutations and torus multiples of them
    rng = random.Random(43)
    for n in (1, 2, 3):
        for _ in range(15):
            w = sampling.random_sp_monomial(spec, n, rng)
            if rng.random() < 0.5:
                w = sampling.sp_torus(spec, n, [sampling.random_element(spec, rng, -2, 2)
                                                for _ in range(n)]) * w
            x = SpApartmentPoint(sampling.random_point(rng, n))
            reference = trop_matvec(tropicalize(w), embedded(x).coords)
            assert embedded(normalizer_action(w, x)) == ApartmentPoint(reference)


def test_star_matches_embedded_arrangement():
    # the rank-n wall data (doubled coordinates, sums, differences) is the
    # restriction of the embedded rank-2n wall data to symmetric vectors
    rng = random.Random(41)
    for _ in range(80):
        n = rng.choice((2, 3))
        xs = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(n))
        walls = [2 * a for a in xs] + [a + sign * b for i, a in enumerate(xs)
                                       for b in xs[i + 1:] for sign in (1, -1)]
        assert _in_sp_star(xs) == all(abs(w) < 1 for w in walls)


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


# ----------------------------------------------------------------------
# reference samplers: the generator matrices multiplied out, as the words
# were built before they became row operations

def _elementary(spec, n, i, j, a):
    rows = [list(r) for r in FieldMatrix.identity(spec, n).rows]
    rows[i][j] = a
    return FieldMatrix(spec, rows)


def _ref_conjugate(g, t):
    return t * g * t.inverse()


def _ref_sl_integral(spec, n, rng, length=6):
    g = FieldMatrix.identity(spec, n)
    for _ in range(length):
        if rng.random() < 0.75:
            i, j = rng.sample(range(n), 2)
            g = _elementary(spec, n, i, j, sampling.random_integral(spec, rng)) * g
        else:
            g = sampling.random_monomial(spec, n, rng) * g
    return g


def _ref_sl(spec, n, rng, length=6):
    style = rng.randrange(3)
    if style == 0:
        return _ref_sl_integral(spec, n, rng, length)
    if style == 1:
        word = _ref_sl_integral(spec, n, rng, length)
        return _ref_conjugate(word, sampling.random_torus(spec, n, rng))
    g = FieldMatrix.identity(spec, n)
    for _ in range(length):
        i, j = rng.sample(range(n), 2)
        g = _elementary(spec, n, i, j, sampling.random_element(spec, rng, -2, 2)) * g
    return g


def _ref_sp_block_matrix(spec, n, entries, upper):
    block = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n - i):
            block[i][j] = entries(i, j)
    rows = [list(r) for r in FieldMatrix.identity(spec, 2 * n).rows]
    for i in range(n):
        for j in range(n):
            b = block[i][j] if i + j <= n - 1 else block[n - 1 - j][n - 1 - i]
            if upper:
                rows[i][n + j] = b
            else:
                rows[n + i][j] = b
    return FieldMatrix(spec, rows)


def _ref_sp_block_generator(spec, n, rng, upper):
    def entry(i, j):
        if rng.random() < 0.4:
            return spec.zero()
        return sampling.random_integral(spec, rng, allow_zero=False)

    return _ref_sp_block_matrix(spec, n, entry, upper)


def _ref_sp_linear_generator(spec, n, rng):
    if n == 1:
        a = FieldMatrix(spec, [[sampling.random_unit(spec, rng)]])
    else:
        a = _ref_sl_integral(spec, n, rng, 4)
    inv = antitranspose(a).inverse()
    zero = spec.zero()
    rows = [list(a.rows[i]) + [zero] * n for i in range(n)]
    rows += [[zero] * n + list(inv.rows[i]) for i in range(n)]
    return FieldMatrix(spec, rows)


def _ref_sp_monomial(spec, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    full = [0] * (2 * n)
    for i, t in enumerate(perm):
        full[i] = t
        full[2 * n - 1 - i] = 2 * n - 1 - t
    zero, one = spec.zero(), spec.one()
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for i, t in enumerate(full):
        rows[t][i] = one
    for i in range(n):
        if rng.random() < 0.5:
            a, b = i, 2 * n - 1 - i
            rows[a], rows[b] = rows[b], [-e for e in rows[a]]
    return FieldMatrix(spec, rows)


def _ref_sp_integral(spec, n, rng, length=5):
    g = FieldMatrix.identity(spec, 2 * n)
    for _ in range(length):
        kind = rng.randrange(4)
        if kind < 2:
            f = _ref_sp_block_generator(spec, n, rng, upper=kind == 0)
        elif kind == 2:
            f = _ref_sp_linear_generator(spec, n, rng)
        else:
            f = _ref_sp_monomial(spec, n, rng)
        g = f * g
    return g


def _ref_sp_torus(spec, n, rng, emax=1):
    pi = spec.uniformizer()
    return sampling.sp_torus(spec, n, [sampling.random_unit(spec, rng)
                                       * pi ** rng.randint(-emax, emax)
                                       for _ in range(n)])


def _ref_sp(spec, n, rng, length=5):
    g = _ref_sp_integral(spec, n, rng, length)
    style = rng.randrange(3)
    if style == 1:
        g = _ref_conjugate(g, _ref_sp_torus(spec, n, rng))
    elif style == 2:
        g = _ref_sp_torus(spec, n, rng) * g
    return g


def _ref_sp_ray_adapted(spec, n, base, direction, rng, length=4):
    y0 = embedded(SpApartmentPoint(base)).coords
    dy = tuple(Fraction(c) for c in direction)
    dy = dy + tuple(-c for c in reversed(dy))

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
            return sampling.random_element(spec, rng, b, b + 1)
        return entry

    g = FieldMatrix.identity(spec, 2 * n)
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            f = sampling.sp_torus(spec, n, [sampling.random_unit(spec, rng)
                                            for _ in range(n)])
        else:
            f = _ref_sp_block_matrix(spec, n, bounded_entry(kind == 1), kind == 1)
        g = f * g
    return g


@pytest.mark.parametrize("spec", [Q2, Q5, F3T], ids=["Q2", "Q5", "F3T"])
def test_row_operation_words_match_generator_products(spec):
    rng = random.Random(47)
    ref = random.Random()
    for n in (1, 2, 3):
        directions = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(4)]
        pairs = [(sampling.random_sp_integral, _ref_sp_integral),
                 (sampling.random_sp, _ref_sp),
                 (sampling.random_sp_monomial, _ref_sp_monomial)]
        if n > 1:
            pairs.append((sampling.random_sl, _ref_sl))
        for d in directions:
            base = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            pairs.append((lambda s, k, r, b=base, d=d:
                          sampling.random_sp_ray_adapted(s, k, b, d, r),
                          lambda s, k, r, b=base, d=d: _ref_sp_ray_adapted(s, k, b, d, r)))
        for new, old in pairs * 6:
            ref.setstate(rng.getstate())
            assert new(spec, n, rng) == old(spec, n, ref)
            assert rng.getstate() == ref.getstate()


def test_samplers_make_no_matrix_product_or_inverse(monkeypatch):
    def refuse(*args):
        raise AssertionError("matrix product or inverse in a sampler")

    monkeypatch.setattr(FieldMatrix, "__mul__", refuse)
    monkeypatch.setattr(FieldMatrix, "inverse", refuse)
    rng = random.Random(53)
    for spec in (Q2, F3T):
        for n in (1, 2, 3):
            for _ in range(8):
                sampling.random_sp_integral(spec, n, rng)
                sampling.random_sp(spec, n, rng)
                sampling.random_sp_monomial(spec, n, rng)
                sampling.random_sp_ray_adapted(spec, n, (0,) * n, (1,) + (0,) * (n - 1), rng)
                if n == 1:
                    continue
                sampling.random_monomial(spec, n, rng)
                sampling.random_torus(spec, n, rng)
                sampling.random_sl_integral(spec, n, rng)
                sampling.random_sl(spec, n, rng)
                sampling.random_sl_nonintegral(spec, n, rng)
                sampling.random_stabilizing(spec, (0,) * n, rng)
                sampling.random_ray_stabilizing(spec, (0,) * n, (1,) + (0,) * (n - 1), rng)
                sampling.random_block_triangular(spec, n, [0], rng)

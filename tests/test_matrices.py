import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropstab import sampling
from tropstab.errors import (DimensionMismatchError, DomainError, InputError,
                             SingularMatrixError)
from tropstab.fields import INF, FieldSpec, FpTElement
from tropstab.matrices import FieldMatrix, _add_multiple, _eliminate, perm_sign

Q2 = FieldSpec("Qp", 2)
Q3 = FieldSpec("Qp", 3)
Q5 = FieldSpec("Qp", 5)
F3T = FieldSpec("FpT", 3)


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


def test_constructor_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        FieldMatrix(Q2, [[1, 2]])
    with pytest.raises(DimensionMismatchError):
        FieldMatrix(Q2, [])


def test_operators_tell_a_field_mismatch_from_a_size_mismatch():
    # a field mismatch is a bad argument, as in element arithmetic; a size
    # mismatch between matrices over one field is a dimension error
    for a, b in ((FieldMatrix(Q3, [[1]]), FieldMatrix(Q2, [[1]])),
                 (FieldMatrix.identity(F3T, 2), FieldMatrix.identity(Q2, 2)),
                 (FieldMatrix.identity(Q2, 2), FieldMatrix.identity(F3T, 3))):
        with pytest.raises(InputError):
            a * b
    with pytest.raises(DimensionMismatchError):
        FieldMatrix(Q2, [[1]]) * FieldMatrix.identity(Q2, 2)
    assert FieldMatrix(Q2, [[3]]) * FieldMatrix(FieldSpec("Qp", 2), [[2]]) == \
        FieldMatrix(Q2, [[6]])


def test_determinant_small_cases():
    assert FieldMatrix(Q5, [[1, 2], [3, 4]]).determinant() == Q5.element(-2)
    assert FieldMatrix.identity(Q5, 4).determinant() == Q5.one()
    t = F3T.uniformizer()
    m = FieldMatrix(F3T, [[t, 1], [0, t.inv()]])
    assert m.determinant() == F3T.one()


def test_determinant_multiplicative():
    rng = random.Random(7)
    for spec in (Q2, F3T):
        for _ in range(10):
            a = sampling.random_sl(spec, 3, rng, 4)
            b = sampling.random_sl(spec, 3, rng, 4)
            assert (a * b).determinant() == a.determinant() * b.determinant()


def _leibniz(m):
    """Reference determinant: the signed sum over all permutations."""
    total = m.spec.zero()
    for perm in itertools.permutations(range(m.size)):
        term = m.spec.element(perm_sign(perm))
        for i, j in enumerate(perm):
            term = term * m.rows[i][j]
        total = total + term
    return total


def _random_entry(spec, rng):
    return spec.zero() if rng.random() < 0.3 else sampling.random_element(spec, rng, -2, 2)


def _unit_triangular_product(spec, n, rng):
    one, zero = spec.one(), spec.zero()

    def factor(lower):
        return FieldMatrix(spec, [[one if i == j else sampling.random_element(spec, rng, -2, 2)
                                   if (i > j) == lower else zero
                                   for j in range(n)] for i in range(n)])
    return factor(True) * factor(False)


@pytest.mark.parametrize("spec, dense_spec, dense_n", [(Q2, Q3, 14), (F3T, F3T, 10)],
                         ids=["Q2", "F3T"])
def test_determinant_matches_leibniz(spec, dense_spec, dense_n):
    rng = random.Random(11)
    non_unit = 0
    for n in range(1, 6):
        for _ in range(6):
            m = FieldMatrix(spec, [[_random_entry(spec, rng) for _ in range(n)]
                                   for _ in range(n)])
            det = m.determinant()
            assert det == _leibniz(m)
            non_unit += not det.is_zero() and det.valuation() != 0
    assert non_unit > 0
    swap = FieldMatrix(spec, [[0, 1, 2], [1, 1, 1], [2, 1, 2]])
    assert swap.determinant() == _leibniz(swap) == spec.element(-2)
    rows = [[_random_entry(spec, rng) for _ in range(4)] for _ in range(3)]
    repeated = FieldMatrix(spec, rows + [rows[1]])
    assert repeated.determinant() == _leibniz(repeated) == spec.zero()
    rows.append([sampling.random_element(spec, rng) for _ in range(4)])
    zero_column = FieldMatrix(spec, [r[:2] + [0] + r[3:] for r in rows])
    assert zero_column.determinant() == _leibniz(zero_column) == spec.zero()
    # dense products of unit-triangular factors: exponential-cost
    # determinants would show up here as seconds of test time
    dense = _unit_triangular_product(dense_spec, dense_n, rng)
    assert all(not e.is_zero() for row in dense.rows for e in row)
    assert dense.determinant() == dense_spec.one()


def test_sampled_words_have_determinant_one():
    rng = random.Random(17)
    for spec in (Q2, Q5, F3T):
        for n in (2, 3, 4):
            for _ in range(5):
                assert sampling.random_sl(spec, n, rng).determinant() == spec.one()
                assert sampling.random_sl_integral(spec, n, rng).determinant() == spec.one()


def test_inverse_round_trip():
    rng = random.Random(23)
    for spec in (Q5, F3T):
        for _ in range(8):
            g = sampling.random_sl(spec, 3, rng, 4)
            assert g * g.inverse() == FieldMatrix.identity(spec, 3)
            assert g.inverse() * g == FieldMatrix.identity(spec, 3)


@pytest.mark.parametrize("spec", [Q2, F3T], ids=["Q2", "F3T"])
def test_recorded_determinants_match_elimination(spec):
    """Products of known determinants, inverses and monomial matrices record
    their determinants without elimination; each must be the eliminated one."""
    rng = random.Random(37)
    recorded = []
    for n in (2, 3, 4):
        for _ in range(4):
            d = FieldMatrix.diagonal(spec, [sampling.random_element(spec, rng, -2, 2)
                                            for _ in range(n)])
            h = sampling.random_sl(spec, n, rng, 4)
            m = sampling.random_monomial(spec, n, rng)
            g = d * h
            assert g._det is None
            g_inv = g.inverse()  # records det g as well
            s = FieldMatrix(spec, [g.rows[0]] + list(g.rows[:-1]))
            h.determinant()
            s.determinant()
            recorded += [g, g_inv, m, h * m, m * h * m, g_inv * h, m * g * g_inv,
                         h * g, g * g, s * h, g * s]
    for g in recorded:
        assert g._det is not None
        assert g._det == _eliminate([list(r) for r in g.rows], spec.zero())
    assert any(not g._det for g in recorded)
    assert any(g._det.valuation() not in (0, INF) for g in recorded)


def test_inverse_of_singular():
    with pytest.raises(SingularMatrixError):
        FieldMatrix(Q2, [[1, 1], [1, 1]]).inverse()


def _product(a, b):
    """Reference product: entry (i, j) is the sum over k of a_ik b_kj."""
    n = a.size
    return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), a.spec.zero())
             for j in range(n)] for i in range(n)]


def _with_zero_row_and_column(spec, rows, i, j):
    return FieldMatrix(spec, [[0 if r == i or c == j else e for c, e in enumerate(row)]
                              for r, row in enumerate(rows)])


@pytest.mark.parametrize("spec", [Q2, F3T], ids=["Q2", "F3T"])
def test_product_matches_definition(spec):
    rng = random.Random(29)
    for n in range(1, 6):
        for _ in range(4):
            a, b = (FieldMatrix(spec, [[_random_entry(spec, rng) for _ in range(n)]
                                       for _ in range(n)]) for _ in range(2))
            assert (a * b).rows == tuple(map(tuple, _product(a, b)))
            i, j = rng.randrange(n), rng.randrange(n)
            a0 = _with_zero_row_and_column(spec, a.rows, i, j)
            b0 = _with_zero_row_and_column(spec, b.rows, j, i)
            for x, y in ((a0, b), (a, b0), (a0, b0)):
                assert (x * y).rows == tuple(map(tuple, _product(x, y)))
            assert all(e.is_zero() for e in (a0 * b).rows[i])
            assert all(row[i].is_zero() for row in (a * b0).rows)


def _adjugate(m):
    """Reference adjugate: entry (i, j) is the (j, i) cofactor by Leibniz."""
    n = m.size
    if n == 1:
        return [[m.spec.one()]]

    def minor(r, c):
        return FieldMatrix(m.spec, [[e for k, e in enumerate(row) if k != c]
                                    for q, row in enumerate(m.rows) if q != r])
    return [[_leibniz(minor(j, i)) * (-1) ** (i + j) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("spec", [Q2, F3T], ids=["Q2", "F3T"])
def test_inverse_matches_adjugate(spec):
    rng = random.Random(31)
    swaps = non_unit = 0
    for n in range(1, 6):
        for trial in range(8):
            rows = [[_random_entry(spec, rng) for _ in range(n)] for _ in range(n)]
            if trial % 2 and n > 1:
                rows[0][0] = spec.zero()  # the first pivot needs a row swap
            m = FieldMatrix(spec, rows)
            det = _leibniz(m)
            if det.is_zero():
                with pytest.raises(SingularMatrixError):
                    m.inverse()
                continue
            assert m.determinant() == det
            adj = _adjugate(m)
            assert m.inverse().rows == tuple(tuple(e / det for e in row) for row in adj)
            swaps += m.rows[0][0].is_zero()
            non_unit += det.valuation() != 0
    assert swaps > 0 and non_unit > 0
    for singular in ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], [[1, 2, 0], [2, 4, 0], [0, 0, 1]]):
        with pytest.raises(SingularMatrixError):
            FieldMatrix(spec, singular).inverse()


def test_elimination_inverts_each_pivot_once(monkeypatch):
    # a dense F_3(T) determinant inverts one pivot per eliminated column
    # (the last has no row below it), not one per row below it, and still
    # equals the Leibniz sum
    rng = random.Random(37)
    n = 6
    m = FieldMatrix(F3T, [[sampling.random_element(F3T, rng, -2, 2) for _ in range(n)]
                          for _ in range(n)])
    expected = _leibniz(m)
    calls = []
    inv = FpTElement.inv

    def counted(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(FpTElement, "inv", counted)
    assert m.determinant() == expected
    assert 0 < len(calls) <= n - 1


def test_dense_determinants_coerce_no_int(monkeypatch):
    # the pivot's negated inverse is taken without turning -1 into a field
    # element, so a dense determinant coerces nothing
    rng = random.Random(41)
    matrices = [_unit_triangular_product(spec, 6, rng) for spec in (Q3, F3T)]
    calls = []
    element = FieldSpec.element

    def counted(self, value):
        calls.append(value)
        return element(self, value)

    monkeypatch.setattr(FieldSpec, "element", counted)
    for m in matrices:
        assert all(not e.is_zero() for row in m.rows for e in row)
        assert m.determinant() == m.spec.one()
    assert calls == []


def _kernel_entries(spec):
    """Zero, Laurent polynomials u / T^k and general quotients over F_p(T);
    zero, small rationals and powers of p over Q_p."""
    if spec.kind == "Qp":
        return st.builds(lambda q, k: spec.element(q * Fraction(spec.p) ** k),
                         st.fractions(min_value=-9, max_value=9, max_denominator=12),
                         st.integers(-2, 2))
    poly = st.lists(st.integers(0, spec.p - 1), max_size=3).map(tuple)
    nonzero = poly.filter(any)
    laurent = st.builds(lambda u, k: FpTElement(spec, u, (0,) * k + (1,)), poly,
                        st.integers(0, 2))
    return st.just(spec.zero()) | laurent | st.builds(
        lambda u, w: FpTElement(spec, u, w), poly, nonzero)


@settings(max_examples=200)
@given(st.sampled_from([Q2, Q3, F3T, None]), st.data())
def test_add_multiple_matches_entrywise_arithmetic(spec, data):
    # the fused row update of each field, and the plain loop over Fractions,
    # give the entries row[j] + a * source[j] exactly; a drawn column's row
    # entry is -a * source[j], so that the sum cancels to zero
    entries = (st.fractions(min_value=-9, max_value=9, max_denominator=12) if spec is None
               else _kernel_entries(spec))
    width = data.draw(st.integers(1, 5))
    a = data.draw(entries)
    source = data.draw(st.lists(entries, min_size=width, max_size=width))
    row = data.draw(st.lists(entries, min_size=width, max_size=width))
    for j in data.draw(st.sets(st.integers(0, width - 1))):
        row[j] = -(a * source[j])
    cols = data.draw(st.sets(st.integers(0, width - 1))
                     | st.just({j for j, e in enumerate(source) if e}))
    expected = [r + a * s if j in cols else r for j, (r, s) in enumerate(zip(row, source))]
    got = list(row)
    _add_multiple(got, a, source, sorted(cols))
    for g, e in zip(got, expected):
        assert type(g) is type(e)
        if spec is None:
            assert g == e
        else:
            assert (g.num, g.den, hash(g)) == (e.num, e.den, hash(e)) and g == e
            if spec.kind == "FpT":
                assert (g._v, g._u, g._w) == (e._v, e._u, e._w)


def test_residue_matrix():
    m = FieldMatrix(Q5, [[Fraction(7, 2), 5], [0, 1]])
    assert m.residue() == ((1, 0), (0, 1))
    with pytest.raises(DomainError):
        FieldMatrix(Q5, [[Fraction(1, 5), 0], [0, 5]]).residue()


def test_integrality():
    assert FieldMatrix(Q2, [[1, 3], [5, 7]]).is_integral()
    assert not FieldMatrix(Q2, [[Fraction(1, 2), 0], [0, 2]]).is_integral()

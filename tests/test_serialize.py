import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropstab import errors, sampling
from tropstab.apartment import ApartmentPoint
from tropstab.feasibility import strictly_feasible
from tropstab.errors import DivisionByZeroError
from tropstab.fields import FieldSpec
from tropstab.serialize import (MAX_DEGREE, InputError, element_from_json,
                                element_to_json,
                                fraction_from_json, fraction_to_str,
                                matrix_from_json, matrix_to_json,
                                point_from_json, point_to_json, trop_from_json,
                                trop_to_json)
from tropstab.tropical import NEG_INF
from tropstab.weights import as_partition

Q5 = FieldSpec("Qp", 5)
F3T = FieldSpec("FpT", 3)


def test_fraction_strings():
    assert fraction_to_str(Fraction(7, 2)) == "7/2"
    assert fraction_to_str(Fraction(-4)) == "-4"
    assert fraction_from_json("7/2") == Fraction(7, 2)
    assert fraction_from_json(3) == Fraction(3)
    with pytest.raises(InputError):
        fraction_from_json("1/0")
    with pytest.raises(InputError):
        fraction_from_json(True)
    # exponent notation is not an encoding: "1e10000000" alone would cost
    # seconds to parse
    for text in ("1e3", "2E-1", "1/1e5", "1e10000000"):
        with pytest.raises(InputError):
            fraction_from_json(text)
    with pytest.raises(InputError):
        fraction_from_json("1" * 5001)


def _parent_fraction_rule(text):
    """The reader before its fast path, kept as the reference: Fraction(text)
    behind the exponent guard, or None for an InputError."""
    if "e" in text.lower():
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


@settings(max_examples=500)
@given(st.text(alphabet="0123456789\u0663-+/._ eE", max_size=10)
       | st.sampled_from(("7" * 4301, "-" + "7" * 4301, "1/" + "3" * 4301,
                          "1/0", "-0/5", "007/010", "\u0663/2", "\u00b2", "+", "-")))
@example("1 / 2")
@example(" -3 ")
def test_fraction_from_json_matches_fraction_strings(text):
    expected = _parent_fraction_rule(text)
    if expected is None:
        with pytest.raises(InputError, match="not a rational"):
            fraction_from_json(text)
    else:
        got = fraction_from_json(text)
        assert type(got) is Fraction and got == expected


def test_fraction_to_str_prints_ints_and_fractions_alike():
    for q in (0, -7, 12, 10 ** 30, True):
        assert fraction_to_str(q) == fraction_to_str(Fraction(q))
    assert fraction_to_str(Fraction(6, -4)) == "-3/2"


def test_trop_scalar_round_trip():
    assert trop_to_json(NEG_INF) == "-inf"
    assert trop_from_json("-inf") is NEG_INF
    assert trop_from_json(trop_to_json(Fraction(-3, 4))) == Fraction(-3, 4)


def test_qp_element_round_trip():
    e = Q5.element(Fraction(-7, 10))
    assert element_to_json(e) == "-7/10"
    assert element_from_json(Q5, "-7/10") == e


def test_fpt_element_round_trip():
    t = F3T.uniformizer()
    e = (t ** 2 + 1) / (t + 2)
    data = element_to_json(e)
    assert set(data) == {"num", "den"}
    assert element_from_json(F3T, data) == e
    assert element_from_json(F3T, 2) == F3T.element(2)
    assert element_from_json(F3T, "1/2") == F3T.element(Fraction(1, 2))


def _quotient_oracle(spec, data):
    """The reader's F_p(T) rule before it built one reduced pair, kept as
    the reference: num and den as polynomials, then their quotient; None
    for a denominator that vanishes mod p."""
    num, den = ({int(d): int(c) for d, c in m.items()}
                for m in (data.get("num", {}), data.get("den", {"0": 1})))
    try:
        return spec.polynomial(num) / spec.polynomial(den)
    except DivisionByZeroError:
        return None


degree_maps = st.dictionaries(
    st.sampled_from(("0", "1", "2", "3", "01", "002", "10")),
    st.integers(min_value=-7, max_value=7)
    | st.integers(min_value=-7, max_value=7).map(str), max_size=4)


@settings(max_examples=400)
@given(st.dictionaries(st.sampled_from(("num", "den")), degree_maps))
@example({"num": {"0": "1"}, "den": {"0": 1, "1": 1}})
@example({"num": {"1": 2}, "den": {"0": 3, "1": "6"}})
@example({"num": {}, "den": {}})
@example({"num": {"2": 1, "002": 0}})
@example({"den": {"2": 1, "0": 0, "002": 0}})
@example({"num": {"1": 1}, "den": {"3": 2}})
def test_fpt_element_matches_polynomial_quotient(data):
    expected = _quotient_oracle(F3T, data)
    if expected is None:
        with pytest.raises(InputError, match="zero denominator modulo 3"):
            element_from_json(F3T, data)
    else:
        got = element_from_json(F3T, data)
        assert (got.num, got.den) == (expected.num, expected.den)
        assert got == expected and hash(got) == hash(expected)


@settings(max_examples=300)
@given(st.sampled_from((FieldSpec("Qp", 2), FieldSpec("Qp", 3), Q5)),
       st.from_regex(r"-?[0-9]{1,12}(/[0-9]{1,12})?", fullmatch=True))
@example(Q5, "-0")
@example(Q5, "007/010")
@example(Q5, "0/5")
@example(Q5, "-12/0")
def test_qp_plain_strings_read_as_their_fraction(spec, text):
    # the plain form skips Fraction and FieldSpec.element, not their result
    if not int(text.partition("/")[2] or 1):
        with pytest.raises(InputError, match="not a rational"):
            element_from_json(spec, text)
        return
    got, expected = element_from_json(spec, text), spec.element(Fraction(text))
    assert (got.num, got.den, hash(got)) == (expected.num, expected.den, hash(expected))
    assert got == expected and got.valuation() == expected.valuation()


def test_fpt_degree_bound():
    t = F3T.uniformizer()
    top = str(MAX_DEGREE)
    assert element_from_json(F3T, {"num": {top: 1}}) == t ** MAX_DEGREE
    assert element_from_json(F3T, {"num": {"0": 1}, "den": {top: 1}}) == t ** -MAX_DEGREE
    for data in ({"num": {str(MAX_DEGREE + 1): 1}}, {"den": {"10000000": 1}}):
        with pytest.raises(InputError):
            element_from_json(F3T, data)


def test_fpt_element_refuses_keys_other_than_num_and_den():
    # a misspelt key is refused, not read as a missing numerator or denominator
    for data in ({"nmu": {"1": 1}}, {"num": {"1": 1}, "dne": {"5": 1}},
                 {"num": {"0": 1}, "den": {"0": 1}, "x": 0}):
        with pytest.raises(InputError, match="key other than num and den"):
            element_from_json(F3T, data)


def test_matrix_round_trip():
    rng = random.Random(1)
    for spec in (Q5, F3T):
        g = sampling.random_sl(spec, 3, rng)
        assert matrix_from_json(spec, matrix_to_json(g)) == g
    with pytest.raises(InputError):
        matrix_from_json(Q5, "nope")


def test_point_round_trip():
    coords = (Fraction(1, 2), NEG_INF, Fraction(-3))
    assert point_from_json(point_to_json(coords)) == list(coords)
    with pytest.raises(InputError):
        point_from_json([])


def test_library_argument_errors_are_input_errors():
    assert InputError is errors.InputError
    assert issubclass(InputError, errors.TropstabError)
    for call in (lambda: FieldSpec("Qp", 4), lambda: as_partition((1, 2)),
                 lambda: strictly_feasible([(1, 0), (1,)]), lambda: ApartmentPoint(())):
        with pytest.raises(InputError):
            call()

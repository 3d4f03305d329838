import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropstab import weights
from tropstab.errors import (InputError, NotAVertexError, RepeatedValuesError,
                             TooManyPartsError, TypeMismatchError,
                             WeightMismatchError)
from tropstab.feasibility import _primitive_vector, strictly_feasible
from tropstab.fields import FieldSpec
from tropstab.tropical import NEG_INF
from tropstab.weights import (GROUP_SL, GROUP_SP, WeightedCharacter,
                              WeylElement, as_partition, dominance_cone,
                              dominant_weight, integer_coords, kostka_number,
                              normal_cone_member, partitions_of,
                              polytope_vertices, schur_eval,
                              schur_eval_bialternant, schur_eval_tableaux,
                              skeleton_member, sl_identity_character,
                              sl_partition_character, sp_standard_character,
                              tropical_hypersurface_member, weight_fan,
                              weyl_cone, weyl_elements, weyl_orbit)


# ----------------------------------------------------------------------
# strict feasibility

def test_strictly_feasible_known_systems():
    assert strictly_feasible([(1, 0), (0, 1)])
    assert not strictly_feasible([(1, 0), (-1, 0)])
    assert not strictly_feasible([(1, -1, 0), (0, 1, -1), (-1, 0, 1)])
    assert strictly_feasible([(1, -1, 0), (0, 1, -1)])
    assert not strictly_feasible([(0, 0)])
    assert strictly_feasible([])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-3, 3)), min_size=1, max_size=5))
def test_strictly_feasible_matches_grid_search(rows):
    got = strictly_feasible(rows)
    grid = [Fraction(k, 2) for k in range(-6, 7)]
    witness = any(
        all(sum(c * x for c, x in zip(r, pt)) > 0 for r in rows)
        for pt in itertools.product(grid, repeat=3))
    if witness:
        assert got
    # no witness on the grid does not prove infeasibility, so only one
    # direction is asserted


def _fixed_order_feasible(rows):
    """Reference: Fourier-Motzkin eliminating the variables left to right."""
    work = set()
    for r in rows:
        if not any(r):
            return False
        work.add(_primitive_vector(r))
    for var in range(len(rows[0])):
        nxt = {r for r in work if r[var] == 0}
        for a in (r for r in work if r[var] > 0):
            for b in (r for r in work if r[var] < 0):
                comb = tuple(-b[var] * ak + a[var] * bk for ak, bk in zip(a, b))
                if not any(comb):
                    return False
                nxt.add(_primitive_vector(comb))
        work = nxt
    return True


def test_strictly_feasible_matches_fixed_order_elimination():
    rng = random.Random(12)
    answers = set()
    for _ in range(400):
        dim = rng.randint(2, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.3:
            # a nonnegative combination negated makes the system infeasible
            picked = rng.sample(rows, rng.randint(1, len(rows)))
            rows.append(tuple(-sum(r[i] for r in picked) for i in range(dim)))
        want = _fixed_order_feasible(rows)
        assert strictly_feasible(rows) == want, rows
        answers.add(want)
    assert answers == {True, False}


# ----------------------------------------------------------------------
# characters

def test_identity_character():
    for n in (2, 3):
        char = sl_identity_character(n)
        expected = {tuple(1 if i == j else 0 for j in range(n)) for i in range(n)}
        assert set(char.weights) == expected
        assert char.dimension() == n
        assert all(char.multiplicity(mu) == 1 for mu in char.weights)


def test_sp_standard_character():
    char = sp_standard_character(2)
    assert set(char.weights) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert char.dimension() == 4
    assert all(tuple(-a for a in mu) in char.weights for mu in char.weights)


def test_kostka_examples():
    assert kostka_number((2, 1, 0), (1, 1, 1)) == 2
    assert kostka_number((2, 1, 0), (2, 1, 0)) == 1
    assert kostka_number((1,), (0, 1, 0)) == 1
    assert kostka_number((3, 1), (2, 2)) == 1
    with pytest.raises(WeightMismatchError):
        kostka_number((2, 1), (1, 1, 1, 1))


def test_kostka_symmetric_in_content():
    lam = (3, 2, 1)
    for mu in itertools.permutations((2, 2, 1, 1)):
        assert kostka_number(lam, mu) == kostka_number(lam, (2, 2, 1, 1))


def test_partition_character_standard_case():
    assert sl_partition_character((1,), 2) == sl_identity_character(2)
    assert sl_partition_character((1, 0), 3) == sl_identity_character(3)


def test_partition_character_adjoint_like():
    char = sl_partition_character((2, 1, 0), 3)
    assert char.dimension() == 8
    assert char.multiplicity((1, 1, 1)) == 2
    extremes = set(itertools.permutations((2, 1, 0)))
    assert all(char.multiplicity(mu) == 1 for mu in extremes)
    assert set(char.weights) == extremes | {(1, 1, 1)}


def test_partition_character_rejects_long_partitions():
    with pytest.raises(TooManyPartsError):
        sl_partition_character((1, 1, 1), 2)


def test_vertex_weights_have_multiplicity_one():
    char = sl_partition_character((2, 1, 0), 3)
    for mu in polytope_vertices(char):
        assert char.multiplicity(mu) == 1


# ----------------------------------------------------------------------
# Schur evaluations

def test_schur_linear_case():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 5)
        z = tuple(Fraction(rng.randint(1, 30), rng.randint(1, 5)) for _ in range(n))
        assert schur_eval_tableaux((1,), z) == sum(z)


def test_schur_small_example():
    assert schur_eval((2, 1), (1, 2)) == 6
    assert schur_eval((2, 1), (Fraction(1, 2), 3)) == \
        Fraction(1, 4) * 3 + Fraction(1, 2) * 9


def test_schur_routes_agree():
    rng = random.Random(2)
    pool = [Fraction(a, b) for a in range(-8, 9) for b in (1, 2, 3) if a]
    pool = sorted(set(pool))
    for m in range(1, 6):
        for lam in partitions_of(m, max_parts=3):
            for _ in range(5):
                z = tuple(rng.sample(pool, 3))
                assert schur_eval_tableaux(lam, z) == schur_eval_bialternant(lam, z)


def test_schur_empty_partition():
    assert schur_eval((), (2, 3)) == 1
    assert schur_eval((0, 0), (2, 3)) == 1
    assert schur_eval((), ()) == 1


def test_bialternant_rejects_repeats():
    with pytest.raises(RepeatedValuesError):
        schur_eval_bialternant((1,), (2, 2))


def test_tableau_count_equals_all_ones_evaluation():
    lam = (2, 2, 1)
    n = 4
    count = sum(kostka_number(lam, mu)
                for mu in itertools.product(range(6), repeat=n) if sum(mu) == 5)
    assert schur_eval_tableaux(lam, (1, 1, 1, 1)) == count


# ----------------------------------------------------------------------
# cones and fans

def test_dominant_weights():
    assert dominant_weight(sl_identity_character(3)) == (1, 0, 0)
    assert dominant_weight(sp_standard_character(3)) == (1, 0, 0)
    assert dominant_weight(sl_partition_character((2, 1, 0), 3)) == (2, 1, 0)


def test_dominance_cone_identity_rep():
    char = sl_identity_character(3)
    cone = dominance_cone(char, WeylElement.identity(3))
    assert cone.contains((2, 1, 0))
    assert cone.contains((1, 1, 0))
    assert not cone.contains((0, 1, 0))


def test_dominance_cone_sp_standard():
    char = sp_standard_character(2)
    cone = dominance_cone(char, WeylElement.identity(2))
    assert cone.contains((1, 0))
    assert cone.contains((1, 1))
    assert cone.contains((1, -1))
    assert not cone.contains((0, 1))
    assert not cone.contains((-1, 0))
    assert not cone.contains((1, 2))


def test_dominance_cone_regular_weight_is_weyl_cone():
    char = sl_partition_character((3, 2, 1), 3)
    rng = random.Random(3)
    for w in weyl_elements(GROUP_SL, 3):
        big = dominance_cone(char, w)
        chamber = weyl_cone(GROUP_SL, 3, w)
        for _ in range(100):
            x = tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))
                      for _ in range(3))
            assert big.contains(x) == chamber.contains(x)


def test_dominance_cone_type_mismatch():
    char = sl_identity_character(3)
    with pytest.raises(TypeMismatchError):
        dominance_cone(char, WeylElement((0, 1), (1, 1)))
    with pytest.raises(TypeMismatchError):
        dominance_cone(char, WeylElement((0, 1, 2), (1, -1, 1)))


def test_weyl_equivariance_of_cones():
    char = sp_standard_character(2)
    elements = list(weyl_elements(GROUP_SP, 2))
    rng = random.Random(4)
    for _ in range(30):
        w1, w2 = rng.choice(elements), rng.choice(elements)
        image = {tuple(w1.apply(f))
                 for f in dominance_cone(char, w2).functionals}
        target = set(dominance_cone(char, w1.compose(w2)).functionals)
        assert image == target


def test_fan_counts():
    for n in (2, 3, 4, 5):
        assert len(weight_fan(sl_identity_character(n))) == n
    for n in (1, 2, 3):
        assert len(weight_fan(sp_standard_character(n))) == 2 * n
    assert len(weight_fan(sl_partition_character((3, 2, 1), 3))) == 6


def test_vertices_examples():
    assert polytope_vertices(sl_identity_character(3)) == \
        frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)})
    adj = sl_partition_character((2, 1, 0), 3)
    assert polytope_vertices(adj) == frozenset(itertools.permutations((2, 1, 0)))
    assert (1, 1, 1) not in polytope_vertices(adj)
    assert polytope_vertices(sp_standard_character(1)) == frozenset({(1,), (-1,)})


@pytest.mark.parametrize("group, mu", [
    (GROUP_SL, (1, 0)), (GROUP_SL, (2, 1, 0)), (GROUP_SL, (1, 1, 0, 0)),
    (GROUP_SL, (0, 0, 0, 0)), (GROUP_SL, (2, 2, 1, 0, 0)), (GROUP_SL, (3, 2, 2, 1, 1, 0)),
    (GROUP_SL, (2, -1, 0, 0, -1, 2)), (GROUP_SP, (0,)), (GROUP_SP, (1,)),
    (GROUP_SP, (2, 2)), (GROUP_SP, (1, 0, 0)), (GROUP_SP, (2, 1, 1)),
    (GROUP_SP, (3, 2, 1, 0)), (GROUP_SP, (1, 1, 0, 0)), (GROUP_SP, (2, -2, 0, 1))])
def test_weyl_orbit_is_distinct_images(group, mu):
    assert weyl_orbit(group, mu) == {w.apply(mu) for w in weyl_elements(group, len(mu))}


def test_group_arguments_take_a_group_or_its_tag():
    for group in (GROUP_SL, GROUP_SP):
        assert list(weyl_elements(group.tag, 2)) == list(weyl_elements(group, 2))
        assert weyl_orbit(group.tag, (1, 0)) == weyl_orbit(group, (1, 0))
        w = WeylElement.identity(2)
        assert weyl_cone(group.tag, 2, w) == weyl_cone(group, 2, w)
        assert WeightedCharacter(group.tag, 1, {(1,): 1}).group is group
    assert weights.canonical_weight(GROUP_SL.tag, (2, 1, 1)) == (1, 0, 0)
    assert weights.canonical_weight(GROUP_SP.tag, (2, 1, 1)) == (2, 1, 1)
    for bogus in ("gl", "SL", 3, None, [GROUP_SL.tag], GROUP_SL.require):
        for call in (lambda: list(weyl_elements(bogus, 2)),
                     lambda: weyl_orbit(bogus, (1, 0)),
                     lambda: weyl_cone(bogus, 2, WeylElement.identity(2)),
                     lambda: weights.canonical_weight(bogus, (2, 1, 1)),
                     lambda: WeightedCharacter(bogus, 1, {(1,): 1})):
            with pytest.raises(InputError, match="unknown group"):
                call()


def test_vertices_are_weyl_orbit():
    for char in (sl_identity_character(4), sp_standard_character(3),
                 sl_partition_character((2, 1, 0), 3)):
        orbit = frozenset(w.apply(dominant_weight(char))
                          for w in weyl_elements(char.group, char.rank))
        assert polytope_vertices(char) == orbit


def _feasibility_vertices(ws):
    """The definition: mu is a vertex when the rows mu - nu, nu != mu, are
    strictly feasible."""
    return frozenset(mu for mu in ws if strictly_feasible(
        [tuple(a - b for a, b in zip(mu, nu)) for nu in ws if nu != mu]))


def _counted_vertices(monkeypatch, ws):
    """polytope_vertices of a fresh character on ws, and the rows of every
    strict feasibility call it made."""
    calls = []
    monkeypatch.setattr(weights, "strictly_feasible",
                        lambda rows: calls.append(rows) or strictly_feasible(rows))
    char = WeightedCharacter(GROUP_SL, len(ws[0]), {mu: 1 for mu in ws})
    return polytope_vertices(char), calls


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.sets(
    st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=9)))
def test_vertices_match_feasibility_definition(ws):
    char = WeightedCharacter(GROUP_SL, len(next(iter(ws))), {mu: 1 for mu in ws})
    assert polytope_vertices(char) == _feasibility_vertices(char.weights)


def test_vertex_certificates_each_branch(monkeypatch):
    # (1, 1) is inside the triangle, neither exposed nor a midpoint: only
    # elimination decides it; the corners are exposed by N*mu - S
    verts, calls = _counted_vertices(monkeypatch, [(0, 0), (3, 0), (0, 3), (1, 1)])
    assert verts == frozenset({(0, 0), (3, 0), (0, 3)})
    assert calls == [[(1, 1), (1, -2), (-2, 1)]]
    # (1,) is the midpoint of (0,) and (2,), and f = 3*(1,) - (3,) is zero
    verts, calls = _counted_vertices(monkeypatch, [(0,), (1,), (2,)])
    assert verts == frozenset({(0,), (2,)}) and calls == []
    # (0, 2) is a vertex that N*mu - S = (-1, 2) does not expose: (1, 3) scores more
    verts, calls = _counted_vertices(monkeypatch, [(0, 0), (0, 1), (0, 2), (1, 3)])
    assert verts == frozenset({(0, 0), (0, 2), (1, 3)})
    assert calls == [[(0, 2), (0, 1), (-1, -1)]]
    assert _counted_vertices(monkeypatch, [(4, -1)]) == (frozenset({(4, -1)}), [])


def test_weyl_characters_need_no_elimination(monkeypatch):
    for char, count in ((sl_partition_character((3, 2, 1), 5), 60),
                        (sp_standard_character(3), 6), (sl_identity_character(4), 4)):
        verts, calls = _counted_vertices(monkeypatch, char.weights)
        assert len(verts) == count and calls == []


def test_normal_cone_member():
    char = sl_identity_character(3)
    assert normal_cone_member(char, (1, 0, 0), (2, 0, -2))
    assert not normal_cone_member(char, (1, 0, 0), (0, 1, -1))
    assert all(normal_cone_member(char, v, (0, 0, 0))
               for v in polytope_vertices(char))
    with pytest.raises(NotAVertexError):
        normal_cone_member(sl_partition_character((2, 1, 0), 3), (1, 1, 1), (0, 0, 0))


def test_cone_membership_equals_normal_cone():
    rng = random.Random(5)
    for char in (sl_identity_character(4), sp_standard_character(2),
                 sl_partition_character((2, 1, 0), 3)):
        fan = weight_fan(char)
        for _ in range(150):
            x = tuple(Fraction(rng.randint(-10, 10), rng.choice((1, 2, 3)))
                      for _ in range(char.rank))
            for fc in fan.maximal_cones:
                assert fc.cone.contains(x) == normal_cone_member(char, fc.vertex, x)


def test_weight_readers_refuse_floats():
    # a float carries its binary value, which is not the number it was written as
    identity = sl_identity_character(2)
    for read in (lambda: schur_eval_tableaux((1,), (0.1, 0.2)),
                 lambda: schur_eval_bialternant((1,), (Fraction(1, 10), 0.2)),
                 lambda: schur_eval((1,), (0.1, 0.2)),
                 lambda: WeightedCharacter(GROUP_SL, 2, {(0.5, 1): 1}),
                 lambda: WeightedCharacter(GROUP_SL, 2, {(0, 1): 1.9}),
                 lambda: as_partition((2.7, 1)),
                 lambda: sl_partition_character((2.0, 1), 3),
                 lambda: kostka_number((2, 1), (2.0, 1)),
                 lambda: normal_cone_member(identity, (1.2, 0), (0, 0))):
        with pytest.raises(InputError, match="not exact"):
            read()
    assert as_partition(("2", Fraction(1), 0)) == (2, 1)
    assert schur_eval((1,), ("1/10", Fraction(1, 5))) == Fraction(3, 10)
    assert WeightedCharacter(GROUP_SL, 2, {(True, 0): Fraction(2)}).items() == (((1, 0), 2),)
    assert normal_cone_member(identity, [Fraction(1), 0], (1, 0))


def test_weight_readers_refuse_non_integral_rationals():
    # int() would truncate: (5/2, 1) was read as (2, 1), the weight (1/2, 1)
    # as (0, 1) with multiplicity 1, and the vertex (3/2, 0) as (1, 0)
    identity = sl_identity_character(2)
    for read in (lambda: as_partition((Fraction(5, 2), 1)),
                 lambda: WeightedCharacter(GROUP_SL, 2, {(Fraction(1, 2), 1): 1}),
                 lambda: WeightedCharacter(GROUP_SL, 2, {(0, 1): Fraction(3, 2)}),
                 lambda: normal_cone_member(identity, (Fraction(3, 2), 0), (0, 0))):
        with pytest.raises(InputError, match="not an integer"):
            read()
    assert as_partition((Fraction(4, 2), True, "1")) == (2, 1, 1)
    assert WeightedCharacter(GROUP_SL, 2, {(Fraction(2, 2), "0"): Fraction(3)}).items() \
        == (((1, 0), 3),)
    assert normal_cone_member(identity, (Fraction(2, 2), 0), (1, 0))


_COORD = st.one_of(st.integers(-6, 6), st.booleans(),
                   st.fractions(min_value=-6, max_value=6, max_denominator=4))


@settings(max_examples=200, deadline=None)
@given(st.lists(_COORD, min_size=3, max_size=3))
def test_integer_points_are_not_rescaled(xs):
    exact = [Fraction(x) for x in xs]
    for char in (sl_partition_character((2, 1, 0), 3), sp_standard_character(3)):
        for fc in weight_fan(char).maximal_cones:
            assert fc.cone.contains(xs) == fc.cone.contains(exact)
    xi, scale = integer_coords(xs, 3)
    assert type(xi) is list and scale >= 1
    assert xi == [scale * x for x in exact] and all(type(c) is int for c in xi)
    if all(type(x) is int for x in xs):
        assert (xi, scale) == (xs, 1)
    for bad in ((NEG_INF,) + tuple(xs[1:]), tuple(xs[:2]) + (0.5,)):
        with pytest.raises(InputError):
            integer_coords(bad, 3)


# ----------------------------------------------------------------------
# integer predicates against a Fraction reference

def _dot(mu, x):
    return sum((Fraction(m) * Fraction(c) for m, c in zip(mu, x)), Fraction(0))


def _reference_contains(cone, x):
    return all(_dot(f, x) >= 0 for f in cone.functionals)


def _reference_hypersurface(char, p, x):
    def val(c):
        k = 0
        while c % p == 0:
            c, k = c // p, k + 1
        return k
    terms = [_dot(mu, x) - val(c) for mu, c in char.items()]
    return terms.count(max(terms)) >= 2


def _oracle_points(rng, char, rounds):
    """Random points with denominators 1 to 12, some coordinates zero, and
    points on reflecting hyperplanes, which carry the walls of the fan."""
    n = char.rank
    for _ in range(rounds):
        x = [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(n)]
        if rng.random() < 0.3:
            x[rng.randrange(n)] = Fraction(0)
        yield tuple(x)
        i, j = rng.randrange(n), rng.randrange(n)
        y = list(x)
        if char.group == GROUP_SP and rng.random() < 0.5:
            y[i], y[j] = (x[i] - x[j]) / 2, (x[j] - x[i]) / 2  # on x_i = -x_j
        else:
            y[i] = y[j] = (x[i] + x[j]) / 2
        yield tuple(y)
    yield (Fraction(0),) * n


@pytest.mark.parametrize("char", [
    sl_identity_character(3), sl_identity_character(4), sl_identity_character(5),
    sp_standard_character(2), sp_standard_character(3),
    sl_partition_character((2, 1, 0), 3), sl_partition_character((3, 2, 1, 0, 0), 5)],
    ids=["identity-3", "identity-4", "identity-5", "sp-2", "sp-3", "schur-210",
         "schur-32100"])
def test_integer_predicates_match_fraction_reference(char):
    rng = random.Random(char.rank * 31 + len(char.weights))
    fan = weight_fan(char)
    verts = polytope_vertices(char)
    # the Fraction reference is slow: fewer points for fans of many cones
    for x in _oracle_points(rng, char, min(60, 1200 // len(fan))):
        hits = 0
        for fc in fan.maximal_cones:
            want = _reference_contains(fc.cone, x)
            assert fc.cone.contains(x) == want, (x, fc.vertex)
            hits += want
        for v in verts:
            top = _dot(v, x)
            assert normal_cone_member(char, v, x) == \
                all(_dot(nu, x) <= top for nu in char.weights), (x, v)
        assert skeleton_member(fan, x) == (hits >= 2), x
        for p in (2, 3):
            assert tropical_hypersurface_member(char, p, x) == \
                _reference_hypersurface(char, p, x), (x, p)


def test_hypersurface_valuation_ties_scale_with_the_point():
    # vertex multiplicities divisible by p move the ties off the fan's walls,
    # to x_j - x_i = v_p(c_j) - v_p(c_i)
    char = WeightedCharacter(GROUP_SL, 3, {(1, 0, 0): 2, (0, 1, 0): 3, (0, 0, 1): 12})
    rng = random.Random(13)
    answers = set()
    for _ in range(300):
        p = rng.choice((2, 3))
        x = [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(3)]
        i, j = rng.sample(range(3), 2)
        x[j] = x[i] + rng.randint(-2, 2)
        want = _reference_hypersurface(char, p, x)
        assert tropical_hypersurface_member(char, p, x) == want, (x, p)
        answers.add(want)
    assert answers == {True, False}


# ----------------------------------------------------------------------
# hypersurface and skeleton

def test_hypersurface_identity_rank_two():
    char = sl_identity_character(2)
    for p in (2, 3, 5):
        assert tropical_hypersurface_member(char, p, (0, 0))
        for t in (Fraction(1, 3), 1, Fraction(-5, 2)):
            assert not tropical_hypersurface_member(char, p, (t, -t))


def test_hypersurface_accepts_field_spec():
    char = sl_identity_character(2)
    assert tropical_hypersurface_member(char, FieldSpec("Qp", 5), (1, 1))


def test_hypersurface_rejects_p_below_two():
    char = sl_identity_character(2)
    for p in (1, 0):
        with pytest.raises(ValueError):
            tropical_hypersurface_member(char, p, (0, 0))


def test_skeleton_examples():
    char = sl_identity_character(3)
    fan = weight_fan(char)
    assert skeleton_member(fan, (1, 1, -2))
    assert not skeleton_member(fan, (2, 1, -3))
    assert skeleton_member(fan, (0, 0, 0))


def test_hypersurface_equals_skeleton_sampled():
    rng = random.Random(6)
    cases = [
        (sl_identity_character(3), 2),
        (sl_identity_character(4), 5),
        (sp_standard_character(2), 3),
        (sl_partition_character((2, 1, 0), 3), 2),
        (sl_partition_character((2, 1, 0), 3), 3),
    ]
    for char, p in cases:
        fan = weight_fan(char)
        for _ in range(400):
            x = tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))
                      for _ in range(char.rank))
            assert tropical_hypersurface_member(char, p, x) == \
                skeleton_member(fan, x)


def test_multiplicity_valuation_matters_only_through_ties():
    # the adjoint-like character has an interior weight of multiplicity two;
    # at p = 2 its term is shifted down by one but the locus is unchanged
    char = sl_partition_character((2, 1, 0), 3)
    fan = weight_fan(char)
    x = (Fraction(1, 8), Fraction(1, 16), Fraction(-3, 16))
    assert tropical_hypersurface_member(char, 2, x) == skeleton_member(fan, x)


def test_fan_covers_apartment_samples():
    rng = random.Random(7)
    for char in (sl_identity_character(5), sp_standard_character(3)):
        fan = weight_fan(char)
        for _ in range(200):
            x = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2)))
                      for _ in range(char.rank))
            assert any(fc.cone.contains(x) for fc in fan.maximal_cones)

"""Property suites behind the verify command and the acceptance tests.

Every check runs through one runner, ``_run(name, cases, bad)``: ``cases``
is a lazy stream of argument tuples, drawn from the suite's seeded random
generator as they are needed, and ``bad(*case)`` returns a witness
dictionary for a counterexample or None.  The runner stops at the first
witness without drawing another case, so a failing check leaves the
random generator where its counterexample was drawn, and the checks after
it draw from there.  A check records its name, whether it passed, the
number of cases it examined, and the witness.

Each runner returns a report dictionary: the suite name, the full
parameter set including the seed, and the checks in order.  Reports are
deterministic functions of their parameters.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import sampling
from .apartment import (ApartmentPoint, SpApartmentPoint, face_address, normalizer_action,
                        parahoric_oracle, ray_membership, stabilizer_membership)
from .compactification import (BoundaryPoint, boundary_block_oracle,
                               boundary_point_from_direction, direction_for_stratum)
from .errors import InputError
from .fields import FieldSpec
from .groups import GROUP_SL, GROUP_SP
from .matrices import FieldMatrix
from .serialize import (matrix_to_json, point_to_json, spec_to_json)
from .tropical import (NEG_INF, stabilizes_tropically, trop_add,
                       trop_matvec, trop_mul, tropicalize,
                       valuation_inequality_oracle)
from .weights import (WeightedCharacter, dominance_cone, dominant_weight,
                      integer_coords, normal_cone_member, partitions_of,
                      polytope_vertices, schur_eval_bialternant,
                      schur_eval_tableaux, skeleton_member,
                      sl_identity_character, sl_partition_character,
                      sp_standard_character, tropical_hypersurface_member,
                      weight_fan, weyl_cone, weyl_elements)


def _run(name, cases, bad):
    """Check ``bad(*case)`` on each case in turn, up to the first witness."""
    count = 0
    for case in cases:
        count += 1
        witness = bad(*case)
        if witness is not None:
            return {"name": name, "pass": False, "cases": count,
                    "counterexample": witness}
    return {"name": name, "pass": True, "cases": count, "counterexample": None}


def _nonvacuous(check):
    """A check over filtered cases passes only if some case survived the filter."""
    check["pass"] = check["pass"] and check["cases"] > 0
    return check


def _report(suite, params, checks):
    return {"suite": suite, "params": params, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _not_closed(member, x, coords, g, h):
    """Witness that g or h does not fix x, or that g h or the inverse of g
    does not; None when all four do."""
    if not (member(g, x) and member(h, x)):
        return {"reason": "generator does not stabilize",
                "matrix": matrix_to_json(g), "point": point_to_json(coords)}
    if not member(g * h, x) or not member(g.inverse(), x):
        return {"g": matrix_to_json(g), "h": matrix_to_json(h),
                "point": point_to_json(coords)}
    return None


def _not_equivariant(g, m, x):
    """Witness that g fixing x and m g m^{-1} fixing m.x disagree, None when
    they agree; the conjugate inherits the group checks of g and m."""
    fixed, moved = stabilizer_membership(g, x), normalizer_action(m, x)
    if fixed == stabilizer_membership(m * g * m.inverse(), moved):
        return None
    return {"matrix": matrix_to_json(g), "monomial": matrix_to_json(m),
            "point": point_to_json(x.coords)}


def _limit_coherence(candidates):
    """limit_coherence: each candidate (g, x, d) whose g fixes the ray x + s*d
    must fix its limit; the others are vacuous, and some case must be left."""
    def limit_not_fixed(g, x, d):
        return None if stabilizer_membership(g, boundary_point_from_direction(x, d)) else {
            "matrix": matrix_to_json(g), "point": point_to_json(x.coords),
            "direction": point_to_json(d)}

    rays = ((g, x, d) for g, x, d in candidates if ray_membership(g, x, d))
    return _nonvacuous(_run("limit_coherence", rays, limit_not_fixed))


# ----------------------------------------------------------------------
# semiring laws and the failure of composition

def composition_example_matrices(spec: FieldSpec):
    """The pair of determinant-one matrices whose tropicalized actions do
    not compose: unipotent upper and lower triangular with a sign."""
    g = FieldMatrix(spec, [[1, 1], [0, 1]])
    h = FieldMatrix(spec, [[1, 0], [-1, 1]])
    return g, h


def run_semiring(seed: int, count: int = 200, spec: FieldSpec | None = None):
    spec = spec or FieldSpec("Qp", 2)
    rng = random.Random(seed)

    scalars = [NEG_INF if rng.random() < 0.25 else sampling.random_fraction(rng)
               for _ in range(3 * count)]
    triples = [tuple(scalars[3 * i:3 * i + 3]) for i in range(count)]
    laws = [
        ("add_commutative", lambda a, b, c: trop_add(a, b) == trop_add(b, a)),
        ("add_associative", lambda a, b, c:
            trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))),
        ("add_idempotent", lambda a, b, c: trop_add(a, a) == a),
        ("mul_commutative", lambda a, b, c: trop_mul(a, b) == trop_mul(b, a)),
        ("mul_associative", lambda a, b, c:
            trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))),
        ("distributive", lambda a, b, c:
            trop_mul(a, trop_add(b, c)) == trop_add(trop_mul(a, b), trop_mul(a, c))),
        ("neutral_elements", lambda a, b, c:
            trop_add(a, NEG_INF) == a and trop_mul(a, 0) == a),
        ("absorbing_bottom", lambda a, b, c: trop_mul(a, NEG_INF) is NEG_INF),
    ]
    checks = [_run(name, triples, lambda *t, law=law:
                   None if law(*t) else {"scalars": point_to_json(t)})
              for name, law in laws]

    def homogeneity_cases():
        for _ in range(max(1, count // 2)):
            n = rng.choice((2, 3))
            yield (tropicalize(sampling.random_sl(spec, n, rng, 4)),
                   sampling.random_point(rng, n), sampling.random_fraction(rng))

    def inhomogeneous(m, x, a):
        lhs = trop_matvec(m, tuple(a + c for c in x))
        rhs = tuple(trop_mul(a, y) for y in trop_matvec(m, x))
        return None if lhs == rhs else {"matrix": [[str(e) for e in row] for row in m],
                                        "point": point_to_json(x), "scalar": str(a)}

    checks.append(_run("matvec_homogeneity", homogeneity_cases(), inhomogeneous))

    g, h = composition_example_matrices(spec)
    gh = g * h

    def off_formula(x, want_product, want_composed):
        product = trop_matvec(tropicalize(gh), x)
        composed = trop_matvec(tropicalize(g), trop_matvec(tropicalize(h), x))
        if product == want_product and composed == want_composed:
            return None
        return {"point": point_to_json(x), "product": point_to_json(product),
                "composed": point_to_json(composed)}

    grid = [Fraction(k, 2) for k in range(-2, 3)]
    checks.append(_run("composition_formulas_on_grid",
                       (((x1, x2), (x2, max(x1, x2)), (max(x1, x2),) * 2)
                        for x1 in grid for x2 in grid), off_formula))
    # at this point the product's action and the composed actions differ
    checks.append(_run("composition_differs_at_witness",
                       [((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                         (Fraction(1), Fraction(1)))], off_formula))

    return _report("semiring", {"seed": seed, "count": count,
                                "field": spec_to_json(spec)}, checks)


# ----------------------------------------------------------------------
# stabilizer predicates: oracle equivalence and group closure

def run_stabilizer(spec: FieldSpec, n: int, seed: int, matrices: int = 500,
                   points: int = 20, closure_pairs: int = 200):
    rng = random.Random(seed)
    checks = []

    def oracle_cases():
        for _ in range(matrices):
            g = sampling.random_sl(spec, n, rng)
            for _ in range(points):
                yield g, sampling.random_point(rng, n)

    def oracle_disagrees(g, x):
        direct = stabilizes_tropically(g, x)
        oracle = valuation_inequality_oracle(g, x)
        return None if direct == oracle else {
            "matrix": matrix_to_json(g), "point": point_to_json(x),
            "fixed_point_test": direct, "inequality_test": oracle}

    if matrices:
        checks.append(_run("oracle_equivalence", oracle_cases(), oracle_disagrees))

    def closure_cases():
        for _ in range(closure_pairs):
            if rng.random() < 0.5:
                x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            else:
                x = sampling.random_point(rng, n, 4, 4)
            yield (x, sampling.random_stabilizing(spec, x, rng),
                   sampling.random_stabilizing(spec, x, rng))

    if closure_pairs:
        checks.append(_run("group_closure", closure_cases(), lambda x, g, h:
                           _not_closed(stabilizes_tropically, x, x, g, h)))

    return _report("stabilizer",
                   {"seed": seed, "n": n, "field": spec_to_json(spec),
                    "matrices": matrices, "points": points,
                    "closure_pairs": closure_pairs}, checks)


# ----------------------------------------------------------------------
# parahoric membership on the star of the origin

def ordered_set_partitions(items):
    items = tuple(items)
    if not items:
        yield ()
        return
    for k in range(1, len(items) + 1):
        for block in itertools.combinations(items, k):
            rest = tuple(x for x in items if x not in block)
            for tail in ordered_set_partitions(rest):
                yield (block,) + tail


def face_point(blocks, n: int, spread: Fraction | None = None) -> ApartmentPoint:
    """A point in the relative interior of the face given by ordered blocks."""
    r = len(blocks)
    spread = spread if spread is not None else Fraction(1, 2 * r)
    coords = [Fraction(0)] * n
    for idx, block in enumerate(blocks):
        for i in block:
            coords[i] = (r - 1 - idx) * spread
    return ApartmentPoint(coords)


def run_parahoric(spec: FieldSpec, n: int, seed: int, count: int = 200):
    rng = random.Random(seed)
    faces = list(ordered_set_partitions(range(n)))

    def face_cases():
        for blocks in faces:
            x = face_point(blocks, n)
            for sample in (sampling.random_sl_integral, sampling.random_sl_nonintegral):
                for _ in range(count):
                    yield blocks, x, sample(spec, n, rng)

    def residue_test_disagrees(blocks, x, g):
        return None if parahoric_oracle(g, x) == stabilizer_membership(g, x) else {
            "blocks": [list(b) for b in blocks], "point": point_to_json(x.coords),
            "matrix": matrix_to_json(g)}

    checks = [_run("parahoric_equals_stabilizer", face_cases(), residue_test_disagrees)]

    if n == 2:
        iwahori = ApartmentPoint((Fraction(1, 4), Fraction(-1, 4)))

        def off_pattern(g):
            (a, b), (c, d) = g.rows
            explicit = (a.valuation() >= 0 and b.valuation() >= 0
                        and d.valuation() >= 0 and c.valuation() >= 1)
            return None if stabilizer_membership(g, iwahori) == explicit else {
                "matrix": matrix_to_json(g)}

        checks.append(_run("iwahori_valuation_pattern",
                           ((sampling.random_sl(spec, 2, rng, 4),)
                            for _ in range(4 * count)), off_pattern))

    def normalizer_cases():
        for _ in range(count):
            yield (sampling.random_sl(spec, n, rng, 4),
                   sampling.random_monomial(spec, n, rng),
                   ApartmentPoint(sampling.random_point(rng, n)))

    checks.append(_run("normalizer_equivariance", normalizer_cases(), _not_equivariant))

    def address_cases():
        for blocks in faces:
            a = face_point(blocks, n)
            b = face_point(blocks, n, spread=Fraction(1, 3 * len(blocks)))
            if face_address(a) != face_address(b):
                yield blocks, a, b, None
            for _ in range(max(1, count // 4)):
                yield blocks, a, b, sampling.random_sl(spec, n, rng, 4)

    def address_misleads(blocks, a, b, g):
        if g is None:  # the two representatives got different addresses
            return {"blocks": [list(bl) for bl in blocks],
                    "reason": "representatives have different addresses"}
        return None if stabilizer_membership(g, a) == stabilizer_membership(g, b) else {
            "matrix": matrix_to_json(g), "first": point_to_json(a.coords),
            "second": point_to_json(b.coords)}

    checks.append(_run("face_address_constancy", address_cases(), address_misleads))

    return _report("parahoric",
                   {"seed": seed, "n": n, "field": spec_to_json(spec),
                    "count": count}, checks)


# ----------------------------------------------------------------------
# symplectic stabilizers

def run_sp(spec: FieldSpec, n: int, seed: int, count: int = 300):
    rng = random.Random(seed)
    origin = SpApartmentPoint((0,) * n)

    checks = [_run("origin_stabilizer_is_integral",
                   ((sampling.random_sp(spec, n, rng),) for _ in range(count)),
                   lambda g: None
                   if stabilizer_membership(g, origin) == g.is_integral()
                   else {"matrix": matrix_to_json(g)})]

    def closure_cases():
        for _ in range(max(1, count // 2)):
            x = SpApartmentPoint(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)))
            t = sampling.sp_torus(spec, n, [spec.uniformizer() ** -int(c)
                                            for c in x.coords])
            yield (x,
                   sampling._torus_conjugate(sampling.random_sp_integral(spec, n, rng), t),
                   sampling._torus_conjugate(sampling.random_sp_integral(spec, n, rng), t))

    checks.append(_run("group_closure", closure_cases(), lambda x, g, h:
                       _not_closed(stabilizer_membership, x, x.coords, g, h)))

    def weyl_cases():
        for _ in range(max(1, count // 2)):
            yield (sampling.random_sp(spec, n, rng),
                   sampling.random_sp_monomial(spec, n, rng),
                   SpApartmentPoint(sampling.random_point(rng, n)))

    checks.append(_run("weyl_equivariance", weyl_cases(), _not_equivariant))

    def star_cases():
        for _ in range(max(1, count // 2)):
            yield (sampling.random_sp(spec, n, rng),
                   SpApartmentPoint(tuple(Fraction(rng.randint(-3, 3), 8)
                                          for _ in range(n))))

    def residue_test_disagrees(g, x):
        same = parahoric_oracle(g, x) == stabilizer_membership(g, x)
        return None if same else {"matrix": matrix_to_json(g),
                                  "point": point_to_json(x.coords)}

    checks.append(_run("parahoric_equals_stabilizer", star_cases(),
                       residue_test_disagrees))

    if n == 1:
        def sides_differ(g, c):
            sp_side = stabilizer_membership(g, SpApartmentPoint((c,)))
            sl_side = stabilizer_membership(g, ApartmentPoint((c, -c)))
            return None if sp_side == sl_side else {"matrix": matrix_to_json(g),
                                                    "coordinate": str(c)}

        checks.append(_run("rank_one_matches_special_linear",
                           ((sampling.random_sp(spec, 1, rng),
                             sampling.random_fraction(rng)) for _ in range(count)),
                           sides_differ))

    return _report("sp", {"seed": seed, "n": n, "field": spec_to_json(spec),
                          "count": count}, checks)


# ----------------------------------------------------------------------
# fans, polytope vertices, hypersurface

#: Representation tag -> the group whose character it is.
REP_GROUPS = {"identity": GROUP_SL, "sp": GROUP_SP, "schur": GROUP_SL}


def character_from_params(rep: str, n: int | None = None, lam=None) -> WeightedCharacter:
    if rep not in REP_GROUPS:
        raise InputError(f"unknown representation tag {rep!r}")
    if rep == "identity":
        return sl_identity_character(n)
    if rep == "sp":
        return sp_standard_character(n)
    lam = tuple(lam)
    return sl_partition_character(lam, len(lam) if n is None else n)


def _character_params(params, n, lam):
    if n is not None:
        params["n"] = n
    if lam is not None:
        params["lambda"] = list(lam)
    return params


def run_fans(rep: str, seed: int, n: int | None = None, lam=None,
             samples: int = 2000, expected_cones: int | None = None):
    char = character_from_params(rep, n, lam)
    rng = random.Random(seed)
    fan = weight_fan(char)

    # vertices == orbit, decided weight by weight; an orbit element missing
    # from the weights would be a case of its own
    orbit = frozenset(w.apply(dominant_weight(char))
                      for w in weyl_elements(char.group, char.rank))
    verts = polytope_vertices(char)
    candidates = char.weights + tuple(sorted(orbit.difference(char.weights)))
    checks = [_run("vertices_equal_weyl_orbit", ((mu,) for mu in candidates),
                   lambda mu: None if (mu in verts) == (mu in orbit) else {
                       "vertices": sorted(map(list, verts)),
                       "orbit": sorted(map(list, orbit))})]

    if expected_cones is not None:
        checks.append(_run("maximal_cone_count", [(len(fan),)], lambda got:
                           None if got == expected_cones
                           else {"expected": expected_cones, "got": got}))

    # one stream of sample points serves the membership and the cover
    # check: the membership check records the points it examined against
    # every cone, and the ones some cone contains.  Each point is cleared
    # of denominators once; the cones test the integer multiple.
    points, covered = [], set()

    def membership_cases():
        for _ in range(samples):
            x = sampling.random_point(rng, char.rank, 12, 4)
            xi, _ = integer_coords(x, char.rank)
            for fc in fan.maximal_cones:
                yield x, xi, fc
            points.append(x)

    def memberships_differ(x, xi, fc):
        by_cone = fc.cone.contains(xi)
        if by_cone:
            covered.add(x)
        by_vertex = normal_cone_member(char, fc.vertex, xi)
        return None if by_cone == by_vertex else {
            "point": point_to_json(x), "vertex": list(fc.vertex),
            "h_representation": by_cone, "normal_cone": by_vertex}

    checks.append(_run("cone_membership_equivalence", membership_cases(),
                       memberships_differ))
    checks.append(_run("fan_covers_samples", ((x,) for x in points), lambda x:
                       None if x in covered else {"point": point_to_json(x)}))

    probes = [sampling.random_point(rng, char.rank, 12, 4)
              for _ in range(min(samples, 200))]
    probes = [(x, integer_coords(x, char.rank)[0]) for x in probes]

    def chamber_cases():
        for w in weyl_elements(char.group, char.rank):
            chamber = weyl_cone(char.group, char.rank, w)
            big = dominance_cone(char, w)
            for x, xi in probes:
                yield chamber, big, x, xi

    def escapes_cone(chamber, big, x, xi):
        return None if not chamber.contains(xi) or big.contains(xi) else {
            "point": point_to_json(x), "weyl": [list(f) for f in chamber.functionals]}

    checks.append(_run("weyl_cone_containment", chamber_cases(), escapes_cone))

    return _report("fans", _character_params(
        {"seed": seed, "rep": rep, "samples": samples}, n, lam), checks)


def hypersurface_samples(char: WeightedCharacter, p: int, rng, count: int, bound: int):
    """Lazy stream of (x, hypersurface member, skeleton member) for count
    points drawn with numerators in [-bound, bound] and denominators 1..4:
    the one comparison behind the suite, the command and the figure."""
    fan = weight_fan(char)
    for _ in range(count):
        x = sampling.random_point(rng, char.rank, bound, 4)
        yield x, tropical_hypersurface_member(char, p, x), skeleton_member(fan, x)


def run_hypersurface(rep: str, p: int, seed: int, n: int | None = None,
                     lam=None, samples: int = 2000):
    char = character_from_params(rep, n, lam)
    checks = [_run("hypersurface_equals_skeleton",
                   hypersurface_samples(char, p, random.Random(seed), samples, 12),
                   lambda x, hyper, skel: None if hyper == skel else {
                       "point": point_to_json(x), "hypersurface": hyper,
                       "skeleton": skel})]
    return _report("hypersurface", _character_params(
        {"seed": seed, "rep": rep, "p": p, "samples": samples}, n, lam), checks)


# ----------------------------------------------------------------------
# Schur evaluations

#: The 40 distinct nonzero values num/den, |num| <= 9 and den <= 3, sorted.
_VALUE_POOL = sorted({Fraction(num, den) for num in range(-9, 10) for den in (1, 2, 3)
                      if num != 0})


def _distinct_values(rng, n):
    return tuple(rng.sample(_VALUE_POOL, n))


def run_schur(seed: int, inputs: int = 50, max_size: int = 6, max_rank: int = 4,
              linear_inputs: int = 100):
    rng = random.Random(seed)

    def not_sum(z):
        expect = sum(z, Fraction(0))
        if schur_eval_tableaux((1,), z) != expect or \
                schur_eval_bialternant((1,), z) != expect:
            return {"values": point_to_json(z)}
        return None

    checks = [_run("linear_schur_is_coordinate_sum",
                   ((_distinct_values(rng, rng.randint(2, max_rank + 1)),)
                    for _ in range(linear_inputs)), not_sum)]

    def route_cases():
        for rank in range(1, max_rank + 1):
            for size in range(1, max_size + 1):
                for lam in partitions_of(size, max_parts=rank):
                    for _ in range(inputs):
                        yield lam, _distinct_values(rng, rank)

    def routes_differ(lam, z):
        same = schur_eval_tableaux(lam, z) == schur_eval_bialternant(lam, z)
        return None if same else {"partition": list(lam), "values": point_to_json(z)}

    checks.append(_run("tableaux_equal_bialternant", route_cases(), routes_differ))

    return _report("schur", {"seed": seed, "inputs": inputs,
                             "max_size": max_size, "max_rank": max_rank}, checks)


# ----------------------------------------------------------------------
# boundary stabilizers

def _random_boundary_point(rng, n, stratum_set):
    coords = [NEG_INF] * n
    for i in stratum_set:
        coords[i] = sampling.random_fraction(rng, 4, 3)
    return BoundaryPoint(coords)


def _boundary_matrix(spec, n, stratum_set, rng):
    """Block triangular for the stratum or generic, with equal odds."""
    if rng.random() < 0.5:
        return sampling.random_block_triangular(spec, n, stratum_set, rng)
    return sampling.random_sl(spec, n, rng, 4)


def run_boundary(spec: FieldSpec, n: int, seed: int, count: int = 300):
    rng = random.Random(seed)
    strata = [s for size in range(1, n + 1)
              for s in itertools.combinations(range(n), size)]

    def block_cases():
        for stratum_set in strata:
            for _ in range(count):
                b = _random_boundary_point(rng, n, stratum_set)
                yield _boundary_matrix(spec, n, stratum_set, rng), b

    def block_test_disagrees(g, b):
        direct = stabilizer_membership(g, b)
        blocked = boundary_block_oracle(g, b)
        return None if direct == blocked else {
            "matrix": matrix_to_json(g), "point": point_to_json(b.coords),
            "tropical": direct, "block": blocked}

    checks = [_run("block_oracle_equivalence", block_cases(), block_test_disagrees)]

    def full_stratum_differs(x, g):
        same = stabilizer_membership(g, BoundaryPoint(x)) == stabilizes_tropically(g, x)
        return None if same else {"matrix": matrix_to_json(g),
                                  "point": point_to_json(x)}

    checks.append(_run("full_stratum_consistency",
                       ((sampling.random_point(rng, n),
                         sampling.random_sl(spec, n, rng, 4)) for _ in range(count)),
                       full_stratum_differs))

    def monomial_cases():
        for _ in range(max(1, count // 2)):
            stratum_set = rng.choice(strata)
            yield (_random_boundary_point(rng, n, stratum_set),
                   sampling.random_monomial(spec, n, rng),
                   _boundary_matrix(spec, n, stratum_set, rng))

    checks.append(_run("monomial_equivariance", monomial_cases(), lambda b, m, g:
                       _not_equivariant(g, m, b)))

    def ray_cases():
        for k in range(max(1, count // 2)):
            d = direction_for_stratum(rng.choice(strata), n)
            x = ApartmentPoint(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)))
            if k % 2 == 0:
                g = sampling.random_ray_stabilizing(spec, x.coords, d, rng)
            else:
                g = sampling.random_sl(spec, n, rng, 4)
            yield g, x, d

    checks.append(_limit_coherence(ray_cases()))

    return _report("boundary", {"seed": seed, "n": n,
                                "field": spec_to_json(spec), "count": count},
                   checks)


#: The trivial direction, the four maximal-cone interiors, and the four
#: rays of the rank-two symplectic fan.
_SP4_DIRECTIONS = ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1),
                   (1, 1), (1, -1), (-1, 1), (-1, -1))


def run_sp_boundary(spec: FieldSpec, seed: int, count: int = 200):
    n = 2
    rng = random.Random(seed)
    trivial, *directions = _SP4_DIRECTIONS

    trivial_cases = ((sampling.random_sp(spec, n, rng),
                      SpApartmentPoint(sampling.random_point(rng, n)))
                     for _ in range(count))

    def trivial_limit_differs(g, x):
        same = (stabilizer_membership(g, boundary_point_from_direction(x, trivial))
                == stabilizer_membership(g, x))
        return None if same else {"matrix": matrix_to_json(g),
                                  "point": point_to_json(x.coords)}

    checks = [_run("trivial_direction_consistency", trivial_cases,
                   trivial_limit_differs)]

    def ray_cases():
        for d in directions:
            for k in range(count):
                x = SpApartmentPoint(tuple(Fraction(rng.randint(-1, 1))
                                           for _ in range(n)))
                if k % 2 == 0:
                    g = sampling.random_sp_ray_adapted(spec, n, x.coords, d, rng)
                else:
                    g = sampling.random_sp(spec, n, rng, 3)
                yield g, x, d

    checks.append(_limit_coherence(ray_cases()))

    return _report("sp-boundary", {"seed": seed, "n": n,
                                   "field": spec_to_json(spec), "count": count},
                   checks)

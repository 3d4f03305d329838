"""The three workloads, one round at a time.

A round is a fixed list of operations.  Its inputs come from a random
generator seeded by (workload, seed, round index), and every operation
carries the answer that ``reference`` computes for it apart from tropstab.
The number and kind of operations in a round never depend on the seed, so
every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import reference as ref
from tropstab import cli, suites, weights
from tropstab.fields import FieldSpec


@dataclass
class Op:
    """One operation of a round.

    ``call`` runs the program and returns its raw output; ``check(output,
    expected)`` returns (problem or None, checked cases).  ``known_fault``
    names a fault of the program that makes the operation fail every time,
    and ``known_error`` is how that failure starts; any other failure of
    the operation is a wrong answer.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], tuple]
    expected: dict
    known_fault: str | None = None
    known_error: str | None = None


def fresh_caches():
    """Forget the program's module-level memo, so that every round of a
    workload does the same work instead of turning repeats into lookups."""
    weights._partition_character.cache_clear()


# ----------------------------------------------------------------------
# suite reports

def check_report(report, expected):
    """Every check passes, and every case count is the one the parameters
    imply; an expected count of None means "at least one case"."""
    if report.get("params", {}).get("seed") != expected["seed"]:
        return f"report echoes seed {report.get('params', {}).get('seed')}", 0
    got = {c["name"]: c for c in report["checks"]}
    if set(got) != set(expected["cases"]):
        return f"checks {sorted(got)} != {sorted(expected['cases'])}", 0
    for name, want in expected["cases"].items():
        c = got[name]
        if not c["pass"]:
            return f"check {name} failed: {c['counterexample']}", 0
        if (c["cases"] <= 0) if want is None else (c["cases"] != want):
            return f"check {name} ran {c['cases']} cases, expected {want or '> 0'}", 0
    if not report["pass"]:
        return "report does not pass", 0
    return None, sum(c["cases"] for c in report["checks"])


def suite_op(label, seed, cases, run):
    return Op(label, run, check_report, {"seed": seed, "cases": cases})


# ----------------------------------------------------------------------
# group_suites

Q2 = FieldSpec("Qp", 2)
Q5 = FieldSpec("Qp", 5)
F3T = FieldSpec("FpT", 3)

GROUP_SIZES = {
    False: dict(semiring=100, matrices=30, points=5, closure=20, parahoric=20,
                boundary=30, sp=30, sp_boundary=20),
    True: dict(semiring=10, matrices=3, points=2, closure=2, parahoric=4,
               boundary=4, sp=4, sp_boundary=4),
}

#: (suite, field, rank) of every call in a round.  The query latency
#: metrics are reported for every workload, so here they are latencies of
#: these benchmark-sized suite calls; 25 calls, so that their median and
#: 90th percentile fall inside a cluster of like calls rather than in the
#: gap between two.
GROUP_CALLS = (
    [("semiring", spec, None) for spec in (Q2, F3T)]
    + [("stabilizer", spec, n) for spec in (Q2, Q5, F3T) for n in (2, 3, 4)]
    + [("parahoric", spec, n) for spec, n in ((Q2, 2), (Q2, 3), (F3T, 2), (Q5, 3))]
    + [("boundary", spec, n) for spec, n in ((Q2, 2), (Q2, 3), (F3T, 2), (Q5, 3))]
    + [("sp", spec, n) for spec, n in ((Q2, 1), (Q2, 2), (Q2, 3), (F3T, 1), (Q5, 2))]
    + [("sp-boundary", Q2, None)])

SEMIRING_LAWS = ("add_commutative", "add_associative", "add_idempotent",
                 "mul_commutative", "mul_associative", "distributive",
                 "neutral_elements", "absorbing_bottom")


def _group_call(suite, spec, n, s, z):
    """(case counts the parameters imply, call) of one suite call."""
    if suite == "semiring":
        c = z["semiring"]
        return ({**dict.fromkeys(SEMIRING_LAWS, c), "matvec_homogeneity": c // 2,
                 "composition_formulas_on_grid": 25, "composition_differs_at_witness": 1},
                lambda: suites.run_semiring(s, count=c, spec=spec))
    if suite == "stabilizer":
        m, pts, k = z["matrices"], z["points"], z["closure"]
        return ({"oracle_equivalence": m * pts, "group_closure": k},
                lambda: suites.run_stabilizer(spec, n, s, matrices=m, points=pts,
                                              closure_pairs=k))
    if suite == "parahoric":
        c, faces = z["parahoric"], ref.ordered_set_partitions(n)
        cases = {"parahoric_equals_stabilizer": faces * 2 * c, "normalizer_equivariance": c,
                 "face_address_constancy": faces * (c // 4)}
        if n == 2:
            cases["iwahori_valuation_pattern"] = 4 * c
        return cases, lambda: suites.run_parahoric(spec, n, s, count=c)
    if suite == "boundary":
        c = z["boundary"]
        return ({"block_oracle_equivalence": (2 ** n - 1) * c, "full_stratum_consistency": c,
                 "monomial_equivariance": c // 2, "limit_coherence": None},
                lambda: suites.run_boundary(spec, n, s, count=c))
    if suite == "sp":
        c = z["sp"]
        cases = {"origin_stabilizer_is_integral": c, "group_closure": c // 2,
                 "weyl_equivariance": c // 2, "parahoric_equals_stabilizer": c // 2}
        if n == 1:
            cases["rank_one_matches_special_linear"] = c
        return cases, lambda: suites.run_sp(spec, n, s, count=c)
    c = z["sp_boundary"]
    return ({"trivial_direction_consistency": c, "limit_coherence": None},
            lambda: suites.run_sp_boundary(spec, s, count=c))


def group_suites(rng, small=False):
    ops = []
    for suite, spec, n in GROUP_CALLS:
        s = rng.randrange(10 ** 6)
        cases, call = _group_call(suite, spec, n, s, GROUP_SIZES[small])
        label = " ".join(filter(None, (suite, spec.label(), n and f"n={n}")))
        ops.append(suite_op(label, s, cases, call))
    return ops


# ----------------------------------------------------------------------
# weight_fans

FAN_SIZES = {
    False: dict(samples=200, big_samples=60, hyper=300, schur_inputs=2, points=12,
                characters=((3, 2, 1, 0), (4, 2, 1, 0), (3, 2, 1, 0, 0),
                            (2, 1, 1, 0), (2, 2, 1, 0, 0))),
    True: dict(samples=5, big_samples=5, hyper=5, schur_inputs=1, points=3,
               characters=((2, 1, 1, 0),)),
}


def _fan_cases(group, n, weight_count, cones, samples):
    return {"vertices_equal_weyl_orbit": weight_count, "maximal_cone_count": 1,
            "cone_membership_equivalence": samples * cones, "fan_covers_samples": samples,
            "weyl_cone_containment": ref.weyl_order(group, n) * min(samples, 200)}


def _build_character(lam, n, points):
    """Kostka multiplicities, a fresh character, its vertices, its fan and
    the fan's cone tests on the sampled points."""
    lam = tuple(a for a in lam if a)
    mults = {}
    for mu in ref.compositions(sum(lam), n):
        k = weights.kostka_number(lam, mu)
        if k:
            mults[mu] = k
    char = weights.WeightedCharacter(weights.GROUP_SL, n, mults)
    vertices = weights.polytope_vertices(char)
    fan = weights.weight_fan(char)
    return {"dimension": char.dimension(), "weights": frozenset(char.weights),
            "vertices": vertices, "cones": [fc.vertex for fc in fan.maximal_cones],
            "membership": [[fc.cone.contains(x) for fc in fan.maximal_cones]
                           for x in points]}


def _check_character(out, want):
    for key in ("dimension", "weights", "vertices"):
        if out[key] != want[key]:
            return f"{key} {out[key]} != {want[key]}", 0
    if len(out["cones"]) != len(want["vertices"]) or set(out["cones"]) != want["vertices"]:
        return f"fan cones at {out['cones']}, expected one per vertex", 0
    for k, (row, members) in enumerate(zip(out["membership"], want["membership"])):
        for v, got in zip(out["cones"], row):
            if got != members[v]:
                return f"point {k}: cone of {v} contains it: {got}, expected {members[v]}", 0
    return None, 1


def _rational_point(rng, n):
    return tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(n))


def weight_fans(rng, small=False):
    z = FAN_SIZES[small]
    seed = lambda: rng.randrange(10 ** 6)  # noqa: E731
    ops = []

    samples = z["samples"]
    for rep, n, lam, sm in (("identity", 3, None, samples), ("identity", 4, None, samples),
                            ("identity", 5, None, z["big_samples"]),
                            ("sp", 2, None, samples), ("sp", 3, None, samples),
                            ("schur", 3, (2, 1, 0), samples)):
        if rep == "identity":
            group, count, cones = "sln", n, n
        elif rep == "sp":
            group, count, cones = "sp2n", 2 * n, 2 * n
        else:
            group = "sln"
            count = len(ref.character_weights(lam, n))
            cones = len(ref.orbit_vertices(lam, n))
        s = seed()
        ops.append(suite_op(
            f"fans {rep} n={n}", s, _fan_cases(group, n, count, cones, sm),
            lambda rep=rep, n=n, lam=lam, s=s, sm=sm, cones=cones: suites.run_fans(
                rep, s, n=n, lam=lam, samples=sm, expected_cones=cones)))

    for rep, n, lam, p in (("identity", 4, None, 3), ("sp", 2, None, 3),
                           ("schur", 3, (2, 1, 0), 2)):
        s = seed()
        ops.append(suite_op(
            f"hypersurface {rep} n={n}", s, {"hypersurface_equals_skeleton": z["hyper"]},
            lambda rep=rep, n=n, lam=lam, p=p, s=s: suites.run_hypersurface(
                rep, p, s, n=n, lam=lam, samples=z["hyper"])))

    s, inputs, max_size, max_rank, linear = seed(), z["schur_inputs"], 5, 4, 30
    shapes = sum(ref.partition_count(size, rank) for rank in range(1, max_rank + 1)
                 for size in range(1, max_size + 1))
    ops.append(suite_op(
        "schur", s,
        {"linear_schur_is_coordinate_sum": linear, "tableaux_equal_bialternant": inputs * shapes},
        lambda s=s: suites.run_schur(s, inputs=inputs, max_size=max_size,
                                     max_rank=max_rank, linear_inputs=linear)))

    for lam in z["characters"]:
        n = len(lam)
        points = [_rational_point(rng, n) for _ in range(z["points"])]
        verts = ref.orbit_vertices(lam, n)
        want = {"dimension": ref.hook_content_dimension(lam, n),
                "weights": ref.character_weights(lam, n), "vertices": verts,
                "membership": [ref.normal_cone_members(verts, x) for x in points]}
        ops.append(Op(f"character {lam}",
                      lambda lam=lam, n=n, points=points: _build_character(lam, n, points),
                      _check_character, want))
    return ops


# ----------------------------------------------------------------------
# dense_queries

KINDS = ("single", "product", "boundary")
#: (field, rank, kind) of every query in a round: all three kinds over Q_3
#: at n = 6..12 and over F_3(T) at n = 6..9, then two boundary queries at
#: n = 10, where one dense F_3(T) determinant would take seconds.  Together
#: 35 queries, so that the median and the 90th percentile fall inside a
#: cluster of like queries.  Queries at even positions get factors adapted
#: to their point.
QUERIES = {
    False: ([("qp", n, k) for n in range(6, 13) for k in KINDS]
            + [("fpt", n, k) for n in range(6, 10) for k in KINDS]
            + [("fpt", 10, "boundary")] * 2),
    True: [("qp", n, k) for n in (3, 4) for k in KINDS] + [("fpt", 3, k) for k in KINDS],
}
UNITS = (1, 2, 4, 5, 7, 8)

#: Fixed inputs, independent of the seed, that the program fails on every
#: time: each must end with exit code 2 and an "error: ..." line.  Each
#: comes with the fault it has today and the start of the error it raises.
MALFORMED = (
    (["stabilize", "--field", "fpt", "--p", "3",
      "--matrix", '[[{"num":{"-1":1}},"0"],["0","1"]]', "--point", '["0","0"]'],
     "negative degree in an F_p(T) payload raises IndexError in FieldSpec.polynomial",
     "raised IndexError: "),
    (["verify", "--suite", "stabilizer", "--n", "1", "--seed", "1"],
     "rank one stabilizer suite raises a bare ValueError",
     "raised ValueError: Sample larger than population"),
)


class Field:
    """Reference arithmetic and JSON encoding for one of the two query fields."""

    def __init__(self, kind):
        self.kind = kind
        self.p = 3
        self.zero = Fraction(0) if kind == "qp" else {}
        self.one = Fraction(1) if kind == "qp" else {0: 1}

    def random(self, rng, v):
        """A nonzero element of valuation v."""
        if self.kind == "qp":
            unit = Fraction(rng.choice((1, -1)) * rng.choice(UNITS), rng.choice(UNITS))
            return unit * Fraction(3) ** v
        coeffs = (rng.randrange(1, 3), rng.randrange(3), rng.randrange(1, 3))
        return {v + d: c for d, c in enumerate(coeffs) if c}

    def add(self, a, b):
        return a + b if self.kind == "qp" else ref.laurent_add(a, b, self.p)

    def mul(self, a, b):
        return a * b if self.kind == "qp" else ref.laurent_mul(a, b, self.p)

    def valuation(self, a):
        return ref.padic_valuation(a, 3) if self.kind == "qp" else ref.laurent_valuation(a)

    def encode(self, a):
        if self.kind == "qp":
            return str(a)
        if not a:
            return "0"
        shift = max(0, -min(a))
        return {"num": {str(d + shift): c for d, c in a.items()}, "den": {str(shift): 1}}


def _factors(rng, field, n, x, block=None):
    """Unit lower and unit upper triangular factors.

    With a point x, entry (i, j) has valuation at least x_j - x_i, so the
    product stabilizes x; positions with x_j or x_i None are free.  With
    block = k, the lower factor has no entry from rows k.. into columns
    ..k-1, so the product maps the coordinates 0..k-1 into themselves.
    """
    def entry(i, j):
        if block is not None and i >= block > j:
            return field.zero
        if x is not None and x[i] is not None and x[j] is not None:
            lo = math.ceil(x[j] - x[i])
            return field.random(rng, rng.randint(lo, lo + 1))
        return field.random(rng, rng.randint(-1, 1))

    lower = [[field.one if i == j else entry(i, j) if i > j else field.zero
              for j in range(n)] for i in range(n)]
    upper = [[field.one if i == j else entry(i, j) if i < j else field.zero
              for j in range(n)] for i in range(n)]
    return lower, upper


def _trop(field, m):
    vals = [[field.valuation(e) for e in row] for row in m]
    return vals, [[None if v is None else -v for v in row] for row in vals]


def _parse(v):
    return None if v == "-inf" else Fraction(v)


def _parse_rows(rows):
    return [[_parse(v) for v in row] for row in rows]


def run_cli(argv):
    """In-process ``tropstab`` call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_query(out, want):
    code, stdout, stderr = out
    if code != 0 or stderr:
        return f"exit {code}, stderr {stderr!r}", 0
    doc = json.loads(stdout)
    for key, value in want.items():
        got = doc[key] if key in ("stabilizes", "stratum") else (
            _parse_rows(doc[key]) if key == "tropicalized" else [_parse(v) for v in doc[key]])
        if got != value:
            return f"{key} {got} != {value}", 0
    return None, 1


def _check_malformed(out, want):
    code, _, stderr = out
    lines = stderr.splitlines()
    if code != 2 or not lines or not all(line.startswith("error: ") for line in lines):
        return f"exit {code}, stderr {stderr!r}; expected exit 2 and an error line", 0
    return None, 1


def _finite_point(rng, n):
    return [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]


def _query(rng, field, n, kind, adapted):
    """One query of the given kind with its reference answer.

    Adapted factors make the product stabilize the point.  Which queries
    get them is fixed, not drawn, because adapted and generic factors cost
    the determinant differently.
    """
    argv = ["stabilize" if kind != "boundary" else "boundary-stabilize",
            "--field", field.kind, "--p", "3"]
    if kind == "boundary":
        # stratum of the first half of the coordinates; block-triangular
        # factors, so that the finite block decides the answer
        k = n // 2
        x = _finite_point(rng, k) + [None] * (n - k)
        lower, upper = _factors(rng, field, n, x if adapted else None, block=k)
    else:
        x = _finite_point(rng, n)
        lower, upper = _factors(rng, field, n, x if adapted else None)
    product = ref.matmul(lower, upper, field.add, field.mul, field.zero)
    vals, trop = _trop(field, product)
    point = ["-inf" if c is None else str(c) for c in x]
    want = {"tropicalized": trop}
    if kind == "boundary":
        # the program reports the point anchored at its first finite entry
        anchored = [None if c is None else c - x[0] for c in x]
        want["stabilizes"] = ref.stabilizes_by_blocks(vals, x)
        want["stratum"] = [i for i, c in enumerate(x) if c is not None]
        want["point"] = anchored
        want["image"] = ref.trop_matvec(trop, anchored)
    else:
        want["stabilizes"] = ref.stabilizes_by_inequalities(vals, x)
        want["image"] = ref.trop_matvec(trop, x)
    if kind == "product":
        matrix = [[[field.encode(e) for e in row] for row in m] for m in (lower, upper)]
        composed = ref.trop_matvec(_trop(field, lower)[1],
                                   ref.trop_matvec(_trop(field, upper)[1], x))
        want["composed_image"] = composed
        want["product_image"] = want["image"]
    else:
        matrix = [[field.encode(e) for e in row] for row in product]
    argv += ["--matrix", json.dumps(matrix), "--point", json.dumps(point)]
    label = f"{kind} {'Q_3' if field.kind == 'qp' else 'F_3(T)'} n={n}"
    return Op(label, lambda: run_cli(argv), _check_query, want)


def dense_queries(rng, small=False):
    fields = {"qp": Field("qp"), "fpt": Field("fpt")}
    ops = [_query(rng, fields[f], n, kind, adapted=i % 2 == 0)
           for i, (f, n, kind) in enumerate(QUERIES[small])]
    for argv, fault, error in MALFORMED:
        ops.append(Op(f"malformed {argv[0]}", lambda argv=argv: run_cli(argv),
                      _check_malformed, {}, known_fault=fault, known_error=error))
    return ops


WORKLOADS = {"group_suites": group_suites, "weight_fans": weight_fans,
             "dense_queries": dense_queries}

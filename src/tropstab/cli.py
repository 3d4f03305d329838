"""Command-line interface.

Subcommands: stabilize, verify, fan, schur, hypersurface,
boundary-stabilize (stabilize's query, every point read as a boundary
point), plot.  Each takes only the flags it reads, spelt out in full, and
verify refuses a given flag that its suite does not read.  Matrix and
point payloads are inline JSON or a path to a JSON file.  All randomized
commands require an explicit seed and produce byte-identical output for
identical inputs.  Exit codes: 0 ok, 1 failed verification, 2 malformed
input (a usage error included), 3 precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from . import suites, svgplot, weights
from .apartment import ApartmentPoint, SpApartmentPoint, stabilizer_membership
from .compactification import BoundaryPoint
from .errors import InputError, TropstabError
from .fields import FieldSpec, is_prime
from .groups import GROUP_SL, GROUPS
from .serialize import (fan_to_json, fraction_from_json, matrix_from_json,
                        point_from_json, point_to_json, spec_to_json)
from .tropical import NEG_INF, trop_matvec, tropicalize


def _load_payload(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    except ValueError as exc:
        raise InputError(f"invalid JSON payload: {exc}") from exc
    try:
        with open(text, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise InputError(f"neither valid JSON nor an existing file: {text!r}") from exc
    except ValueError as exc:
        raise InputError(f"file {text} does not contain valid JSON") from exc


def _field_spec(args) -> FieldSpec:
    return FieldSpec({"qp": "Qp", "fpt": "FpT"}[args.field], args.p)


def _prime(p: int) -> int:
    """A --p that no field is built from, held to a field's rule."""
    if not is_prime(p):
        raise InputError(f"residue characteristic must be prime, got {p}")
    return p


def _parse_lambda(text: str):
    """Parts as given, trailing zeros kept; they must form a partition."""
    try:
        lam = tuple(int(part) for part in text.split(","))
        weights.as_partition(lam)
    except ValueError as exc:
        raise InputError(f"invalid partition: {text!r}") from exc
    return lam


def _parse_values(text: str):
    return tuple(fraction_from_json(part) for part in text.split(","))


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc) -> None:
    _emit(args, json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n")


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: one error line and exit 2."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tropstab", allow_abbrev=False,
                     description="exact max-plus stabilizers over discretely valued fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, about):
        cmd = sub.add_parser(name, help=about, allow_abbrev=False)
        cmd.set_defaults(run=run)
        cmd.add_argument("--out", help="write output to this path")
        return cmd

    def character(cmd, **rep):
        cmd.add_argument("--rep", choices=("identity", "sp", "schur"), **rep)
        cmd.add_argument("--n", type=int)
        cmd.add_argument("--lambda", dest="lam", help="partition, e.g. 2,1,0")

    field = dict(choices=("qp", "fpt"), help="ground field: p-adic rationals or F_p(T)")
    prime = dict(type=int, help="residue characteristic (a prime)")
    seed = dict(type=int, help="seed of the random run")

    for name, about in (("stabilize", "tropical stabilizer membership for a point"),
                        ("boundary-stabilize", "stabilizer membership for a boundary point")):
        st = command(name, _cmd_stabilize, about)
        st.add_argument("--field", default="qp", **field)
        st.add_argument("--p", default=2, **prime)
        st.add_argument("--group", choices=tuple(GROUPS), default=GROUP_SL.tag,
                        help="which group's predicates to use")
        st.add_argument("--matrix", required=True,
                        help="matrix payload; stabilize also takes an array of matrices "
                             "to compare product action with composed action")
        st.add_argument("--point", required=True, help="point payload")

    # no default but None here, so that _cmd_verify sees which flags were given
    ver = command("verify", _cmd_verify, "run a property suite")
    ver.add_argument("--suite", required=True, choices=tuple(_SUITES))
    ver.add_argument("--seed", **seed)
    ver.add_argument("--field", **field)
    ver.add_argument("--p", **prime)
    character(ver)
    for name in ("count", "matrices", "points", "samples"):
        ver.add_argument(f"--{name}", type=int)

    fan = command("fan", _cmd_fan, "maximal cones and vertices of a weight fan")
    character(fan, required=True)

    sch = command("schur", _cmd_schur, "evaluate a Schur polynomial by both routes")
    sch.add_argument("--lambda", dest="lam", required=True)
    sch.add_argument("--z", required=True, help="comma-separated rationals")

    hyp = command("hypersurface", _cmd_hypersurface, "sample tropical hypersurface membership")
    character(hyp, default="identity")
    hyp.add_argument("--sample", type=int, required=True)
    hyp.add_argument("--seed", **seed)
    hyp.add_argument("--p", default=2, **prime)

    plot = command("plot", _cmd_plot, "SVG figure of a rank-two fan")
    character(plot, default="identity")
    plot.add_argument("--sample", type=int, default=0,
                      help="hypersurface samples to overlay; 0 draws the fan alone")
    plot.add_argument("--walls", action="store_true")
    plot.add_argument("--seed", **seed)
    plot.add_argument("--p", **prime)

    return parser


def _require_seed(args):
    if args.seed is None:
        raise InputError("--seed is required for randomized runs")
    return args.seed


#: The largest --n of any command, and the largest Schur rank that a
#: --lambda without --n implies.  Two suites grow exponentially in n and take
#: less: parahoric runs over the ordered set partitions of n (4,683 at
#: n = 6), boundary over the 2^n - 1 strata.
MAX_RANK = 32
MAX_PARAHORIC_RANK = 5
MAX_BOUNDARY_RANK = 10


def _rank_in(n, least, what, most=MAX_RANK):
    if n < least:
        raise InputError(f"--n must be at least {least} for {what}")
    if n > most:
        raise InputError(f"--n must be at most {most} for {what}")
    return n


def _count(args, name, default=None):
    """The count flag --name, its default when not given; below 1 is malformed."""
    value = getattr(args, name)
    if value is not None and value < 1:
        raise InputError(f"--{name} must be at least 1")
    return default if value is None else value


def _char_params(args):
    """(rep, rank, lam): a Schur --lambda without --n has rank its number of parts."""
    _, fixed, least = suites.REPRESENTATIONS[args.rep]
    if fixed is not None and args.lam is not None:
        raise InputError(f"--rep {args.rep} does not read --lambda")
    lam = _parse_lambda(args.lam) if args.lam else None
    if fixed is None and lam is None:
        raise InputError(f"--lambda is required for the {args.rep} representation")
    n = args.n
    if n is not None:
        _rank_in(n, least, f"the {args.rep} representation")
        if lam and len(weights.as_partition(lam)) > n:
            raise InputError(f"--lambda has more than --n = {n} nonzero parts")
    elif fixed is not None:
        raise InputError("--n is required for this representation")
    elif len(lam) > MAX_RANK:
        raise InputError(f"--lambda without --n must have at most {MAX_RANK} parts")
    return args.rep, len(lam) if n is None else n, lam


def _cmd_stabilize(args) -> int:
    """stabilize and boundary-stabilize: one tropical fixed-point test, on a
    boundary point for boundary-stabilize or any -inf entry, else on an
    apartment point of the group, embedded outside SL_n."""
    spec = _field_spec(args)
    payload = _load_payload(args.matrix)
    point_payload = _load_payload(args.point)
    boundary = args.command == "boundary-stabilize"
    if (not boundary and isinstance(payload, list) and payload
            and isinstance(payload[0], list) and payload[0]
            and isinstance(payload[0][0], list)):
        matrices = [matrix_from_json(spec, m) for m in payload]
    else:
        matrices = [matrix_from_json(spec, payload)]
    coords = point_from_json(point_payload)

    if len(matrices) > 1:
        # composed_image eliminates each factor anyway; the product then
        # records det = ∏ det mᵢ and is never eliminated itself
        for m in matrices:
            m.determinant()
    product = matrices[0]
    for m in matrices[1:]:
        product = product * m
    group = GROUPS[args.group]
    # a form check precedes tropicalize; under SL_n a singular matrix is "not invertible"
    if group is not GROUP_SL:
        group.require(product)
    trop = tropicalize(product)

    if boundary or any(c is NEG_INF for c in coords):
        x, key = BoundaryPoint(coords, group), "canonical_point"
    elif group is GROUP_SL:
        x, key = ApartmentPoint(coords), "canonical_point"
    else:
        x, key = SpApartmentPoint(coords), "embedded_point"
    ys = x.embed(x.coords)
    doc = {
        "field": spec_to_json(spec),
        "tropicalized": [point_to_json(row) for row in trop],
        "stabilizes": stabilizer_membership(product, x),
    }
    # the image is of the point as reported: boundary-stabilize reports the
    # anchored point, stabilize the point as given or its embedding
    if boundary:
        doc.update(point=point_to_json(ys), stratum=sorted(x.stratum))
        mapped = ys
    else:
        doc.update({"point": point_to_json(coords), key: point_to_json(ys)})
        mapped = ys if key == "embedded_point" else coords
    doc["image"] = point_to_json(trop_matvec(trop, mapped))

    if len(matrices) > 1:
        composed = list(coords)
        for m in reversed(matrices):
            composed = list(trop_matvec(tropicalize(m), composed))
        doc["composed_image"] = point_to_json(composed)
        doc["product_image"] = doc["image"]

    _emit_json(args, doc)
    return 0


def _expected_cone_count(rep, n, lam):
    """|W.lam| from the input: the distinct permutations of the padded
    highest weight, a multinomial, times a sign per nonzero part for Sp_2n."""
    group, fixed, _ = suites.REPRESENTATIONS[rep]
    part = weights.as_partition(fixed or lam)
    padded = part + (0,) * ((len(lam) if n is None else n) - len(part))
    return math.factorial(len(padded)) // math.prod(
        math.factorial(padded.count(v)) for v in set(padded)) * len(group.signs) ** len(part)


#: verify --suite fans checks every Weyl element: SL n <= 7, Sp n <= 5.
MAX_WEYL_ORDER = 5040

def _verify_fans(a, seed):
    rep, n, lam = _char_params(a)
    if math.factorial(n) * len(suites.REPRESENTATIONS[rep][0].signs) ** n > MAX_WEYL_ORDER:
        raise InputError(f"the fans suite runs over the Weyl group, whose "
                         f"order must be at most {MAX_WEYL_ORDER}")
    return suites.run_fans(rep, seed, n=n, lam=lam, samples=_count(a, "samples", 500),
                           expected_cones=_expected_cone_count(rep, n, lam))


def _verify_hypersurface(a, seed):
    p = _prime(a.p)
    rep, n, lam = _char_params(a)
    return suites.run_hypersurface(rep, p, seed, n=n, lam=lam,
                                   samples=_count(a, "samples", 500))


#: Suite name -> (the flags it reads by dest, run(args, seed)): the suite's
#: call with the command line defaults, after its preconditions on the
#: parameters.  Every suite reads --seed and --out besides.
_SUITES = {
    "semiring": ({"field", "p", "count"}, lambda a, seed: suites.run_semiring(
        seed, count=_count(a, "count", 200), spec=_field_spec(a))),
    "stabilizer": ({"field", "p", "n", "matrices", "points", "count"},
                   lambda a, seed: suites.run_stabilizer(
                       _field_spec(a), _rank_in(a.n, 2, "the stabilizer suite"), seed,
                       matrices=_count(a, "matrices", 100), points=_count(a, "points", 10),
                       closure_pairs=_count(a, "count", 100))),
    "parahoric": ({"field", "p", "n", "count"}, lambda a, seed: suites.run_parahoric(
        _field_spec(a), _rank_in(a.n, 2, "the parahoric suite", MAX_PARAHORIC_RANK), seed,
        count=_count(a, "count", 100))),
    "sp": ({"field", "p", "n", "count"}, lambda a, seed: suites.run_sp(
        _field_spec(a), _rank_in(a.n, 1, "the sp suite"), seed,
        count=_count(a, "count", 100))),
    "fans": ({"rep", "n", "lam", "samples"}, _verify_fans),
    "hypersurface": ({"p", "rep", "n", "lam", "samples"}, _verify_hypersurface),
    "schur": ({"count"}, lambda a, seed: suites.run_schur(
        seed, inputs=_count(a, "count", 10))),
    "boundary": ({"field", "p", "n", "count"}, lambda a, seed: suites.run_boundary(
        _field_spec(a), _rank_in(a.n, 2, "the boundary suite", MAX_BOUNDARY_RANK), seed,
        count=_count(a, "count", 100))),
    "sp-boundary": ({"field", "p", "count"}, lambda a, seed: suites.run_sp_boundary(
        _field_spec(a), seed, count=_count(a, "count", 100))),
}


def _cmd_verify(args) -> int:
    reads, run = _SUITES[args.suite]
    given = {name for name, value in vars(args).items() if value is not None}
    refused = sorted(given - reads - {"command", "run", "suite", "seed", "out"})
    if refused:
        raise InputError(f"--suite {args.suite} does not read " + ", ".join(
            "--lambda" if name == "lam" else f"--{name}" for name in refused))
    # the defaults, once the suite is known to read every flag given; a Schur
    # --lambda without --n has rank its number of parts, as in fan and plot
    for name, value in (("field", "qp"), ("p", 2), ("rep", "identity")):
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.n is None and suites.REPRESENTATIONS[args.rep][1] is not None:
        args.n = 3
    report = run(args, _require_seed(args))
    _emit_json(args, report)
    return 0 if report["pass"] else 1


def _cmd_fan(args) -> int:
    rep, n, lam = _char_params(args)
    char = suites.character_from_params(rep, n, lam)
    _emit_json(args, fan_to_json(weights.weight_fan(char)))
    return 0


def _cmd_schur(args) -> int:
    lam = _parse_lambda(args.lam)
    values = _parse_values(args.z)
    tabl = weights.schur_eval_tableaux(lam, values)
    bial = weights.schur_eval_bialternant(lam, values)
    try:
        shown = str(tabl), str(bial)
    except ValueError as exc:  # more digits than Python converts to text
        raise InputError("the result has too many digits to print") from exc
    doc = {
        "lambda": list(lam),
        "z": [str(v) for v in values],
        "tableaux": shown[0],
        "bialternant": shown[1],
        "agree": tabl == bial,
    }
    _emit_json(args, doc)
    return 0 if tabl == bial else 1


def _cmd_hypersurface(args) -> int:
    rep, n, lam = _char_params(args)
    count = _count(args, "sample")
    p = _prime(args.p)
    char = suites.character_from_params(rep, n, lam)
    seed = _require_seed(args)
    samples = [{"point": point_to_json(x), "member": member, "skeleton": skel}
               for x, member, skel in suites.hypersurface_samples(
                   char, p, random.Random(seed), count, 12)]
    agree = all(s["member"] == s["skeleton"] for s in samples)
    doc = {"field_p": p, "rep": rep, "seed": seed,
           "samples": samples, "agree_all": agree}
    _emit_json(args, doc)
    return 0 if agree else 1


def _cmd_plot(args) -> int:
    rep, n, lam = _char_params(args)
    if args.sample < 0:
        raise InputError("--sample must be at least 0")
    if not args.sample and (args.p is not None or args.seed is not None):
        raise InputError("--p and --seed are read only with --sample above 0")
    p = 2 if args.p is None else _prime(args.p)
    seed = _require_seed(args) if args.sample else 0
    # refused before the character is built: a large Schur one costs seconds
    svgplot._check_rank_two(suites.REPRESENTATIONS[rep][0], n)
    char = suites.character_from_params(rep, n, lam)
    svg = svgplot.render_fan_svg(char, p=p, samples=args.sample, seed=seed,
                                 walls=args.walls)
    _emit(args, svg)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TropstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

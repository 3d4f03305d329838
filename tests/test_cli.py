import argparse
import contextlib
import hashlib
import io
import itertools
import json
import re
import shlex
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropstab import cli, matrices, suites
from tropstab.cli import _expected_cone_count, main
from tropstab.groups import GROUP_SL, GROUP_SP, GROUPS
from tropstab.weights import weyl_orbit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1), err
    return code, json.loads(out)


def test_stabilize_identity(capsys):
    code, doc = run_json(capsys, "stabilize",
                         "--matrix", '[["1","0"],["0","1"]]',
                         "--point", '["0","0"]')
    assert code == 0
    assert doc["stabilizes"] is True
    assert doc["image"] == ["0", "0"]
    assert doc["tropicalized"] == [["0", "-inf"], ["-inf", "0"]]


def test_stabilize_reports_both_composite_evaluations(capsys):
    code, doc = run_json(
        capsys, "stabilize",
        "--matrix", '[[["1","1"],["0","1"]],[["1","0"],["-1","1"]]]',
        "--point", '["1","0"]')
    assert code == 0
    assert doc["product_image"] == ["0", "1"]
    assert doc["composed_image"] == ["1", "1"]


def test_stabilize_boundary_point(capsys):
    code, doc = run_json(capsys, "stabilize",
                         "--matrix", '[["1","7"],["0","1"]]',
                         "--point", '["0","-inf"]')
    assert code == 0
    assert doc["stabilizes"] is True


def test_stabilize_malformed_input_exit_2(capsys):
    code, out, err = run_cli(capsys, "stabilize",
                             "--matrix", "not json and not a file",
                             "--point", '["0","0"]')
    assert code == 2
    assert "error" in err


def test_stabilize_precondition_exit_3(capsys):
    code, out, err = run_cli(capsys, "stabilize",
                             "--matrix", '[["2","0"],["0","1"]]',
                             "--point", '["0","0"]')
    assert code == 3


def test_singular_matrix_exit_3(capsys):
    code, out, err = run_cli(capsys, "stabilize",
                             "--matrix", '[["1","1"],["1","1"]]',
                             "--point", '["0","0"]')
    assert code == 3


def test_verify_semiring_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "semiring",
                             "--seed", "3", "--count", "50")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "semiring",
                             "--seed", "3", "--count", "50")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["pass"] is True
    assert doc["params"]["seed"] == 3


@pytest.mark.parametrize("argv", [
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[[{"num":{"-1":1}},"0"],["0","1"]]', "--point", '["0","0"]'],
    ["verify", "--suite", "stabilizer", "--n", "1", "--seed", "1"],
    ["verify", "--suite", "parahoric", "--n", "1", "--seed", "1"],
    ["verify", "--suite", "boundary", "--n", "1", "--seed", "1"],
    ["verify", "--suite", "sp", "--n", "0", "--seed", "1"],
    ["verify", "--suite", "fans", "--rep", "identity", "--n", "1", "--seed", "1"],
    ["fan", "--rep", "schur", "--lambda", "2,-1"],
    ["verify", "--suite", "parahoric", "--n", "2", "--seed", "1", "--count", "-5"],
    ["verify", "--suite", "semiring", "--seed", "1", "--count", "0"],
    ["verify", "--suite", "stabilizer", "--n", "2", "--seed", "1", "--matrices", "0"],
    ["verify", "--suite", "stabilizer", "--n", "2", "--seed", "1", "--points", "-1"],
    ["verify", "--suite", "fans", "--rep", "identity", "--n", "2", "--seed", "1",
     "--samples", "0"],
    ["hypersurface", "--rep", "identity", "--n", "2", "--seed", "1", "--sample", "0"],
    ["stabilize", "--matrix", '[[1,2],[3]]', "--point", '["0","0"]'],
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[[{"den":{"0":0}},"0"],["0","1"]]', "--point", '["0","0"]'],
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[["1/3","0"],["0","1"]]', "--point", '["0","0"]'],
    ["stabilize", "--p", "3317044064679887385961981",
     "--matrix", '[["1","1"],["0","1"]]', "--point", '["0","0"]'],
    ["hypersurface", "--rep", "identity", "--n", "2", "--seed", "1", "--sample", "1",
     "--p", "1"],
    ["plot", "--rep", "identity", "--n", "3", "--sample", "-5", "--seed", "1"],
    ["stabilize", "--matrix", "[[1,0],[0,1]]", "--point", '["1e5000","0"]'],
    ["schur", "--lambda", "1", "--z", "1e5000,2"],
    ["stabilize", "--matrix", "[[1,0],[0,1]]", "--point", f"[{'1' * 5001},0]"],
    ["stabilize", "--matrix", ".", "--point", '["0","0"]'],
    ["stabilize", "--matrix", "x" * 5000, "--point", '["0","0"]'],
    ["fan", "--rep", "schur", "--lambda", "2,1", "--n", "0"],
    ["verify", "--suite", "fans", "--rep", "schur", "--lambda", "2,1", "--n", "0",
     "--seed", "1"],
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[[{"num":{"10000000":1}},"0"],["0","1"]]', "--point", '["0","0"]'],
    ["schur", "--lambda", "3", "--z", "9" * 2000 + ",1"],
    ["fan", "--rep", "schur", "--lambda", "2,1", "--n", "1"],
    ["verify", "--suite", "fans", "--rep", "schur", "--lambda", "2,1", "--n", "1",
     "--seed", "1"],
    ["verify", "--suite", "hypersurface", "--rep", "schur", "--lambda", "3,2,1,0",
     "--n", "2", "--seed", "1"],
    ["hypersurface", "--rep", "schur", "--lambda", "2,1", "--n", "1", "--seed", "1",
     "--sample", "5"],
    ["plot", "--rep", "schur", "--lambda", "2,1", "--n", "1"],
    ["verify", "--suite", "stabilizer", "--group", "sp2n", "--n", "2", "--seed", "1"],
    ["verify", "--suite", "parahoric", "--group", "sp2n", "--n", "2", "--seed", "1"],
    ["verify", "--suite", "fans", "--rep", "sp", "--group", "sp2n", "--n", "2",
     "--seed", "1"],
    ["fan", "--rep", "identity", "--n", "2", "--group", "sp2n"],
    ["hypersurface", "--rep", "identity", "--n", "3", "--group", "sp2n", "--seed", "1",
     "--sample", "5"],
    ["plot", "--rep", "identity", "--n", "3", "--group", "sp2n"],
    ["schur", "--lambda", "2,1", "--z", "1,2", "--group", "sp2n"],
    ["verify", "--suite", "fans", "--rep", "identity", "--n", "8", "--seed", "1"],
    ["verify", "--suite", "fans", "--rep", "sp", "--n", "6", "--seed", "1"],
    ["verify", "--suite", "fans", "--rep", "schur", "--lambda", "2,1", "--n", "8",
     "--seed", "1"],
    ["verify", "--suite", "fans", "--rep", "identity", "--n", str(10 ** 12),
     "--seed", "1"],
    ["fan", "--rep", "identity", "--n", str(10 ** 12)],
    ["fan", "--rep", "sp", "--n", "33"],
    ["fan", "--rep", "schur", "--lambda", ",".join(["1"] + ["0"] * 32)],
    ["plot", "--rep", "identity", "--n", str(10 ** 8)],
    ["hypersurface", "--rep", "sp", "--n", str(10 ** 8), "--sample", "1", "--seed", "1"],
    ["verify", "--suite", "stabilizer", "--n", str(10 ** 8), "--seed", "1",
     "--matrices", "1", "--points", "1", "--count", "1"],
    ["verify", "--suite", "sp", "--n", "33", "--seed", "1", "--count", "1"],
    ["verify", "--suite", "hypersurface", "--rep", "identity", "--n", "33",
     "--seed", "1"],
    ["verify", "--suite", "parahoric", "--n", "6", "--seed", "1", "--count", "1"],
    ["verify", "--suite", "parahoric", "--n", "12", "--seed", "1", "--count", "1"],
    ["verify", "--suite", "boundary", "--n", "11", "--seed", "1", "--count", "1"],
    ["verify", "--suite", "boundary", "--n", "40", "--seed", "1", "--count", "1"],
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[[{"num":{"0":1e400}},"0"],["0","1"]]', "--point", '["0","0"]'],
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[[{"num":{"0":Infinity}},"0"],["0","1"]]', "--point", '["0","0"]'],
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[[{"num":{"0":true}},"0"],["0","1"]]', "--point", '["0","0"]'],
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[[{"num":{"0":2.9}},"0"],["0","1"]]', "--point", '["0","0"]'],
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[[{"num":{"0":1},"den":{"0":0.5}},"0"],["0","1"]]',
     "--point", '["0","0"]'],
    ["stabilize", "--field", "fpt", "--p", "3",
     "--matrix", '[[{"numerator":{"0":2}},"0"],["0","1"]]', "--point", '["0","0"]'],
    ["stabilize"],
    ["verify", "--suite", "stabilizer", "--n", "x", "--seed", "1"],
    ["fan", "--rep", "identity", "--n", "3", "--p", "4", "--field", "fpt", "--seed", "5"],
    ["schur", "--lambda", "2,1", "--z", "1,2", "--p", "9"],
    ["verify", "--suite", "schur", "--seed", "1", "--count", "1", "--n", "99", "--rep", "sp",
     "--samples", "5", "--matrices", "7"],
    ["verify", "--suite", "sp", "--n", "1", "--seed", "1", "--count", "1",
     "--group", "sp2n"],
    ["verify", "--suite", "boundary", "--group", "sp2n", "--n", "9", "--seed", "1",
     "--count", "1"],
    ["verify", "--suite", "sp-boundary", "--n", "9", "--seed", "1", "--count", "1"],
    ["hypersurface", "--rep", "identity", "--n", "3", "--sample", "5", "--seed", "1",
     "--field", "fpt"],
    ["verify", "--suite", "semiring", "--seed", "1", "--count", "1", "--sample", "5"],
    ["stabilize", "--mat", '[["1","1"],["0","1"]]', "--poi", '["0","0"]'],
    ["plot", "--rep", "identity", "--n", "3", "--p", "4", "--seed", "5"],
    ["plot", "--rep", "identity", "--n", "3", "--p", "2"],
], ids=["negative-degree", "stabilizer-n1", "parahoric-n1", "boundary-n1",
        "sp-n0", "fans-identity-n1", "fan-negative-part", "negative-count",
        "zero-count", "zero-matrices", "negative-points", "zero-samples",
        "zero-sample", "non-square", "zero-denominator", "vanishing-denominator",
        "huge-p", "hypersurface-p1", "plot-negative-sample",
        "exponent-point", "exponent-z", "huge-json-integer", "directory-payload",
        "overlong-payload-name", "fan-schur-n0", "fans-schur-n0", "huge-degree",
        "unprintable-schur", "fan-too-many-parts", "fans-too-many-parts",
        "hypersurface-suite-too-many-parts", "hypersurface-too-many-parts",
        "plot-too-many-parts", "stabilizer-sp2n", "parahoric-sp2n", "fans-sp2n",
        "fan-sp2n", "hypersurface-sp2n", "plot-sp2n", "schur-sp2n",
        "fans-identity-weyl-order", "fans-sp-weyl-order", "fans-schur-weyl-order",
        "fans-huge-n", "fan-huge-n", "fan-sp-n33", "fan-schur-33-parts",
        "plot-huge-n", "hypersurface-huge-n", "stabilizer-huge-n", "sp-n33",
        "hypersurface-suite-n33", "parahoric-n6", "parahoric-n12", "boundary-n11",
        "boundary-n40", "fpt-overflowing-coefficient", "fpt-infinite-coefficient",
        "fpt-boolean-coefficient", "fpt-float-coefficient", "fpt-float-denominator",
        "fpt-misspelt-key", "stabilize-no-flags", "verify-n-not-an-int",
        "fan-unread-flags", "schur-unread-p", "schur-suite-unread-flags",
        "sp-suite-group", "boundary-suite-group", "sp-boundary-suite-n",
        "hypersurface-field", "verify-abbreviated-samples", "stabilize-abbreviated-flags",
        "plot-unread-p-and-seed", "plot-unread-p"])
def test_bad_parameters_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines and all(line.startswith("error: ") for line in lines)


#: Determinant-one factors over Q_3 and over F_3(T), dense once multiplied;
#: payloads without spaces, so that a command string splits into its words.
_Q3_FACTORS = ('[["1","3","1/9"],["0","1","2"],["0","0","1"]]',
               '[["1","0","0"],["1/3","1","0"],["5","2/9","1"]]',
               '[["3","0","0"],["0","1/3","0"],["0","0","1"]]')
_FPT_FACTORS = (
    '[["1",{"num":{"0":1},"den":{"1":1}},{"num":{"1":2}}],["0","1",{"num":{"2":1,"0":1}}],'
    '["0","0","1"]]',
    '[["1","0","0"],[{"num":{"0":2},"den":{"2":1}},"1","0"],'
    '[{"num":{"1":1}},{"num":{"0":1,"1":1},"den":{"1":1}},"1"]]',
    '[[{"num":{"1":1}},"0","0"],["0",{"num":{"0":1},"den":{"1":1}},"0"],["0","0","1"]]')


#: A symplectic 4 x 4 matrix over Q_3.
_SP4 = '[["1","3","5","1/3"],["0","1","0","5"],["0","0","1","-3"],["0","0","0","1"]]'


def _factors_payload(factors):
    return "[" + ",".join(factors) + "]"


#: sha256 of the stdout of commands whose bytes no report digest covers:
#: the hypersurface samples, the fan and overlay figures, a fan, the
#: README's hypersurface suite run through verify, products of factors and
#: boundary points.
COMMAND_DIGESTS = [
    ("hypersurface --rep identity --n 3 --sample 200 --seed 11 --p 3",
     "cbbff96df0d8765b4177ec68c6a950bb57700712471f22fdf2f75eb011ed81aa"),
    ("hypersurface --rep sp --n 2 --sample 500 --seed 11 --p 3",
     "0ebb84374a5d1df145176f3429f6f4055db36e46d1d6dd4fc6a03efb39643f30"),
    ("hypersurface --rep schur --lambda 2,1,0 --sample 200 --seed 11 --p 2",
     "61e120c08e087eaa02105a667b8ebd4b79e870f2a7e9e697b218d266f7f9c0e5"),
    ("plot --rep identity --n 3 --walls",
     "8aa32049a4b792f61bb74919a634ef81aa59c3ca57c0caf460d85a5e6e42c291"),
    ("plot --rep sp --n 2 --walls",
     "7619de98dbadd784b250f6b08bdd2f216c6f71fba58d4020065d76ca7f451fed"),
    ("plot --rep identity --n 3 --sample 400 --seed 5",
     "183258db53fc0efe6233a7c83af5880c00bb12c54b44a895d622862f71048907"),
    ("plot --rep sp --n 2 --sample 2000 --seed 5 --walls",
     "5035dac536fe5ba46489ba1c5645df9193583eaa3bca497bf8bae61d53bef3f9"),
    ("fan --rep identity --n 4",
     "ee2f5318f55ee9780d9def063a1fdf613865a35f6811f9876ecbcbc87ecf5c62"),
    ("verify --suite hypersurface --rep schur --lambda 2,1,0 --p 2 --seed 7 "
     "--samples 1000",
     "6b70943ab1a8594eed07e9a7e7d3e0bb3028a6dddbb3050f55aa53b362a55248"),
    # dense 64 x 64 symplectic words: products, inverses and Weyl conjugates
    ("verify --suite sp --n 32 --seed 1 --count 1",
     "92c9c836d41948dd3e9cf4b5df5dcd523210365f521c08dd004e263711845882"),
    # three F_3(T) factors with T-power denominators: product and composed images
    ("stabilize --field fpt --p 3 --matrix " + _factors_payload(_FPT_FACTORS)
     + ' --point ["0","1/2","-1"]',
     "e322f44da862798f0f844b28f1049283f80cb1315f922870638f0b59c66d1809"),
    # Q_3 entries in the forms only Fraction's own parser reads: " 1/2"
    # (its space escaped as \u0020, since commands split on spaces), "+3",
    # "0.5" and "1_0"
    ('stabilize --field qp --p 3 --matrix [["\\u00201/2","+3","1_0"],["0","2","0.5"],'
     '["0","0","1"]] --point ["0.5","+1","-1"]',
     "d7a280a863994f7fc7eeb692b945473494d61e617f75b2aef30c2de77d6ab836"),
    # F_3(T) entries with denominators 1 + T and 2, string coefficients, a
    # leading-zero degree and a coefficient 3 that vanishes mod 3
    ('stabilize --field fpt --p 3 --matrix [[{"num":{"0":"1"},"den":{"0":1,"1":"1"}},'
     '{"num":{"01":"2","0":"3"},"den":{"0":"1","2":"1"}},"0"],["0",{"num":{"0":1,"1":1}},"0"],'
     '[{"num":{"2":"-1"},"den":{"0":2}},"1","1"]] --point ["0","1/2","-1"]',
     "5eb1b16cdeac166a0c816b720f0818b49758de40bcebe391c3cb1bfaa8fc2965"),
    # boundary points over Q_3 and over F_3(T): anchored point, stratum, image
    ('boundary-stabilize --field qp --p 3 --matrix [["1","3","0"],["1/3","2","0"],'
     '["5","1/9","1"]] --point ["1/2","-1","-inf"]',
     "75bee83892062e99296650ecd6ee906dce56ca51ea4a26abfe4721924bf5d121"),
    ("boundary-stabilize --field fpt --p 3 --matrix " + _FPT_FACTORS[1]
     + ' --point ["-inf","1/2","-1"]',
     "ce527810bf7ed3012ee8dd23f2c2039d6c8f9fe45583148144e249baf5f03783"),
    # a symplectic matrix on a finite 2n point and on a boundary point
    ('boundary-stabilize --group sp2n --point ["1/2","0","0","-1/2"] --field qp --p 3 '
     "--matrix " + _SP4,
     "d4180981158ecbea20a6527b65caa72f20ce6e76ea03820036fe970b3fee23d4"),
    ('boundary-stabilize --group sp2n --point ["0","1","-inf","-inf"] --field qp --p 3 '
     "--matrix " + _SP4,
     "9dbe3f424f219f15419917d6d33e1a1f7344a600bc3e56e54710c340936b6d28"),
    # stabilize on a -inf point: one matrix, and a product of factors
    ("stabilize --field fpt --p 3 --matrix " + _FPT_FACTORS[0]
     + ' --point ["0","-inf","-1"]',
     "8d7a7dbebc859eb9133441a41b96ec9941b8ad2b3b9e76a466282b99c09ac41e"),
    ("stabilize --field qp --p 3 --matrix " + _factors_payload(_Q3_FACTORS)
     + ' --point ["1","-inf","1/2"]',
     "819e736a8d0c48add45e7498f35bb7a27b2a894a9335d9f3cc05d06d9755fa15"),
]


@pytest.mark.parametrize("command,digest", COMMAND_DIGESTS,
                         ids=[c for c, _ in COMMAND_DIGESTS])
def test_command_output_digest(capsys, command, digest):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _readme_commands():
    """Every tropstab command of the README's "Command line" block, with
    backslash continuations joined, as argument lists."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("tropstab ")]


def test_readme_commands_run(capsys):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "stabilize", "boundary-stabilize", "verify", "fan", "schur", "hypersurface", "plot"}
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def test_expected_cone_count_counts_distinct_permutations():
    for lam, n in (((2, 1, 0), 3), ((2, 1), 4), ((2, 2, 1, 0), None), ((3, 1, 1), 5),
                   ((1,), 1), ((4, 3), 1)):
        rank = n if n else len(lam)
        padded = lam + (0,) * (rank - len(lam))
        assert _expected_cone_count("schur", n, lam) == \
            len(set(itertools.permutations(padded)))
    for rep, group in (("identity", GROUP_SL), ("sp", GROUP_SP)):
        for n in range(1, 8):
            assert _expected_cone_count(rep, n, None) == \
                len(weyl_orbit(group, (1,) + (0,) * (n - 1)))


def test_fixed_highest_weights_refuse_lambda(capsys):
    # identity and sp have a fixed highest weight, so --lambda is a flag they do not read
    for rep in ("identity", "sp"):
        for argv in (("fan",), ("hypersurface", "--sample", "1", "--seed", "1"), ("plot",),
                     ("verify", "--suite", "fans", "--seed", "1"),
                     ("verify", "--suite", "hypersurface", "--seed", "1")):
            code, out, err = run_cli(capsys, *argv, "--rep", rep, "--n", "2",
                                     "--lambda", "2,1")
            assert (code, out, err) == (2, "", f"error: --rep {rep} does not read --lambda\n")
    # --rep identity is the default of all but fan
    for argv in (("hypersurface", "--sample", "1", "--seed", "1"), ("plot",),
                 ("verify", "--suite", "fans", "--seed", "1")):
        code, out, err = run_cli(capsys, *argv, "--n", "3", "--lambda", "1")
        assert (code, out, err) == (2, "", "error: --rep identity does not read --lambda\n")


def test_verify_requires_seed(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "semiring")
    assert code == 2


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "nonsense", "--seed", "1")
    assert code == 2


def test_verify_stabilizer_small(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "stabilizer",
                         "--n", "2", "--seed", "5", "--matrices", "20",
                         "--points", "5", "--count", "10")
    assert code == 0 and doc["pass"]


def test_verify_boundary_sp_group(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "sp-boundary",
                         "--seed", "5", "--count", "10")
    assert code == 0 and doc["pass"]
    assert doc["suite"] == "sp-boundary"


def test_fan_counts(capsys):
    for args, expected in (
            (("--rep", "identity", "--n", "4"), 4),
            (("--rep", "sp", "--n", "2"), 4),
            (("--rep", "schur", "--lambda", "2,1,0", "--n", "3"), 6)):
        code, doc = run_json(capsys, "fan", *args)
        assert code == 0
        assert len(doc["cones"]) == expected
        assert len(doc["vertices"]) == expected


def test_fan_vertices_are_canonical(capsys):
    code, doc = run_json(capsys, "fan", "--rep", "identity", "--n", "3")
    assert [0, 0, 1] not in doc["vertices"]
    assert [-1, -1, 0] in doc["vertices"]
    assert [1, 0, 0] in doc["vertices"]


def test_schur_command(capsys):
    code, doc = run_json(capsys, "schur", "--lambda", "2,1", "--z", "1,2")
    assert code == 0
    assert doc["tableaux"] == "6"
    assert doc["bialternant"] == "6"
    assert doc["agree"] is True


def test_schur_command_rejects_repeats(capsys):
    code, out, err = run_cli(capsys, "schur", "--lambda", "2,1", "--z", "2,2")
    assert code == 3


def test_hypersurface_samples(capsys):
    code, doc = run_json(capsys, "hypersurface", "--rep", "identity", "--n", "3",
                         "--sample", "60", "--seed", "11", "--p", "2")
    assert code == 0
    assert doc["agree_all"] is True
    assert len(doc["samples"]) == 60
    assert {"member", "point", "skeleton"} <= set(doc["samples"][0])


def test_boundary_stabilize_command(capsys):
    code, doc = run_json(capsys, "boundary-stabilize",
                         "--point", '["0","-inf"]',
                         "--matrix", '[["1","5"],["0","1"]]')
    assert code == 0
    assert doc["stabilizes"] is True
    assert doc["stratum"] == [0]
    code, doc = run_json(capsys, "boundary-stabilize",
                         "--point", '["0","-inf"]',
                         "--matrix", '[["1","0"],["1","1"]]')
    assert doc["stabilizes"] is False


def test_boundary_stabilize_symplectic_group(capsys):
    point = '["0","-inf","-inf","-inf"]'
    not_symplectic = ('[["1","1","0","0"],["0","1","0","0"],'
                      '["0","0","1","0"],["0","0","0","1"]]')
    symplectic = ('[["1","1","0","0"],["0","1","0","0"],'
                  '["0","0","1","-1"],["0","0","0","1"]]')
    code, out, err = run_cli(capsys, "boundary-stabilize", "--group", "sp2n",
                             "--matrix", not_symplectic, "--point", point)
    assert code == 3 and out == ""
    assert err == "error: matrix does not preserve the symplectic form\n"
    code, doc = run_json(capsys, "boundary-stabilize", "--group", "sp2n",
                         "--matrix", symplectic, "--point", point)
    assert code == 0 and doc["stabilizes"] is True
    code, doc = run_json(capsys, "boundary-stabilize", "--matrix", not_symplectic,
                         "--point", point)
    assert code == 0 and doc["stabilizes"] is True


def test_plot_identity_rank_two(capsys):
    code, out, err = run_cli(capsys, "plot", "--rep", "identity", "--n", "3")
    assert code == 0
    assert out.startswith("<svg")
    rays = [line for line in out.splitlines() if "data-ray" in line]
    assert len(rays) == 3
    assert 'data-ray="1,1,-2"' in out


def test_plot_sp_rank_two(capsys):
    code, out, err = run_cli(capsys, "plot", "--rep", "sp", "--n", "2", "--walls")
    assert code == 0
    rays = [line for line in out.splitlines() if "data-ray" in line]
    assert len(rays) == 4
    assert 'data-ray="1,1"' in out and 'data-ray="1,-1"' in out


def test_plot_hypersurface_overlay_deterministic(capsys):
    args = ("plot", "--rep", "sp", "--n", "2", "--sample", "200", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "circle" in out1


def test_plot_unsupported_rank(capsys):
    code, out, err = run_cli(capsys, "plot", "--rep", "identity", "--n", "4")
    assert code == 3


def test_plot_refuses_other_ranks_before_building_the_character(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("character built for a figure that is refused")

    monkeypatch.setattr(suites, "character_from_params", refuse)
    for args in (("--rep", "schur", "--lambda", "20", "--n", "6"),
                 ("--rep", "schur", "--lambda", "2,1,0,0"), ("--rep", "identity", "--n", "2"),
                 ("--rep", "sp", "--n", "3", "--sample", "5", "--seed", "1")):
        code, out, err = run_cli(capsys, "plot", *args)
        assert (code, out) == (3, "")
        assert err == "error: figures exist for rank-two apartments only\n"


def test_matrix_payload_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('[["1","0"],["0","1"]]', encoding="utf-8")
    code, doc = run_json(capsys, "stabilize", "--matrix", str(path),
                         "--point", '["1","0"]')
    assert code == 0
    assert doc["stabilizes"] is True


def test_payload_file_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[["1", "0"]', encoding="utf-8")
    missing = str(tmp_path / "missing.json")
    for payload, message in (
            (missing, f"error: neither valid JSON nor an existing file: {missing!r}\n"),
            (str(tmp_path), f"error: neither valid JSON nor an existing file: {str(tmp_path)!r}\n"),
            ("m\0.json", "error: file m\0.json does not contain valid JSON\n"),
            (str(bad), f"error: file {bad} does not contain valid JSON\n")):
        assert run_cli(capsys, "stabilize", "--matrix", payload,
                       "--point", '["0","0"]') == (2, "", message)


def test_fpt_matrix_payload(capsys):
    matrix = json.dumps([
        [{"num": {"0": 1}, "den": {"0": 1}}, {"num": {"1": 1}, "den": {"0": 1}}],
        [{"num": {}, "den": {"0": 1}}, {"num": {"0": 1}, "den": {"0": 1}}],
    ])
    code, doc = run_json(capsys, "stabilize", "--field", "fpt", "--p", "3",
                         "--matrix", matrix, "--point", '["0","0"]')
    assert code == 0
    assert doc["stabilizes"] is True
    assert doc["tropicalized"] == [["0", "-1"], ["-inf", "0"]]

    translation = json.dumps([
        [{"num": {"1": 1}, "den": {"0": 1}}, {"num": {}, "den": {"0": 1}}],
        [{"num": {}, "den": {"0": 1}}, {"num": {"0": 1}, "den": {"1": 1}}],
    ])
    code, doc = run_json(capsys, "stabilize", "--field", "fpt", "--p", "3",
                         "--matrix", translation, "--point", '["0","0"]')
    assert code == 0
    assert doc["stabilizes"] is False


def test_stabilize_symplectic_group(capsys):
    code, doc = run_json(capsys, "stabilize", "--group", "sp2n",
                         "--matrix",
                         '[["1","0","0","0"],["0","1","0","0"],'
                         '["0","0","1","0"],["0","0","0","1"]]',
                         "--point", '["0","0"]')
    assert code == 0
    assert doc["stabilizes"] is True
    assert doc["embedded_point"] == ["0", "0", "0", "0"]
    code, out, err = run_cli(capsys, "stabilize", "--group", "sp2n",
                             "--matrix",
                             '[["2","0","0","0"],["0","1","0","0"],'
                             '["0","0","1","0"],["0","0","0","1"]]',
                             "--point", '["0","0"]')
    assert code == 3


def test_stabilize_symplectic_group_checks_the_form_first(capsys):
    # a non-symplectic matrix fails the form check before it is tropicalized
    # or the point is read as a boundary point
    # a singular factor of a product likewise
    for matrix, point in (('[["1","1"],["1","1"]]', '["0"]'),
                          ('[["1","1"],["1","1"]]', '["0","-inf"]'),
                          ('[["2","0"],["0","1"]]', '["-inf","-inf"]'),
                          ('[[["1","1"],["1","1"]],[["1","0"],["0","1"]]]', '["0"]')):
        code, out, err = run_cli(capsys, "stabilize", "--group", "sp2n",
                                 "--matrix", matrix, "--point", point)
        assert (code, out) == (3, "")
        assert err == "error: matrix does not preserve the symplectic form\n"


@pytest.mark.parametrize("group,matrix,point,message", [
    ("sln", '[["1","1"],["1","1"]]', '["0","0"]', "tropicalization requires an invertible matrix"),
    ("sp2n", '[["1","1"],["1","1"]]', '["0","0"]', "matrix does not preserve the symplectic form"),
    ("sln", '[["1","0"],["0","1"]]', '["-inf","-inf"]', "vector has no finite entry"),
    ("sp2n", '[["1","0"],["0","1"]]', '["-inf","-inf"]', "vector has no finite entry"),
], ids=["sln-singular", "sp2n-singular", "sln-all-infinite", "sp2n-all-infinite"])
def test_stabilize_error_order(capsys, group, matrix, point, message):
    # only a form check comes before tropicalization: under SL_n a singular
    # matrix is refused as not invertible, not for its determinant
    code, out, err = run_cli(capsys, "stabilize", "--group", group,
                             "--matrix", matrix, "--point", point)
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("field,factors", [
    ("qp", _Q3_FACTORS[:2]), ("qp", _Q3_FACTORS), ("fpt", _FPT_FACTORS[:2]),
    ("fpt", _FPT_FACTORS)], ids=["q3-two", "q3-three", "f3t-two", "f3t-three"])
def test_stabilize_eliminates_each_factor_and_not_the_product(capsys, monkeypatch,
                                                              field, factors):
    # the product's determinant is the product of the factors' ones, which
    # the composed image needs anyway
    calls = []

    def counted(rows, zero):
        calls.append(len(rows))
        return eliminate(rows, zero)

    eliminate = matrices._eliminate
    monkeypatch.setattr(matrices, "_eliminate", counted)
    code, doc = run_json(capsys, "stabilize", "--field", field, "--p", "3",
                         "--matrix", _factors_payload(factors),
                         "--point", '["0","1/2","-1"]')
    assert code == 0 and doc["product_image"] == doc["image"]
    assert calls == [3] * len(factors)


def test_stabilize_reads_the_determinant_of_the_product(capsys):
    # det 2 times det 1/2: each factor alone is refused, the product is not
    two, half = '[["2","1"],["0","1"]]', '[["1/2","0"],["5","1"]]'
    for factor in (two, half):
        code, out, err = run_cli(capsys, "stabilize", "--field", "qp", "--p", "3",
                                 "--matrix", factor, "--point", '["0","0"]')
        assert code == 3 and err == "error: determinant-one matrix required\n"
    code, doc = run_json(capsys, "stabilize", "--field", "qp", "--p", "3",
                         "--matrix", f"[{two},{half}]", "--point", '["0","0"]')
    assert code == 0 and doc["tropicalized"] == [["-1", "0"], ["0", "0"]]


def test_matrix_payload_rank_is_bounded(capsys):
    # 64 = 2 * 32, the largest matrix that verify --suite sp --n 32 builds
    def identity(n):
        return json.dumps([["1" if i == j else "0" for j in range(n)] for i in range(n)])

    for n, want in ((64, 0), (65, 2)):
        point = json.dumps(["0"] + ["-inf"] * (n - 1))
        for command in ("stabilize", "boundary-stabilize"):
            code, out, err = run_cli(capsys, command, "--matrix", identity(n),
                                     "--point", point)
            assert code == want, err
            assert (out == "") == (want == 2)
            if want == 2:
                assert err == "error: matrix payload of rank above 64\n"


def test_verify_sp_and_parahoric_and_schur(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "sp", "--n", "1",
                         "--seed", "9", "--count", "20")
    assert code == 0 and doc["pass"]
    code, doc = run_json(capsys, "verify", "--suite", "parahoric", "--n", "2",
                         "--seed", "9", "--count", "15")
    assert code == 0 and doc["pass"]
    code, doc = run_json(capsys, "verify", "--suite", "schur",
                         "--seed", "9", "--count", "2")
    assert code == 0 and doc["pass"]


def test_verify_fans_reports_cone_count(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "fans", "--rep", "sp",
                         "--n", "2", "--seed", "4", "--samples", "50")
    assert code == 0
    count_check = [c for c in doc["checks"] if c["name"] == "maximal_cone_count"]
    assert count_check and count_check[0]["pass"]


def test_verify_fans_counts_cones_of_the_partition_cut_to_the_rank(capsys):
    # trailing zeros of --lambda beyond the rank are no parts of the weight
    for args in (("--lambda", "2,1,0", "--n", "2"), ("--lambda", "2,1,0,0", "--n", "3"),
                 ("--lambda", "4,2,1,0")):
        code, doc = run_json(capsys, "verify", "--suite", "fans", "--rep", "schur",
                             *args, "--seed", "1")
        assert code == 0 and doc["pass"]


def test_verify_schur_rank_is_the_number_of_parts_of_lambda(capsys):
    # as in fan, hypersurface and plot, when --n is left out
    for suite in ("fans", "hypersurface"):
        code, doc = run_json(capsys, "verify", "--suite", suite, "--rep", "schur",
                             "--lambda", "2,1,1,1", "--seed", "1", "--samples", "20")
        assert code == 0 and doc["pass"] and doc["params"]["n"] == 4


def test_verify_fans_accepts_the_largest_weyl_order(capsys):
    # 7! = 5,040 and 2^5 * 5! = 3,840; one step up is rejected with exit 2
    for rep, n in (("identity", "7"), ("sp", "5")):
        code, doc = run_json(capsys, "verify", "--suite", "fans", "--rep", rep,
                             "--n", n, "--seed", "1", "--samples", "1")
        assert code == 0 and doc["pass"]


def test_verify_accepts_the_largest_ranks(capsys):
    # one step up from each exits 2; at count 1 the boundary suite still
    # draws a ray for its limit check
    for suite, n in (("parahoric", "5"), ("boundary", "10"), ("boundary", "2")):
        code, doc = run_json(capsys, "verify", "--suite", suite, "--n", n,
                             "--seed", "1", "--count", "1")
        assert code == 0 and doc["pass"]
    for rep in ("identity", "sp"):
        code, doc = run_json(capsys, "fan", "--rep", rep, "--n", "32")
        assert code == 0 and doc["rank"] == 32
    code, doc = run_json(capsys, "fan", "--rep", "schur", "--lambda",
                         ",".join(["1"] + ["0"] * 31))
    assert code == 0 and len(doc["cones"]) == 32


def test_hypersurface_sp_representation(capsys):
    code, doc = run_json(capsys, "hypersurface", "--rep", "sp", "--n", "2",
                         "--sample", "40", "--seed", "2", "--p", "3")
    assert code == 0 and doc["agree_all"]


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "fan.json"
    code, out, err = run_cli(capsys, "fan", "--rep", "identity", "--n", "3",
                             "--out", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(doc["cones"]) == 3


#: JSON leaves near the readers' edges: rationals and their refused forms,
#: -inf, F_p(T) degree keys and coefficients.
_json_leaves = (st.none() | st.booleans() | st.integers(min_value=-12, max_value=12)
                | st.floats(allow_nan=False, width=16)
                | st.sampled_from(("0", "1", "-1", "1/2", "-3/4", "3/0", "-inf", "1e3",
                                   " 2", "+3", "0.5", "x", "", "9" * 4400))
                | st.text(max_size=3))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(("num", "den", "0", "1", "01", "-1", "2000", "x")), inner, max_size=3),
    max_leaves=16)
_rationals = st.sampled_from(("0", "1", "-1", "1/2", "-3/4", "3", "1/9", "6"))


def _fpt_entries(keys, coefficients):
    return st.dictionaries(st.sampled_from(("num", "den")), st.dictionaries(
        st.sampled_from(keys), coefficients, max_size=3))


_entries = (_rationals | _fpt_entries(("0", "1", "2", "01"), st.integers(-4, 4))
            | _json_leaves | _fpt_entries(("0", "1", "-1", "x", "2000"),
                                          st.sampled_from((1, "2", "z", "3.0", True))))


def _squares(entries, triangular):
    """n x n arrays of entries; unit upper triangular ones have det 1, so
    the query gets past the precondition checks."""
    def square(n, flat):
        return [["1" if triangular and i == j else "0" if triangular and i > j
                 else flat[i * n + j] for j in range(n)] for i in range(n)]
    return st.integers(min_value=1, max_value=3).flatmap(lambda n: st.lists(
        entries, min_size=n * n, max_size=n * n).map(lambda flat: square(n, flat)))


_matrices = _squares(_entries, False) | _squares(_rationals, True) | _squares(_entries, True)
_payloads = _json_values | _matrices | st.lists(_matrices, min_size=1, max_size=3)
_points = _json_values | st.lists(_rationals | st.just("-inf"), min_size=1, max_size=3)


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(st.sampled_from(("stabilize", "boundary-stabilize")), st.sampled_from(("qp", "fpt")),
       _payloads, _points)
def test_payload_commands_exit_cleanly_on_any_json(command, field, matrix, point):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--field", field, "--p", "3",
                     "--matrix=" + json.dumps(matrix), "--point=" + json.dumps(point)])
    assert code in (0, 2, 3)
    assert all(line.startswith("error: ") for line in err.getvalue().splitlines())
    assert (code == 0) == (err.getvalue() == "")


def _command_options():
    """Each command's options, --help left out, as the parser declares them."""
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return {name: [action for action in parser._actions
                   if action.option_strings and action.option_strings[0] != "-h"]
            for name, parser in commands.items()}


def test_group_tags_live_in_one_module():
    # every other module reads a group value, and the command line its tags
    source = Path(cli.__file__).parent
    holders = sorted(path.name for path in source.glob("*.py")
                     if re.search(r"""["'](sln|sp2n)["']""", path.read_text(encoding="utf-8")))
    assert holders == ["groups.py"]
    options = _command_options()
    for command in ("stabilize", "boundary-stabilize"):
        group = next(a for a in options[command] if a.option_strings == ["--group"])
        assert group.choices == tuple(GROUPS)


def test_rep_choices_are_the_rep_groups():
    options = _command_options()
    for command in ("verify", "fan", "hypersurface", "plot"):
        rep = next(a for a in options[command] if a.option_strings == ["--rep"])
        assert rep.choices == tuple(suites.REPRESENTATIONS)
    for rep, (group, _, _) in suites.REPRESENTATIONS.items():
        lam = (1, 0) if rep == "schur" else None
        assert suites.character_from_params(rep, 2, lam).group is group


def _command_flags():
    return {name: sorted(action.option_strings[0] for action in actions)
            for name, actions in _command_options().items()}


def test_command_flags():
    # every flag added to or removed from a command or a suite shows up here
    payload = ["--field", "--group", "--matrix", "--out", "--p", "--point"]
    character = ["--lambda", "--n", "--rep"]
    assert _command_flags() == {
        "stabilize": payload,
        "boundary-stabilize": payload,
        "verify": sorted(["--suite", "--seed", "--out", "--field", "--p", "--count",
                          "--matrices", "--points", "--samples", *character]),
        "fan": sorted(["--out", *character]),
        "schur": ["--lambda", "--out", "--z"],
        "hypersurface": sorted(["--out", "--p", "--sample", "--seed", *character]),
        "plot": sorted(["--out", "--p", "--sample", "--seed", "--walls", *character]),
    }
    assert {suite: sorted(reads) for suite, (reads, _) in cli._SUITES.items()} == {
        "semiring": ["count", "field", "p"],
        "stabilizer": ["count", "field", "matrices", "n", "p", "points"],
        "parahoric": ["count", "field", "n", "p"],
        "sp": ["count", "field", "n", "p"],
        "fans": ["lam", "n", "rep", "samples"],
        "hypersurface": ["lam", "n", "p", "rep", "samples"],
        "schur": ["count"],
        "boundary": ["count", "field", "n", "p"],
        "sp-boundary": ["count", "field", "p"],
    }


#: A value that verify's parser takes for each flag a suite may read.
_VERIFY_VALUES = {"field": "fpt", "p": "3", "n": "2", "count": "1", "matrices": "1",
                  "points": "1", "samples": "1", "rep": "identity", "lam": "1"}


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_verify_suites_refuse_every_flag_they_do_not_read(capsys, suite):
    # without --seed, a flag the suite reads gets as far as the seed check
    reads = cli._SUITES[suite][0]
    for name, value in _VERIFY_VALUES.items():
        flag = "--lambda" if name == "lam" else f"--{name}"
        code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, value)
        assert (code, out) == (2, "")
        assert err == ("error: --seed is required for randomized runs\n" if name in reads
                       else f"error: --suite {suite} does not read {flag}\n")


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tropstab")


def _values(valid, invalid=()):
    """One of the valid values, or one time in eight an invalid one."""
    return st.integers(0, 7 if invalid else 0).flatmap(
        lambda i: st.sampled_from(valid if i or not invalid else invalid))


#: Values for every flag of any command: small ranks, counts and partitions,
#: a few refused forms among them.
_FLAG_VALUES = {
    "--field": _values(("qp", "fpt"), ("zz",)),
    "--p": _values(("2", "3", "5"), ("4", "1", "-3", "x")),
    "--group": _values(("sln", "sp2n")),
    "--seed": _values(("0", "7", "-1"), ("x",)),
    "--matrix": _values(('[["1","1"],["0","1"]]', '[["1","0"],["0","1"]]', _SP4,
                         '[[["1","1"],["0","1"]],[["1","0"],["-1","1"]]]'),
                        ('[["2","0"],["0","1"]]', "[[1]]", "x")),
    "--point": _values(('["0","0"]', '["1/2","-inf"]', '["0"]', '["0","1","-inf","-inf"]'),
                       ('["-inf","-inf"]', "[]")),
    "--suite": _values(sorted(cli._SUITES), ("boundary-sp",)),
    "--n": _values(("1", "2", "3", "4"), ("-1", "0", "x")),
    "--rep": _values(("identity", "sp", "schur"), ("adjoint",)),
    "--lambda": _values(("1", "2,1", "2,1,0", "1,1,1", "3,2,1", "6", "1,1,1,1,1,1"),
                        ("2,-1", "1,2", "x")),
    "--z": _values(("1,2", "1/2,3,5", "2,2"), ("x",)),
    "--walls": st.none(),
    "--out": st.just("OUT"),  # a file in the test's own directory
    **{flag: _values(("1", "2", "3"), ("0", "-1"))
       for flag in ("--count", "--matrices", "--points", "--samples", "--sample")},
}
_COUNTS = ("--count", "--matrices", "--points", "--samples")
_mostly = st.integers(0, 3).map(bool)


@st.composite
def _command_lines(draw):
    """A command with at most one flag of any command, its required flags
    and some of its others.  verify's others are those its suite reads, with
    every count among them, since a default count runs for seconds."""
    options = _command_options()
    command = draw(st.sampled_from(sorted(options)))
    values = {flag: draw(_FLAG_VALUES[flag])
              for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=1))}
    reads = {"seed", "out"}
    if command == "verify":
        values.setdefault("--suite", draw(_FLAG_VALUES["--suite"]))
        reads |= cli._SUITES.get(values["--suite"], (set(),))[0]
    for action in options[command]:
        flag = action.option_strings[0]
        count = command == "verify" and flag in _COUNTS and action.dest in reads
        if flag not in values and (action.required or count or (
                (command != "verify" or action.dest in reads) and draw(_mostly))):
            values[flag] = draw(_FLAG_VALUES[flag])
    argv = [command]
    for flag, value in values.items():
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(_command_lines())
def test_commands_exit_cleanly_on_any_flags(tmp_path_factory, argv):
    out_path = str(tmp_path_factory.getbasetemp() / "out")
    argv = [out_path if arg == "OUT" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in ((0, 1, 2, 3) if argv[0] in ("verify", "schur", "hypersurface")
                    else (0, 2, 3))
    assert all(line.startswith("error: ") for line in err.getvalue().splitlines())
    assert (code in (0, 1)) == (err.getvalue() == "")

"""Golden digests of the property-suite reports.

Every run_* report is a deterministic function of its parameters.  The
table pins the sha256 of json.dumps(report, sort_keys=True) for small
runs over Q_2 and F_3(T), at every rank from one to three that a suite
accepts, and of the stabilizer, parahoric and symplectic suites over F_2(T)
and F_5(T), so that a change to how the suites draw or judge their cases
cannot alter a passing report unnoticed.  A second test makes a predicate
fail at a chosen case and checks what the report says about it.
"""

import hashlib
import itertools
import json

import pytest

from tropstab import suites
from tropstab.fields import FieldSpec
from tropstab.matrices import FieldMatrix
from tropstab.serialize import matrix_to_json, point_to_json

Q2 = FieldSpec("Qp", 2)
F3T = FieldSpec("FpT", 3)
F2T = FieldSpec("FpT", 2)
F5T = FieldSpec("FpT", 5)

#: (runner, positional arguments, keyword arguments, report digest)
RUNS = [
    ("run_semiring", (11,), {"count": 20, "spec": Q2},
     "6876c17f89007a176e622615788b66f89f27931a481c351fb542a3b87871cdba"),
    ("run_stabilizer", (Q2, 2, 12), {"matrices": 4, "points": 3, "closure_pairs": 4},
     "5fbaee2101a6399c448041e3c08ce1fd62c512c3794363173aa5925a72fcfebb"),
    ("run_parahoric", (Q2, 2, 13), {"count": 4},
     "455a9435ab56ae78f6761513ba785e2f679ea90d3ab0cf7f6495880acf7e9c95"),
    ("run_boundary", (Q2, 2, 14), {"count": 6},
     "2ce41bd2ca1c541af0b9a1c5837c88a9f5119c01a9069d7374b4e00d030e8f50"),
    ("run_stabilizer", (Q2, 3, 12), {"matrices": 4, "points": 3, "closure_pairs": 4},
     "f472d094b31827f196f5432efa28d35bdabb1cbcc1fbf8515925a24954f46a11"),
    ("run_parahoric", (Q2, 3, 13), {"count": 4},
     "2bf967966529bfae8fa1abf725b15bc70ea309a444bb44e393689a1dec4bd16e"),
    ("run_boundary", (Q2, 3, 14), {"count": 6},
     "8c0e900cded6932a00ae95614d76d5f0b1b7b34e3995c46e72ee28fc980d168a"),
    ("run_sp", (Q2, 1, 15), {"count": 4},
     "8ecbf3c0a6d189199f88756ff2fa9d747b728c5784739c4168a681213e2771ab"),
    ("run_sp", (Q2, 2, 15), {"count": 4},
     "ba3cb65a83437f8a006f8982887a5e129a05abda4a676614b1d3320cd047fc6a"),
    ("run_sp", (Q2, 3, 15), {"count": 4},
     "4900d8af261f91f7989b6e9da2743aa8c1267275092e1404244bfa513d460804"),
    ("run_stabilizer", (Q2, 2, 12), {"matrices": 0, "points": 0, "closure_pairs": 3},
     "bc3646848a599634a95c880e872e9871708de8b7673d0f9c9293ff9e4f028ad5"),
    ("run_sp_boundary", (Q2, 16), {"count": 3},
     "12634230b735287ee9ff4fdbab2d89c74846db9f4671d3fdce4abcc785786849"),
    ("run_semiring", (11,), {"count": 20, "spec": F3T},
     "e50763b57602a04f15284eeb4f51d53b27e8b58e1aea17225d73f44a5d1056f6"),
    ("run_stabilizer", (F3T, 2, 12), {"matrices": 4, "points": 3, "closure_pairs": 4},
     "7e1625bbb21f8e457524d93de7940dc9f876164332bd4b4155dcb6e6d87d88a3"),
    ("run_parahoric", (F3T, 2, 13), {"count": 4},
     "c9524a0657cfe3cf774659f2f5e8758eac4a005e849bc78a9c0aeefcd99f1a8c"),
    ("run_boundary", (F3T, 2, 14), {"count": 6},
     "3bde139bceb671bc044a819beaa5890d13fc8e89e7912e9ad4ae21a766389b04"),
    ("run_stabilizer", (F3T, 3, 12), {"matrices": 4, "points": 3, "closure_pairs": 4},
     "e84d93e755fc64bcc763489ccefce35b6d017ba9d06442abb63f6cd08a81a6f3"),
    ("run_parahoric", (F3T, 3, 13), {"count": 4},
     "b7418b81ac6220194209e35ac6279ea826c710606e989aa7c26196d3fd2ce9e5"),
    ("run_boundary", (F3T, 3, 14), {"count": 6},
     "33f3f21c784d2bfe4cb79ec020db152ad27fdb33fb7cdebd5e51008096171a4d"),
    ("run_sp", (F3T, 1, 15), {"count": 4},
     "76b79d8c1d4a378a90ce02fbba1c53fb0145e717fada04ebb76b8e4302053f6b"),
    ("run_sp", (F3T, 2, 15), {"count": 4},
     "eda7f47e078cd550d0003576cf92c920603a4067a3d041a1b44c8accc369a57d"),
    ("run_sp", (F3T, 3, 15), {"count": 2},
     "c65352b56dd4899e94dbec075b28a03321363228828e95d027f210c22ada3d20"),
    ("run_stabilizer", (F3T, 2, 12), {"matrices": 0, "points": 0, "closure_pairs": 3},
     "5ee875e697d074c2afd1e494ba82284b1c3b32bbc3008a8ba59131d566a82e6d"),
    ("run_sp_boundary", (F3T, 16), {"count": 3},
     "7ca7d4a8728a4febf1fbcbe62be7090005e8bc118c3267a326930ce3bafe6452"),
    ("run_fans", ('identity', 17), {"n": 2, "samples": 20, "expected_cones": 2},
     "df6c1ca8a6299a270e3335a3496e0c6311207d92ced344973c821acef65e113c"),
    ("run_hypersurface", ('identity', 2, 18), {"n": 2, "samples": 20},
     "b212b27a9040ce7d276a39a1fcb358251c1cdf1de81cbeffd96a5956d54b22db"),
    ("run_fans", ('identity', 17), {"n": 3, "samples": 20, "expected_cones": 3},
     "c0dde7835b37821706818d3c5d8f0c2b89b487973c86dd9fe90f5472b7c3ccff"),
    ("run_hypersurface", ('identity', 2, 18), {"n": 3, "samples": 20},
     "582eb6d74d919fd51b64dbd4b87c5c1af98153814362eed1f09d6de105695d8d"),
    ("run_fans", ('sp', 17), {"n": 1, "samples": 20, "expected_cones": 2},
     "9ed579383bbff5ad05c0054aa489409bf00476b8020844054d5255e60975bdca"),
    ("run_hypersurface", ('sp', 3, 18), {"n": 1, "samples": 20},
     "c8819415afc5b5d458be207542ce74348a736d1c1f025b2eaf249b8282f6fc3c"),
    ("run_fans", ('sp', 17), {"n": 2, "samples": 20, "expected_cones": 4},
     "ad87603451d81e093febd6ea56a29223f3a3023d336685dde19e3084d0252798"),
    ("run_hypersurface", ('sp', 3, 18), {"n": 2, "samples": 20},
     "49c5348fb34183ba5450c7ad187d773e5f9d095f9e69074560af9a37096e9dbf"),
    ("run_fans", ('sp', 17), {"n": 3, "samples": 20, "expected_cones": 6},
     "4162034afeaafc66c91d0e54cf185c4b932aa008051fc3f40cfb6e4f2ac1bbd0"),
    ("run_hypersurface", ('sp', 3, 18), {"n": 3, "samples": 20},
     "a8df610a49e6f9bbc0617dfd2fd06e981b1eeff35703a0daa98891a79d3cc704"),
    ("run_fans", ('schur', 17), {"lam": (2, 1, 0), "samples": 20},
     "0ebecf19894260b2093e2a7d96bf2caf5df7a50886b5748f6db1923841e25d6b"),
    ("run_hypersurface", ('schur', 2, 18), {"n": 3, "lam": (2, 1, 0), "samples": 20},
     "ac7b356c2ff98db902e167568087f3dad2230205fa2e247aaff62029173ecce9"),
    ("run_schur", (19,), {"inputs": 2, "max_size": 3, "max_rank": 3, "linear_inputs": 5},
     "04ea5fa7a8de8076ad29f0b5917a83b9c0375d61e9816583b87b1c99a44799d3"),
    ("run_stabilizer", (F2T, 2, 12), {"matrices": 4, "points": 3, "closure_pairs": 4},
     "42363bd8199f509374475262ed00c4629e622574cf455c39dfcd4e864a1ca7bc"),
    ("run_parahoric", (F2T, 2, 13), {"count": 4},
     "3cb6e92836ee9d77e270b5b6dcdb742f69d6705716b43af41b49fed6ef5fa755"),
    ("run_stabilizer", (F2T, 3, 12), {"matrices": 4, "points": 3, "closure_pairs": 4},
     "a0e97cc1f93dfd652607d45472e9dd82b1659c88111fc46ef97adfbec5b4d1ab"),
    ("run_parahoric", (F2T, 3, 13), {"count": 4},
     "5a6f3b43d770d75b6548957845f2b0dc98aec9bf61809edb2383a5880e64ee53"),
    ("run_sp", (F2T, 1, 15), {"count": 4},
     "4fd872323ad5a023d1ab7d9faf858409867b66e18d779224dcf22a2ab03497a5"),
    ("run_sp", (F2T, 2, 15), {"count": 4},
     "0167d727b78f20998001e59f675896ad27dc3ee43fa8166d2cd57bb35a9e54dd"),
    ("run_sp", (F2T, 3, 15), {"count": 2},
     "dc63dc13ca67cbba8d9f2a3ccfbd8ddfe94be9c0025d1e4fe5abb48670f42871"),
    ("run_stabilizer", (F5T, 2, 12), {"matrices": 4, "points": 3, "closure_pairs": 4},
     "09d1e05c400fef131b3af091164fd3646437797352fc8f6ceabd66f4cdd1af30"),
    ("run_parahoric", (F5T, 2, 13), {"count": 4},
     "00e5e0f6233f628ae5979018a4ebbc0452355bc4f28375efae5f1de1b4ef53a0"),
    ("run_stabilizer", (F5T, 3, 12), {"matrices": 4, "points": 3, "closure_pairs": 4},
     "02f6630fc428ac4f4e44b912f9892937dd529bd4d920cc6f653affa7bc2212eb"),
    ("run_parahoric", (F5T, 3, 13), {"count": 4},
     "6e00a9b23eeb2e53aebba279908fe4c238677f38703ca7cfe129099cc4a5261f"),
    ("run_sp", (F5T, 1, 15), {"count": 4},
     "5938b0587c57d2293e8725189f7bc58140bc57501fcc74d29ea830a60d6b0a46"),
    ("run_sp", (F5T, 2, 15), {"count": 4},
     "43f99f666e2d32fa9f3f1806d8dbd66ed3a146c6d1cd5a8a700d40357791ff6b"),
    ("run_sp", (F5T, 3, 15), {"count": 2},
     "9b4dd22dac3bdff690c9705f282a6333e0e21ea9f398fa8d9ab9a49a8287d338"),
]


def _digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("runner, args, kwargs, digest", RUNS,
                         ids=[f"{r[0]}-{i}" for i, r in enumerate(RUNS)])
def test_report_digest(runner, args, kwargs, digest):
    report = getattr(suites, runner)(*args, **kwargs)
    assert report["pass"], report
    assert _digest(report) == digest


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_runner_reports_the_failing_case(monkeypatch, k):
    seen = []
    oracle = suites.valuation_inequality_oracle

    def wrong_at_k(g, x):
        seen.append((g, x))
        answer = oracle(g, x)
        return not answer if len(seen) == k else answer

    monkeypatch.setattr(suites, "valuation_inequality_oracle", wrong_at_k)
    report = suites.run_stabilizer(Q2, 3, 7, matrices=4, points=3, closure_pairs=2)
    check = report["checks"][0]
    g, x = seen[k - 1]
    assert check["name"] == "oracle_equivalence"
    assert not check["pass"] and not report["pass"]
    assert check["cases"] == k == len(seen)
    truth = oracle(g, x)
    assert check["counterexample"] == {
        "matrix": matrix_to_json(g), "point": point_to_json(x),
        "fixed_point_test": truth, "inequality_test": not truth}
    assert report["checks"][1]["pass"]


def test_runner_draws_no_case_after_the_witness():
    drawn = []

    def cases():
        for i in range(10):
            drawn.append(i)
            yield (i,)

    check = suites._run("probe", cases(), lambda i: {"i": i} if i == 3 else None)
    assert check == {"name": "probe", "pass": False, "cases": 4,
                     "counterexample": {"i": 3}}
    assert drawn == [0, 1, 2, 3]


#: Small runs at count 1 (parahoric also 2 and 3), where a check with a
#: count // 2 or count // 4 stream would examine no case at all.
COUNT_ONE_RUNS = [
    ("run_semiring", (11,), {"count": 1, "spec": Q2}),
    ("run_stabilizer", (Q2, 2, 12), {"matrices": 1, "points": 1, "closure_pairs": 1}),
    ("run_parahoric", (Q2, 2, 13), {"count": 1}),
    ("run_parahoric", (Q2, 2, 13), {"count": 2}),
    ("run_parahoric", (F3T, 3, 13), {"count": 3}),
    ("run_sp", (Q2, 1, 15), {"count": 1}),
    ("run_sp", (F3T, 2, 15), {"count": 1}),
    ("run_boundary", (Q2, 2, 1), {"count": 1}),
    ("run_boundary", (F3T, 3, 14), {"count": 1}),
    ("run_sp_boundary", (Q2, 16), {"count": 1}),
    ("run_fans", ("identity", 17), {"n": 3, "samples": 1, "expected_cones": 3}),
    ("run_fans", ("sp", 17), {"n": 2, "samples": 1, "expected_cones": 4}),
    ("run_hypersurface", ("schur", 2, 18), {"n": 3, "lam": (2, 1, 0), "samples": 1}),
    ("run_schur", (19,), {"inputs": 1, "max_size": 2, "max_rank": 2, "linear_inputs": 1}),
]


@pytest.mark.parametrize("runner, args, kwargs", COUNT_ONE_RUNS,
                         ids=[f"{r[0]}-{i}" for i, r in enumerate(COUNT_ONE_RUNS)])
def test_every_check_examines_a_case_at_count_one(runner, args, kwargs):
    report = getattr(suites, runner)(*args, **kwargs)
    assert report["pass"], report
    assert all(c["cases"] >= 1 for c in report["checks"]), report


def _witness(report, name, keys):
    """The named check failed with a counterexample of exactly these keys,
    and the report still serialises."""
    check = next(c for c in report["checks"] if c["name"] == name)
    assert not check["pass"] and not report["pass"]
    assert set(check["counterexample"]) == keys
    json.dumps(report, sort_keys=True)
    return check


def test_closure_witness_names_a_generator_that_does_not_fix(monkeypatch):
    monkeypatch.setattr(suites, "stabilizes_tropically", lambda g, x: False)
    report = suites.run_stabilizer(Q2, 2, 12, matrices=0, points=0, closure_pairs=3)
    check = _witness(report, "group_closure", {"reason", "matrix", "point"})
    assert check["cases"] == 1


def test_closure_witness_names_both_generators(monkeypatch):
    calls = itertools.count()
    # g and h fix the point, g h does not
    monkeypatch.setattr(suites, "stabilizes_tropically", lambda g, x: next(calls) < 2)
    report = suites.run_stabilizer(Q2, 2, 12, matrices=0, points=0, closure_pairs=3)
    check = _witness(report, "group_closure", {"g", "h", "point"})
    assert check["cases"] == 1


def test_equivariance_witness(monkeypatch):
    # the image point is None, and only None is fixed
    monkeypatch.setattr(suites, "normalizer_action", lambda w, x: None)
    monkeypatch.setattr(suites, "stabilizer_membership", lambda g, x: x is None)
    report = suites.run_parahoric(Q2, 3, 13, count=2)
    check = _witness(report, "normalizer_equivariance", {"matrix", "monomial", "point"})
    assert check["cases"] == 1


def test_composition_grid_witness(monkeypatch):
    monkeypatch.setattr(suites, "composition_example_matrices",
                        lambda spec: (FieldMatrix.identity(spec, 2),) * 2)
    report = suites.run_semiring(11, count=2)
    check = _witness(report, "composition_formulas_on_grid",
                     {"point", "product", "composed"})
    assert check["cases"] == 2  # the identity agrees with the formulas at (-1, -1)


def test_face_address_witnesses(monkeypatch):
    addresses = itertools.count()
    monkeypatch.setattr(suites, "face_address", lambda x: next(addresses))
    report = suites.run_parahoric(Q2, 2, 13, count=4)
    check = _witness(report, "face_address_constancy", {"blocks", "reason"})
    assert check["cases"] == 1
    assert check["counterexample"]["blocks"] == [[0], [1]]
    monkeypatch.undo()
    first = suites.face_point(((0,), (1,)), 2)
    monkeypatch.setattr(suites, "stabilizer_membership", lambda g, x: x == first)
    report = suites.run_parahoric(Q2, 2, 13, count=4)
    check = _witness(report, "face_address_constancy", {"matrix", "first", "second"})
    assert check["cases"] == 1


def test_linear_schur_witness(monkeypatch):
    monkeypatch.setattr(suites, "schur_eval_tableaux", lambda lam, z: None)
    report = suites.run_schur(19, inputs=1, max_size=1, max_rank=1, linear_inputs=3)
    check = _witness(report, "linear_schur_is_coordinate_sum", {"values"})
    assert check["cases"] == 1

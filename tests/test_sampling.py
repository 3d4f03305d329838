"""Golden digests of the public samplers.

A passing suite report holds no matrices, so the report digests cannot
see a change to a sampler word.  This table pins, for each public sampler
and field, the sha256 of the words of a seeded stream at every rank from
one to four that the sampler accepts, together with the state of the
random generator after each rank's stream: a change to a word, or to how
many numbers the sampler draws, changes the digest.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from tropstab import sampling
from tropstab.fields import FieldSpec
from tropstab.serialize import matrix_to_json

FIELDS = {"Q2": FieldSpec("Qp", 2), "Q5": FieldSpec("Qp", 5),
          "F3T": FieldSpec("FpT", 3)}
WORDS_PER_RANK = 4


def _direction(rng, n):
    return tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))


#: sampler name -> (ranks it accepts, draw(spec, n, rng) -> FieldMatrix)
SAMPLERS = {
    "random_sl": ((2, 3, 4), sampling.random_sl),
    "random_sl_integral": ((2, 3, 4), sampling.random_sl_integral),
    "random_sl_nonintegral": ((2, 3, 4), sampling.random_sl_nonintegral),
    "random_stabilizing": ((2, 3, 4), lambda spec, n, rng: sampling.random_stabilizing(
        spec, sampling.random_point(rng, n), rng)),
    "random_monomial": ((1, 2, 3, 4), sampling.random_monomial),
    "random_torus": ((1, 2, 3, 4), sampling.random_torus),
    "random_sp": ((1, 2, 3, 4), sampling.random_sp),
    "random_sp_integral": ((1, 2, 3, 4), sampling.random_sp_integral),
    "random_sp_monomial": ((1, 2, 3, 4), sampling.random_sp_monomial),
    "random_ray_stabilizing": ((2, 3, 4), lambda spec, n, rng:
                               sampling.random_ray_stabilizing(
                                   spec, sampling.random_point(rng, n),
                                   _direction(rng, n), rng)),
    "random_sp_ray_adapted": ((1, 2, 3, 4), lambda spec, n, rng:
                              sampling.random_sp_ray_adapted(
                                  spec, n, sampling.random_point(rng, n),
                                  _direction(rng, n), rng)),
    "random_block_triangular": ((1, 2, 3, 4), lambda spec, n, rng:
                                sampling.random_block_triangular(
                                    spec, n, rng.sample(range(n), rng.randint(1, n)), rng)),
}

DIGESTS = {
    ("random_sl", "Q2"):
        "380b554e1c35e95da1f5fa72b27c452e1c38ec1837944b84de1c6537122e11f9",
    ("random_sl", "Q5"):
        "2a3338da169e85f1df0db74a43f5533c743064c1c78fe2441e2400a6d2f13cd1",
    ("random_sl", "F3T"):
        "a386c06b2d91e15cb883e5816dbbf90245630ccda6e85cb4cc0d69f7d5ce6442",
    ("random_sl_integral", "Q2"):
        "61a1b6db3b08b56184758564b8944eec7860901cf03c5f7b2536b592bf63dea4",
    ("random_sl_integral", "Q5"):
        "fcbadaae94f26b01b69e2040ea661f6ef21f8a1f3bfbde2057fc2d85663d8196",
    ("random_sl_integral", "F3T"):
        "f44b780a24179ace0bc129e34ca200c7db588b563cd09783dcd8b1cb22e8ab4d",
    ("random_sl_nonintegral", "Q2"):
        "e01e776d3b25ac116dc24e90a8acad00baa7d9976034a278e4c11031c4b2acc9",
    ("random_sl_nonintegral", "Q5"):
        "be9c98dc0251d0d33db0b0d9951c16ea44e384f57d5575349ead27f951c3c428",
    ("random_sl_nonintegral", "F3T"):
        "81c3cf7f1199a38bb20b36d49db75df0ddb0ae04dd360ad8d7f39ebc8567f4ef",
    ("random_stabilizing", "Q2"):
        "619245b0e68bcd4d9fed94c17e20bc7ee6e76c0a04979fdda8a731c29a9c5318",
    ("random_stabilizing", "Q5"):
        "48f71c7a89696c051887920e437ed9b6a204d2428509fc0b1fc3972a293410fe",
    ("random_stabilizing", "F3T"):
        "f254b6f4131ea98a3daecf9b6242bb8aa0f3b44491931ad68448fc829be1c02f",
    ("random_monomial", "Q2"):
        "114ca4ecc45c3dfbda97906251834c58ec43437ac8923190ca78f1c3bb9a87f7",
    ("random_monomial", "Q5"):
        "c49258b86b898724b3873bfcd529c92d55310ae8d87450624669db3097435b71",
    ("random_monomial", "F3T"):
        "233b2e01c65269eaa0ba2560beef8cd7a8b4f4b49dd5f944e6f41b0700f4dd4b",
    ("random_torus", "Q2"):
        "b3a7bf7409fa00e8f644766c3040601972e0c52862fbc2519b853d4db8176f18",
    ("random_torus", "Q5"):
        "7c725ae4747df2f53962003a9091152cda078fb5ed5b6601bf5406a9d83923a1",
    ("random_torus", "F3T"):
        "ac236975b2b6c6b89251f27bd112f1a1ab96a4ac9a6c1d3b5a82bc6b9a13b0de",
    ("random_sp", "Q2"):
        "71502954c387ddef050ab2451644fd3080d55818a04bbe1379d452e2adf62d51",
    ("random_sp", "Q5"):
        "dba5e182384a9ee9f544547cd10afadcb773d8d408e1aafda9da879f329473a5",
    ("random_sp", "F3T"):
        "3856e34da4f2c33a39f6b76520a297f1d95b6d58456bf5070f5e056a01458e7b",
    ("random_sp_integral", "Q2"):
        "10e3413c5e8db9e36495e247b49c4467efc796cad22160b04d844ba091fe14e4",
    ("random_sp_integral", "Q5"):
        "18fba2f842a033abbc8b4e10a6c3aaa850056ce87cc57aadb83c58e9f98c2823",
    ("random_sp_integral", "F3T"):
        "8d42f4d03abbbe49d0b173a74b16bc0c199e8bbc8b6a1fb8fd351c64d9117114",
    ("random_sp_monomial", "Q2"):
        "96b7f858f6988f9f8e96f118f9a364afd390e65aed9887bb69976b1b0298b7e4",
    ("random_sp_monomial", "Q5"):
        "96b7f858f6988f9f8e96f118f9a364afd390e65aed9887bb69976b1b0298b7e4",
    ("random_sp_monomial", "F3T"):
        "808362cb607d9a51212cc99ad1aa89c9414adc23620bbe115e0be44ce37183e3",
    ("random_ray_stabilizing", "Q2"):
        "c92f25de1e78e19d401459db718a5e989c1ffe9ac7c0152ea447648b2377a1ca",
    ("random_ray_stabilizing", "Q5"):
        "3cc29bb19e2bae46550557da744b3716dab126e392f497afb04b4ed295cd48a8",
    ("random_ray_stabilizing", "F3T"):
        "e834056e2bd2af7d2bc58654cce1e178e250a6c75358f5d52653a237a68302a8",
    ("random_sp_ray_adapted", "Q2"):
        "32f2d67df6c7c12c1977c1acb7192a89fd1077fa314aee998973e72f73ed83e5",
    ("random_sp_ray_adapted", "Q5"):
        "9da14570178e17fc4b76f2cf97307c8bfe08e4fdb2b402e9a1316e68962d2810",
    ("random_sp_ray_adapted", "F3T"):
        "81fa32e8471512c224f6c1e310a911eb794a9d37e93f96b4d8e0bf41e7cf06ea",
    ("random_block_triangular", "Q2"):
        "ce7b48c0af3a5e6ca7f9bb41653becfc186586488d95d41e9744d7cfc565285c",
    ("random_block_triangular", "Q5"):
        "e1c2cbe96e3ef461a92ec9b98981bc20a7f6c5a337579cf9bc30486abf89f699",
    ("random_block_triangular", "F3T"):
        "92f7e906b393b003ec7b6952589bfc882f9ebda1a2a19c511a417a07bf081b99",
}


def _stream_digest(spec, ranks, draw):
    h = hashlib.sha256()
    for n in ranks:
        rng = random.Random(f"sampler/{n}")
        words = [matrix_to_json(draw(spec, n, rng)) for _ in range(WORDS_PER_RANK)]
        h.update(json.dumps(words, sort_keys=True).encode("utf-8"))
        h.update(repr(rng.getstate()).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("field", FIELDS)
def test_sampler_stream_digest(field, sampler):
    ranks, draw = SAMPLERS[sampler]
    assert _stream_digest(FIELDS[field], ranks, draw) == DIGESTS[sampler, field]

import json
import subprocess
import sys
from pathlib import Path

import tropstab


def test_public_names():
    # every name added to or removed from the package shows up here
    assert sorted(tropstab.__all__) == [
        "ApartmentPoint", "BoundaryPoint", "Cone", "FaceAddress", "Fan",
        "FieldMatrix", "FieldSpec", "NEG_INF", "SpApartmentPoint",
        "WeightedCharacter", "WeylElement", "antitranspose", "apartment",
        "boundary_block_oracle", "boundary_point_from_direction",
        "compactification", "direction_for_stratum",
        "dominance_cone", "errors", "face_address",
        "feasibility", "fields", "fixes_ray", "groups", "is_symplectic", "kostka_number",
        "matrices", "normal_cone_member", "normalizer_action", "origin",
        "parahoric_oracle", "partitions_of", "polytope_vertices", "ray_membership",
        "schur_eval",
        "schur_eval_bialternant", "schur_eval_tableaux", "skeleton_member",
        "sl_identity_character", "sl_partition_character", "sp_standard_character",
        "stabilizer_membership", "stabilizes_tropically", "standard_form",
        "symplectic", "trop_add", "trop_matvec", "trop_mul",
        "tropical", "tropical_hypersurface_member", "tropicalize",
        "valuation_inequality_oracle", "weight_fan", "weights",
        "weyl_elements",
    ]
    for name in tropstab.__all__:
        getattr(tropstab, name)


#: A fresh interpreter imports the package and its command line and answers
#: one stabilizer query, then runs a suite and a fan.  type() is read, since
#: any attribute access would run a deferred module.
_COLD_START = r"""
import contextlib, importlib.util, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import tropstab, tropstab.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [tropstab.cli.main(["stabilize", "--matrix", '[["1","1"],["0","1"]]',
                                "--point", '["0","0"]'])]
lazy = [name for name in ("feasibility", "weights", "sampling", "suites", "svgplot")
        if type(sys.modules["tropstab." + name]) is importlib.util._LazyModule]
loaded = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()):
    codes += [tropstab.cli.main(["verify", "--suite", "schur", "--seed", "1", "--count", "1"]),
              tropstab.cli.main(["fan", "--rep", "identity", "--n", "3"])]
print(json.dumps({"codes": codes, "lazy": lazy, "loaded": loaded}))
"""


def test_stabilizer_query_runs_no_deferred_module():
    src = str(Path(tropstab.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", _COLD_START, src],
                          capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(done.stdout)
    assert report["lazy"] == ["feasibility", "weights", "sampling", "suites", "svgplot"]
    assert "dataclasses" not in report["loaded"]
    assert report["codes"] == [0, 0, 0]

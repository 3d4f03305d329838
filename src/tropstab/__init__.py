"""Exact max-plus linear algebra over discretely valued fields.

Tropicalized matrix actions, apartment and parahoric stabilizer
predicates, the symplectic embedding, weight polytope fans with their
tropical character hypersurfaces, and boundary stabilizers on the
compactified apartment.

A stabilizer query runs none of `feasibility`, `weights`, `sampling`,
`suites` and `svgplot`.  They are registered in `sys.modules` and on the
package at import, and the body of each runs on the first attribute access
to it, such as `weights.weight_fan` or `tropstab.weight_fan`.
"""

import importlib.util as _util
import sys as _sys

from .apartment import (ApartmentPoint, FaceAddress, SpApartmentPoint, face_address,
                        normalizer_action, origin, parahoric_oracle,
                        ray_membership, stabilizer_membership)
from .compactification import (BoundaryPoint, boundary_block_oracle,
                               boundary_point_from_direction, direction_for_stratum)
from .fields import FieldSpec
from .matrices import FieldMatrix
from .symplectic import antitranspose, is_symplectic, standard_form
from .tropical import (NEG_INF, fixes_ray, stabilizes_tropically, trop_add,
                       trop_matvec, trop_mul, tropicalize,
                       valuation_inequality_oracle)

_WEIGHT_NAMES = ("Cone", "Fan", "WeightedCharacter", "WeylElement", "dominance_cone",
                 "kostka_number", "normal_cone_member", "partitions_of", "polytope_vertices",
                 "schur_eval", "schur_eval_bialternant", "schur_eval_tableaux",
                 "skeleton_member", "sl_identity_character", "sl_partition_character",
                 "sp_standard_character", "tropical_hypersurface_member", "weight_fan",
                 "weyl_elements")


def _lazy(name):
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


feasibility, weights = _lazy("feasibility"), _lazy("weights")

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_WEIGHT_NAMES))

# registered after __all__, which has never listed them
sampling, suites, svgplot = _lazy("sampling"), _lazy("suites"), _lazy("svgplot")


def __getattr__(name):
    if name in _WEIGHT_NAMES:
        return getattr(weights, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

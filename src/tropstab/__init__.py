"""Exact max-plus linear algebra over discretely valued fields.

Tropicalized matrix actions, apartment and parahoric stabilizer
predicates, the symplectic embedding, weight polytope fans with their
tropical character hypersurfaces, and boundary stabilizers on the
compactified apartment.
"""

from .apartment import (ApartmentPoint, FaceAddress, face_address,
                        normalizer_action, origin, parahoric_oracle,
                        stabilizer_membership)
from .compactification import (BoundaryPoint, boundary_block_oracle,
                               boundary_point_from_direction, direction_for_stratum,
                               sp_boundary_point, sp_boundary_stabilizes)
from .fields import FieldSpec
from .matrices import FieldMatrix
from .symplectic import (SpApartmentPoint, antitranspose, embed_point,
                         is_symplectic, sp_fixes_ray, sp_parahoric_oracle,
                         sp_stabilizer_membership, standard_form)
from .tropical import (NEG_INF, fixes_ray, stabilizes_tropically, trop_add,
                       trop_matvec, trop_mul, tropicalize,
                       valuation_inequality_oracle)
from .weights import (Cone, Fan, WeightedCharacter, WeylElement,
                      dominance_cone, kostka_number, normal_cone_member,
                      partitions_of, polytope_vertices, schur_eval,
                      schur_eval_bialternant, schur_eval_tableaux,
                      skeleton_member, sl_identity_character,
                      sl_partition_character, sp_standard_character,
                      tropical_hypersurface_member, weight_fan,
                      weyl_elements)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

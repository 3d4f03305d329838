import tropstab


def test_public_names():
    # every name added to or removed from the package shows up here
    assert sorted(tropstab.__all__) == [
        "ApartmentPoint", "BoundaryPoint", "Cone", "FaceAddress", "Fan",
        "FieldMatrix", "FieldSpec", "NEG_INF", "SpApartmentPoint",
        "WeightedCharacter", "WeylElement", "antitranspose", "apartment",
        "boundary_block_oracle", "boundary_point_from_direction",
        "compactification", "direction_for_stratum",
        "dominance_cone", "embed_point", "errors", "face_address",
        "feasibility", "fields", "fixes_ray", "is_symplectic", "kostka_number",
        "matrices", "normal_cone_member", "normalizer_action", "origin",
        "parahoric_oracle", "partitions_of", "polytope_vertices", "schur_eval",
        "schur_eval_bialternant", "schur_eval_tableaux", "skeleton_member",
        "sl_identity_character", "sl_partition_character", "sp_boundary_point",
        "sp_boundary_stabilizes", "sp_fixes_ray", "sp_parahoric_oracle",
        "sp_stabilizer_membership", "sp_standard_character",
        "stabilizer_membership", "stabilizes_tropically", "standard_form",
        "symplectic", "trop_add", "trop_matvec", "trop_mul",
        "tropical", "tropical_hypersurface_member", "tropicalize",
        "valuation_inequality_oracle", "weight_fan", "weights",
        "weyl_elements",
    ]

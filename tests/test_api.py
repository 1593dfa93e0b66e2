from __future__ import annotations

import rookposet

PUBLIC_NAMES = {
    "AmbientError",
    "AttackError",
    "CapError",
    "CoverMove",
    "DEFAULT_CAP",
    "GradedReport",
    "OrthogonalityError",
    "ParityError",
    "Permutation",
    "Poset",
    "RankMatrix",
    "RookError",
    "Root",
    "RookPlacement",
    "bruhat_leq",
    "brute_force_covers",
    "build_poset",
    "check_graded",
    "count_placements",
    "enumerate_placements",
    "export_dot",
    "inversion_length",
    "involution_of",
    "kerov_map",
    "leq_placement",
    "minimal_roots",
    "moves_general",
    "moves_orthogonal",
    "parse_placement",
    "placement_from_json",
    "poset_to_json",
    "predecessors_general",
    "predecessors_orthogonal",
    "rank_general",
    "rank_matrix",
    "rank_orthogonal",
    "render_board",
    "root_leq",
    "validate_placement",
}


def test_public_names_are_pinned():
    assert len(rookposet.__all__) == len(PUBLIC_NAMES) == 39
    assert set(rookposet.__all__) == PUBLIC_NAMES
    assert all(hasattr(rookposet, name) for name in PUBLIC_NAMES)

"""Posets of non-attacking rook placements on the staircase board."""

from .covers import (
    CoverMove,
    moves_general,
    moves_orthogonal,
    predecessors_general,
    predecessors_orthogonal,
)
from .errors import (
    AmbientError,
    AttackError,
    CapError,
    OrthogonalityError,
    ParityError,
    RookError,
)
from .kerov import (
    kerov_map,
    rank_general,
    rank_orthogonal,
)
from .order import (
    Permutation,
    RankMatrix,
    bruhat_leq,
    inversion_length,
    involution_of,
    leq_placement,
    minimal_roots,
    rank_matrix,
    root_leq,
)
from .placements import (
    DEFAULT_CAP,
    Root,
    RookPlacement,
    count_placements,
    enumerate_placements,
    parse_placement,
    placement_from_json,
    render_board,
    validate_placement,
)
from .poset import (
    GradedReport,
    Poset,
    brute_force_covers,
    build_poset,
    check_graded,
    export_dot,
    poset_to_json,
)

__version__ = "0.1.0"

__all__ = [
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
]

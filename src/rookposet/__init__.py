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
    RookError,
)
from .kerov import (
    kerov_map,
    rank_general,
    rank_orthogonal,
)
from .order import (
    Permutation,
    involution_of,
    leq_placement,
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
    "Permutation",
    "Poset",
    "RookError",
    "Root",
    "RookPlacement",
    "build_poset",
    "check_graded",
    "count_placements",
    "enumerate_placements",
    "export_dot",
    "involution_of",
    "kerov_map",
    "leq_placement",
    "moves_general",
    "moves_orthogonal",
    "parse_placement",
    "placement_from_json",
    "poset_to_json",
    "predecessors_general",
    "predecessors_orthogonal",
    "rank_general",
    "rank_orthogonal",
    "render_board",
    "validate_placement",
]

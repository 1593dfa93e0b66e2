"""The Kerov doubling map and the rank functions it induces.

A placement on the board of size n (n >= 2) maps to an orthogonal
placement on the board of size 2n - 2 by sending each root (i, j) to
(2i - 2, 2j - 1): rows become even, columns odd, so no endpoint clash
is possible.  The map is an order embedding that also matches cover
relations, which is what makes the rank functions below well-defined.
"""

from __future__ import annotations

from .errors import ParityError, RookError
from .order import inversion_length, involution_of
from .placements import Root, RookPlacement, validate_placement


def kerov_map(placement: RookPlacement) -> RookPlacement:
    """Double the board: root (i, j) goes to (2i - 2, 2j - 1)."""
    if placement.n < 2:
        raise RookError(f"board size must be at least 2, got {placement.n}")
    return validate_placement(
        [Root(2 * r.row - 2, 2 * r.col - 1) for r in placement.roots],
        2 * placement.n - 2,
    )


def _exact_half(total: int) -> int:
    if total % 2:
        raise ParityError(f"{total} should be even; a length or size is wrong")
    return total // 2


def rank_orthogonal(placement: RookPlacement) -> int:
    """Half of (inversions of the involution + number of rooks)."""
    w = involution_of(placement)
    return _exact_half(inversion_length(w) + placement.size)


def rank_general(placement: RookPlacement) -> int:
    """Rank through the doubling map: half of (inversions of the
    involution of the image + number of rooks)."""
    image = kerov_map(placement)
    w = involution_of(image)
    return _exact_half(inversion_length(w) + placement.size)

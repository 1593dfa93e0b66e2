"""The Kerov doubling map and the rank functions it induces.

A placement on the board of size n (n >= 2) maps to an orthogonal
placement on the board of size 2n - 2 by sending each root (i, j) to
(2i - 2, 2j - 1): rows become even, columns odd, so no endpoint clash
is possible.  The map is an order embedding that also matches cover
relations, which is what makes the rank functions below well-defined.

The orthogonal rank is half of inv(w) + k for the involution w of k
disjoint transpositions (c, r), c < r.  Following Incitti (J. Algebraic
Combin. 20, 2004), inv(w) is read off the transpositions alone: each one
costs 2(r - c) - 1 inversions on its own, nested and disjoint pairs add
nothing, and each crossing pair c1 < c2 < r1 < r2 takes two back.  So a
rank costs O(k^2), whatever the board size; order.inversion_length of
order.involution_of is the dense route that the tests compare it with.
"""

from __future__ import annotations

from .errors import OrthogonalityError, ParityError, RookError
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
    """Half of (inversions of the involution + number of rooks), with the
    inversions counted from the transpositions by the crossing form."""
    if not placement.is_orthogonal():
        raise OrthogonalityError(f"placement {placement.to_text()!r} is not orthogonal")
    arcs = [(r.col, r.row) for r in placement.roots]
    crossings = sum(1 for c1, r1 in arcs for c2, r2 in arcs if c1 < c2 < r1 < r2)
    inversions = sum(2 * (r - c) - 1 for c, r in arcs) - 2 * crossings
    return _exact_half(inversions + placement.size)


def rank_general(placement: RookPlacement) -> int:
    """Rank through the doubling map: the orthogonal rank of the image,
    which has as many rooks as the placement.  The empty placement is
    the minimum, of rank 0, on every board (n = 1 included)."""
    if not placement.roots:
        return 0
    return rank_orthogonal(kerov_map(placement))

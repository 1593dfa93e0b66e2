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

ranks_of takes the same count over a whole list of placements at once.
From the padded (m, k) root arrays (placements.root_arrays) it builds
the arcs c = col, r = row, or for the general kind those of the Kerov
image, c = 2 col - 1 and r = 2 row - 2, and counts the crossing pairs
of every placement in one (m, k, k) comparison.  The padding, row 0 and
column n + 1, gives arcs that cross nothing, and the per-arc sum skips
it.  rank_general and rank_orthogonal, one placement at a time, are the
oracles the tests compare it with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import OrthogonalityError, ParityError, RookError
from .placements import Kind, Root, RookPlacement, _placement, root_arrays


def kerov_map(placement: RookPlacement) -> RookPlacement:
    """Double the board: root (i, j) goes to (2i - 2, 2j - 1)."""
    if _placement(placement).n < 2:
        raise RookError(f"board size must be at least 2, got {placement.n}")
    image = tuple([Root(2 * i - 2, 2 * j - 1) for i, j in placement.roots])
    return RookPlacement(2 * placement.n - 2, image)


def _exact_half(total: int) -> int:
    if total % 2:
        raise ParityError(f"{total} should be even; a length or size is wrong")
    return total // 2


def rank_orthogonal(placement: RookPlacement) -> int:
    """Half of (inversions of the involution + number of rooks), with the
    inversions counted from the transpositions by the crossing form."""
    if not _placement(placement).is_orthogonal():
        raise OrthogonalityError(f"placement {placement.to_text()!r} is not orthogonal")
    arcs = [(r[1], r[0]) for r in placement.roots]
    crossings = sum(1 for c1, r1 in arcs for c2, r2 in arcs if c1 < c2 < r1 < r2)
    inversions = sum(2 * (r - c) - 1 for c, r in arcs) - 2 * crossings
    return _exact_half(inversions + placement.size)


def rank_general(placement: RookPlacement) -> int:
    """Rank through the doubling map: the orthogonal rank of the image,
    which has as many rooks as the placement.  The empty placement is
    the minimum, of rank 0, on every board (n = 1 included)."""
    if not _placement(placement).roots:
        return 0
    return rank_orthogonal(kerov_map(placement))


def ranks_of(placements: Sequence[RookPlacement], kind: Kind) -> list[int]:
    """rank_orthogonal (kind "orthogonal") or rank_general (kind "general")
    of each placement, which must all live on one board, with the errors
    those raise: OrthogonalityError on the first placement that is not
    orthogonal, ParityError on an odd total; RookError on another kind."""
    rows, cols = root_arrays(placements)
    if kind == "orthogonal":
        # padding never meets: row 0 is no column and column n + 1 no row
        clash = (rows[:, :, None] == cols[:, None, :]).any(axis=(1, 2))
        if clash.any():
            bad = placements[int(clash.argmax())]
            raise OrthogonalityError(f"placement {bad.to_text()!r} is not orthogonal")
        c, r = cols, rows
    elif kind == "general":
        c, r = 2 * cols - 1, 2 * rows - 2
    else:
        raise RookError(f"unknown kind {kind!r}")
    real = rows > 0
    size = real.sum(axis=1)
    crossings = (
        (c[:, :, None] < c[:, None, :])
        & (c[:, None, :] < r[:, :, None])
        & (r[:, :, None] < r[:, None, :])
    ).sum(axis=(1, 2))
    inversions = 2 * np.where(real, r - c, 0).sum(axis=1) - size - 2 * crossings
    total = inversions + size
    odd = total % 2 == 1
    if odd.any():
        _exact_half(int(total[odd.argmax()]))
    return (total // 2).tolist()

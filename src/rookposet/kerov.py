"""The Kerov doubling map and the rank functions it induces.

A placement on the board of size n (n >= 2) maps to an orthogonal
placement on the board of size 2n - 2 by sending each root (i, j) to
(2i - 2, 2j - 1): rows become even, columns odd, so no endpoint clash
is possible.  The map is an order embedding that also matches cover
relations, which is what makes the rank functions below well-defined.

Both ranks are read off two statistics of the rooks (i, j) alone: the
arc length L = sum of i - j and the crossings X, the pairs of rooks with
j1 < j2 < i1 < i2.  The orthogonal rank is half of inv(w) + k for the
involution w of the k transpositions (j, i); following Incitti (J.
Algebraic Combin. 20, 2004), each costs 2(i - j) - 1 inversions, nested
and disjoint pairs add nothing and each crossing pair takes two back, so
it is L - X.  The general rank is that of the Kerov image, whose arcs are
2(i - j) - 1 long and cross exactly when the rooks do (for integers,
2 j2 - 1 < 2 i1 - 2 iff j2 < i1): 2L - k - X.  The roots are sorted by
row, so a crosses a later b iff j_a < j_b < i_a, and i_a <= j_b implies
a < b and j_a < j_b: X = #{a < b : j_a < j_b} - #{(a, b) : i_a <= j_b},
two counts of a bisect per root, so a rank takes O(k log k) comparisons
on any board; order.inversion_length of order.involution_of is the dense
route the tests compare it with.

_ranks takes L and X of a whole list at once from the padded (m, k)
root arrays (placements.root_arrays) that a materialized poset builds its
relation from.  The crossings are counted over the k(k - 1)/2 index
pairs a < b, each an (m,) comparison: the roots are sorted by row, so
only a root a can cross a later root b.  The padding, row 0 and column
n + 1, sits last and crosses nothing, and the length sum skips it.
rank_general and rank_orthogonal, one placement at a time, are the
oracles the tests compare it with.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

import numpy as np

from .errors import RookError
from .placements import Kind, Root, RookPlacement, _orthogonal, _placement


def kerov_map(placement: RookPlacement) -> RookPlacement:
    """Double the board: root (i, j) goes to (2i - 2, 2j - 1)."""
    if _placement(placement).n < 2:
        raise RookError(f"board size must be at least 2, got {placement.n}")
    image = tuple([Root(2 * i - 2, 2 * j - 1) for i, j in placement.roots])
    return RookPlacement(2 * placement.n - 2, image)


def _length_and_crossings(placement: RookPlacement, orthogonal: bool) -> tuple[int, int]:
    """L and X of a placement's rooks; they must be orthogonal if `orthogonal` is."""
    rows, cols = tuple(zip(*_placement(placement).roots)) or ((), ())
    if orthogonal and not set(rows).isdisjoint(cols):
        _orthogonal(placement)
    ascents, aligned, seen = 0, 0, []  # seen: the earlier columns, sorted
    for j in cols:
        ascents += bisect_left(seen, j)
        insort(seen, j)
        aligned += bisect_right(rows, j)
    return sum(rows) - sum(cols), ascents - aligned


def rank_orthogonal(placement: RookPlacement) -> int:
    """L - X: arc length minus crossings."""
    length, crossings = _length_and_crossings(placement, orthogonal=True)
    return length - crossings


def rank_general(placement: RookPlacement) -> int:
    """2L - k - X: the orthogonal rank of the Kerov image, on every board
    (n = 1 included)."""
    length, crossings = _length_and_crossings(placement, orthogonal=False)
    return 2 * length - placement.size - crossings


def _ranks(rows: np.ndarray, cols: np.ndarray, kind: Kind) -> list[int]:
    """rank_orthogonal (kind "orthogonal") or rank_general (kind "general")
    of each placement whose padded root arrays (placements.root_arrays)
    are rows and cols; for kind "orthogonal" they must be orthogonal, as
    poset.Poset checks them."""
    real = rows > 0
    length = np.where(real, rows - cols, 0).sum(axis=1)
    # the rows of each placement are sorted, so only a root a before a
    # root b can cross it: j_a < j_b < i_a (and i_a < i_b holds)
    crossings = np.zeros(len(rows), dtype=np.intp)
    for b in range(rows.shape[1]):
        for a in range(b):
            crossings += (cols[:, a] < cols[:, b]) & (cols[:, b] < rows[:, a])
    if kind == "general":  # the arc length of the Kerov image
        length = 2 * length - real.sum(axis=1)
    return (length - crossings).tolist()

"""The dominance order on rook placements and its permutation mirror.

A placement D is compared through its counting matrix: entry (i, j)
with i > j counts the rooks of D weakly south-west of the cell, i.e.
those in columns <= j and rows >= i.  D1 <= D2 holds exactly when the
matrix of D1 is entrywise dominated by the matrix of D2.  On the roots
themselves, (a, b) <= (c, d) means c >= a and d <= b.  dominance_matrix
compares all pairs of a list of placements at once.

Orthogonal placements are involutions in disguise: involution_of turns
one into the product of its transpositions, and bruhat_leq compares
permutations in Bruhat order via the standard dominance criterion on
prefix rank tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbientError, OrthogonalityError, RookError
from .placements import Root, RookPlacement


@dataclass(frozen=True)
class RankMatrix:
    """Counting matrix of a placement; entries above the diagonal are zero."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        """1-based lookup."""
        return self.entries[i - 1][j - 1]

    def __le__(self, other: "RankMatrix") -> bool:
        if self.n != other.n:
            raise AmbientError(f"cannot compare boards of sizes {self.n} and {other.n}")
        return all(
            a <= b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def rank_matrix(placement: RookPlacement) -> RankMatrix:
    """Counting matrix of the placement (zero on and above the diagonal)."""
    n = placement.n
    rows = []
    for i in range(1, n + 1):
        row = [0] * n
        for j in range(1, i):
            row[j - 1] = sum(1 for r in placement.roots if r.col <= j and r.row >= i)
        rows.append(tuple(row))
    return RankMatrix(n, tuple(rows))


def leq_placement(d1: RookPlacement, d2: RookPlacement) -> bool:
    """Dominance comparison; placements must live on boards of equal size."""
    if d1.n != d2.n:
        raise AmbientError(f"cannot compare boards of sizes {d1.n} and {d2.n}")
    return rank_matrix(d1) <= rank_matrix(d2)


# Byte budget of the comparison array in dominance_matrix, which sets how
# many rows of the result one step fills.  The step's block of the result
# and this array then fit in a 2 MB L2 cache together; 4 MB made general
# n=9 1.5x slower.
_BLOCK_BYTES = 1 << 19


def dominance_matrix(placements: Sequence[RookPlacement]) -> np.ndarray:
    """m x m bool array whose entry (a, b) is placements[a] <= placements[b].

    All placements must live on one board.  The result is filled a block
    of rows at a time, one below-diagonal counting-matrix entry at a
    time, so no other array grows with m squared.
    """
    m = len(placements)
    # The below-diagonal counting-matrix entries, one row per entry; each
    # is at most n // 2.
    entries = np.array(
        [
            [v for i, row in enumerate(rank_matrix(p).entries) for v in row[:i]]
            for p in placements
        ],
        dtype=np.int8,
    ).T.copy()
    leq = np.ones((m, m), dtype=bool)
    rows = max(1, _BLOCK_BYTES // m)
    scratch = np.empty((min(rows, m), m), dtype=bool)
    for a0 in range(0, m, rows):
        block = leq[a0 : a0 + rows]
        tmp = scratch[: len(block)]
        for e in entries:
            np.less_equal(e[a0 : a0 + rows, None], e, out=tmp)
            block &= tmp
    return leq


def root_leq(a: Root, b: Root) -> bool:
    """(a1, a2) <= (b1, b2) iff b1 >= a1 and b2 <= a2."""
    return b.row >= a.row and b.col <= a.col


def minimal_roots(placement: RookPlacement) -> frozenset[Root]:
    """Roots of the placement with no other root of it below them."""
    return frozenset(
        a
        for a in placement.roots
        if not any(b != a and root_leq(b, a) for b in placement.roots)
    )


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise RookError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_involution(self) -> bool:
        return all(self.images[v - 1] == i for i, v in enumerate(self.images, 1))

    def to_json(self) -> list[int]:
        return list(self.images)


def involution_of(placement: RookPlacement) -> Permutation:
    """Product of the transpositions (row col) of an orthogonal placement."""
    if not placement.is_orthogonal():
        raise OrthogonalityError(
            f"placement {placement.to_text()!r} is not orthogonal"
        )
    images = list(range(1, placement.n + 1))
    for r in placement.roots:
        images[r.row - 1] = r.col
        images[r.col - 1] = r.row
    return Permutation(tuple(images))


def inversion_length(w: Permutation) -> int:
    """Number of inversions, i.e. pairs a < b with w(a) > w(b)."""
    img = w.images
    return sum(
        1 for a in range(len(img)) for b in range(a + 1, len(img)) if img[a] > img[b]
    )


def _prefix_rank_table(w: Permutation) -> list[list[int]]:
    # table[i][j] = #{k <= i : w(k) <= j}, 0-padded borders
    n = w.n
    table = [[0] * (n + 1)]
    for wi in w.images:
        prev = table[-1]
        table.append([prev[j] + (1 if wi <= j else 0) for j in range(n + 1)])
    return table


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat order by dominance: u <= v iff every prefix count of u
    is at least the matching prefix count of v."""
    if u.n != v.n:
        raise AmbientError(f"cannot compare permutations of sizes {u.n} and {v.n}")
    tu, tv = _prefix_rank_table(u), _prefix_rank_table(v)
    return all(
        tu[i][j] >= tv[i][j] for i in range(1, u.n + 1) for j in range(1, u.n + 1)
    )

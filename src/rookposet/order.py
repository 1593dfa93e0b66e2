"""The dominance order on rook placements and its permutation mirror.

A placement D is compared through its counting matrix: entry (i, j)
with i > j counts the rooks of D weakly south-west of the cell, i.e.
those in columns <= j and rows >= i.  D1 <= D2 holds exactly when the
matrix of D1 is entrywise dominated by the matrix of D2.  dominance_matrix
compares all pairs of a list of placements at once.  It reads the counts
of all m placements from their padded root arrays
(placements.root_arrays), one cell (i, j) at a time, as the number of
rooks t with col_t <= j and row_t >= i, in one numpy pass over the
m x k arrays per cell; rank_matrix, one placement at a time in pure
Python, is the dense oracle that the tests compare those counts with.

leq_placement compares two placements with k rooks between them on O(k^2)
cells, not all n(n - 1)/2: like Fulton's essential set (Duke Math. J. 65,
1992), a counting matrix only changes value where a rook's row or column
starts.  Rows i in {2} and {row + 1 of each rook} and columns j in {1}
and {col of each rook} cut the board into rectangles on which both
matrices are constant, and each is read at the cell (max(i, j + 1), j),
skipped when that row is past n.  The max matters: a rectangle whose low
corner (i, j) lies on or above the diagonal can still hold cells below
it, and (j + 1, j) is the first of them; '3,2' against the empty
placement on n = 5 differs only in such a rectangle.  If the rectangle
holds none, that cell lies in another one, so every cell read is a real
constraint.  rank_matrix and RankMatrix.__le__ stay as the dense route.

Orthogonal placements are involutions in disguise: involution_of turns
one into the product of its transpositions, and bruhat_matrix compares
permutations in Bruhat order by prefix counts (Bjorner-Brenti 2.1), with
no code shared with dominance_matrix, so that each one checks the other.
"""

from __future__ import annotations

import mmap
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbientError, OrthogonalityError, RookError
from .placements import RookPlacement, root_arrays


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
    """Dominance comparison; placements must live on boards of equal size.

    Reads only the O(k^2) cells of the sparse-cell rule (module docstring)
    for k rooks in all, at O(log k) each.
    """
    if d1.n != d2.n:
        raise AmbientError(f"cannot compare boards of sizes {d1.n} and {d2.n}")
    n = d1.n
    roots = d1.roots + d2.roots
    cand_rows = sorted({r.row + 1 for r in roots if r.row < n})
    entering: dict[int, tuple[list[int], list[int]]] = {1: ([], [])}
    for side, d in enumerate((d1, d2)):
        for r in d.roots:
            entering.setdefault(r.col, ([], []))[side].append(r.row)
    # rows of the rooks in columns <= j, sorted, for d1 and d2
    rows1: list[int] = []
    rows2: list[int] = []
    for j in sorted(entering):
        new1, new2 = entering[j]
        for row in new1:
            insort(rows1, row)
        for row in new2:
            insort(rows2, row)
        # row 2 and the candidate rows at or above the diagonal move to j + 1
        for i in [j + 1] + cand_rows[bisect_right(cand_rows, j + 1) :]:
            if len(rows1) - bisect_left(rows1, i) > len(rows2) - bisect_left(rows2, i):
                return False
    return True


# Byte budget of the comparison array in dominance_matrix, which sets how
# many rows of the result one step fills.  The step's block of the result
# and this array then fit in a 2 MB L2 cache together; 4 MB made general
# n=9 1.5x slower.
_BLOCK_BYTES = 1 << 19


def _mapped(rows: int, cols: int, dtype: type) -> np.ndarray:
    """A zero-filled rows x cols array in an anonymous mapping of its own.

    Large arrays that are built again and again go there rather than on
    the C heap: freeing one makes glibc raise its mmap threshold, so the
    next of that size lands on the heap.  It then only fits if no small
    block has landed in the hole the last one left, and the heap keeps up
    to twice the threshold free at its top, so peak and resting RSS of
    repeated builds would grow.  The mapping is unmapped when the array
    dies; tracemalloc does not see it.
    """
    size = rows * cols * np.dtype(dtype).itemsize
    flat = np.frombuffer(mmap.mmap(-1, max(size, 1)), dtype=dtype, count=rows * cols)
    return flat.reshape(rows, cols)


def counting_entries(placements: Sequence[RookPlacement]) -> np.ndarray:
    """The below-diagonal counting-matrix entries of each placement as an
    int8 (n(n - 1)/2 x m) array, one row per cell (i, j), i > j, in
    row-major order.  Each entry is at most n // 2.  All placements must
    live on one board (AmbientError otherwise)."""
    n = placements[0].n if placements else 0
    rows, cols = root_arrays(placements)
    entries = np.empty((n * (n - 1) // 2, len(placements)), dtype=np.int8)
    e = 0
    for i in range(2, n + 1):
        below = rows >= i
        for j in range(1, i):
            np.sum(below & (cols <= j), axis=1, dtype=np.int8, out=entries[e])
            e += 1
    return entries


def dominance_matrix(placements: Sequence[RookPlacement]) -> np.ndarray:
    """m x m bool array whose entry (a, b) is placements[a] <= placements[b].

    All placements must live on one board (AmbientError otherwise).  The
    result is filled a block of rows at a time, one below-diagonal
    counting-matrix entry at a time, so no other array grows with m
    squared.
    """
    m = len(placements)
    entries = counting_entries(placements)
    leq = _mapped(m, m, bool)
    leq[...] = True
    rows = max(1, _BLOCK_BYTES // max(m, 1))
    scratch = np.empty((min(rows, m), m), dtype=bool)
    for a0 in range(0, m, rows):
        block = leq[a0 : a0 + rows]
        tmp = scratch[: len(block)]
        for e in entries:
            np.less_equal(e[a0 : a0 + rows, None], e, out=tmp)
            block &= tmp
    return leq


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


def bruhat_matrix(perms: Sequence[Permutation]) -> np.ndarray:
    """m x m bool array whose entry (a, b) is perms[a] <= perms[b] in Bruhat
    order, for permutations of one size: every prefix count
    #{k <= i : w(k) <= j} of perms[a] is at least that of perms[b]."""
    m, n = len(perms), perms[0].n if perms else 0
    ones = np.array([w.images for w in perms]).reshape(m, n, 1) == np.arange(1, n + 1)
    # a bool cumsum counts in the default integer type, which holds any n
    tables = ones.cumsum(axis=1).cumsum(axis=2).reshape(m, n * n)
    leq = np.empty((m, m), dtype=bool)
    for a in range(m):
        np.all(tables[a] >= tables, axis=1, out=leq[a])
    return leq


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat order by dominance: u <= v iff every prefix count of u
    is at least the matching prefix count of v."""
    if u.n != v.n:
        raise AmbientError(f"cannot compare permutations of sizes {u.n} and {v.n}")
    return bool(bruhat_matrix((u, v))[0, 1])

"""The dominance order on rook placements and its permutation mirror.

A placement D is compared through its counting matrix: entry (i, j)
with i > j counts the rooks of D weakly south-west of the cell, i.e.
those in columns <= j and rows >= i.  D1 <= D2 holds exactly when the
matrix of D1 is entrywise dominated by the matrix of D2.
counting_entries reads the counts of all m placements from their padded
root arrays (placements.root_arrays), one cell (i, j) at a time, as the
number of rooks t with col_t <= j and row_t >= i; rank_matrix, one
placement at a time in pure Python, is the dense oracle for them.
packed_dominance turns them into the relation as packed bit rows, the
one form that the materialized poset keeps and dominance_matrix unpacks.

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

from .errors import AmbientError, CapError, OrthogonalityError, RookError
from .placements import RookPlacement, _placement, root_arrays


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
    if _placement(d1).n != _placement(d2).n:
        raise AmbientError(f"cannot compare boards of sizes {d1.n} and {d2.n}")
    n = d1.n
    roots = d1.roots + d2.roots
    cand_rows = sorted({r[0] + 1 for r in roots if r[0] < n})
    entering: dict[int, tuple[list[int], list[int]]] = {1: ([], [])}
    for side, d in enumerate((d1, d2)):
        for r in d.roots:
            entering.setdefault(r[1], ([], []))[side].append(r[0])
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


# Byte budget of the row blocks that one step of packed_dominance or of
# the cover scan in poset.Poset works on: they then fit in a 2 MB L2 cache.
_BLOCK_BYTES = 1 << 19


def _mapped(rows: int, cols: int, dtype: type) -> np.ndarray:
    """A zero-filled rows x cols array in an anonymous mapping of its own.

    Large arrays that are built again and again go there rather than on
    the C heap: freeing one makes glibc raise its mmap threshold, so the
    next of that size lands on the heap.  It then only fits if no small
    block has landed in the hole the last one left, and the heap keeps up
    to twice the threshold free at its top, so peak and resting RSS of
    repeated builds would grow.  The mapping is unmapped when the array
    dies; tracemalloc does not see it.  CapError when the OS refuses it.
    """
    size = rows * cols * np.dtype(dtype).itemsize
    try:
        buffer = mmap.mmap(-1, max(size, 1))
    except OSError as exc:
        raise CapError(f"cannot map {rows} rows x {cols} words ({size} bytes): {exc.strerror}")
    flat = np.frombuffer(buffer, dtype=dtype, count=rows * cols)
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


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Bool (k x m) rows as k rows of ceil(m / 64) uint64 words: bit b is
    bit b % 64 of word b // 64, and the bits past m are zero."""
    k, m = rows.shape
    words = np.zeros((k, -(-m // 64)), dtype=np.uint64)
    words.view(np.uint8)[:, : -(-m // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return words


def unpack_rows(words: np.ndarray, m: int) -> np.ndarray:
    """The first m bits of each row of pack_rows's words, as uint8 0/1."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=m, bitorder="little")


def packed_dominance(
    placements: Sequence[RookPlacement],
) -> tuple[np.ndarray, np.ndarray]:
    """The dominance order of the placements as (bits, columns): row a of
    `bits` packs (pack_rows) {b : placements[a] <= placements[b]}, with bit
    k for placements[columns[k]].  All placements must live on one board
    (AmbientError otherwise).  `columns` sorts them stably by the sum of
    their counting entries E, a linear extension: t < d makes each entry
    of t at most that of d and one smaller.  As in a range-encoded bitmap
    index (Chan and Ioannidis, SIGMOD 1999), the set {b : E[e, b] >= v}
    is packed once per cell e and value v, and row a is the AND over the
    cells of the set at v = E[e, a], filled a block of rows at a time in
    an anonymous mapping of m^2 / 8 bytes.
    """
    m = len(placements)
    entries = counting_entries(placements)
    columns = np.argsort(entries.sum(axis=0), kind="stable")
    # an all-zero cell first: its v = 0 set (no pad bits) seeds each row
    entries = np.vstack([np.zeros((1, m), dtype=np.int8), entries])
    values = np.arange(entries.max(initial=0) + 1)[:, None]
    sets = np.stack([pack_rows(e[columns] >= values) for e in entries])
    width = sets.shape[2]
    bits = _mapped(m, width, np.uint64)
    rows = max(1, _BLOCK_BYTES // max(16 * width, 1))
    scratch = np.empty((min(rows, m), width), dtype=np.uint64)
    for a0 in range(0, m, rows):
        block = bits[a0 : a0 + rows]
        tmp = scratch[: len(block)]
        block[...] = sets[0, 0]
        for cell, at in zip(sets[1:], entries[1:, a0 : a0 + rows]):
            np.take(cell, at, axis=0, out=tmp, mode="clip")
            block &= tmp
    return bits, columns


def dominance_matrix(placements: Sequence[RookPlacement]) -> np.ndarray:
    """m x m bool array whose entry (a, b) is placements[a] <= placements[b]:
    packed_dominance unpacked, with its columns back in index order."""
    bits, columns = packed_dominance(placements)
    return unpack_rows(bits, len(columns))[:, np.argsort(columns)].view(bool)


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
    if not _placement(placement).is_orthogonal():
        raise OrthogonalityError(f"placement {placement.to_text()!r} is not orthogonal")
    images = list(range(1, placement.n + 1))
    for i, j in placement.roots:
        images[i - 1], images[j - 1] = j, i
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
    # a prefix count is at most n, so the smallest type that holds n will
    # do, and the m comparisons below read a fraction of the int64 bytes
    small = np.min_scalar_type(n)
    tables = ones.cumsum(axis=1, dtype=small).cumsum(axis=2, dtype=small).reshape(m, n * n)
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

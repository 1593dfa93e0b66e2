"""The dominance order on rook placements and its permutation mirror.

A placement D is compared through its counting matrix: entry (i, j)
with i > j counts the rooks of D weakly south-west of the cell, i.e.
those in columns <= j and rows >= i.  D1 <= D2 holds exactly when the
matrix of D1 is entrywise dominated by the matrix of D2.
counting_entries reads the counts of all m placements from their padded
root arrays (placements.root_arrays; a materialized poset passes its own
to _counting_entries), one board row i at a time: entry (i, j) is the
number of rooks t with col_t <= j and row_t >= i, a prefix sum over the
columns c <= j of whether the rook in column c has row >= i.
rank_matrix, one placement at a time in pure Python, is the dense oracle
for them.
packed_dominance turns them into the relation as packed bit rows in a
linear extension, the one form that the materialized poset keeps and
dominance_matrix unpacks.

leq_placement compares D1 with D2 on at most k1(k1 + 1)/2 cells for the
k1 rooks of D1, whatever the board and the rooks of D2: only a cell
(r, c) with r a row and c a column of D1's rooks, r > c, can fail.  Take
any cell (i, j) and let S be the rooks of D1 it counts; if S is empty
there is nothing to check.  Else let i' be the least row and j' the
largest column in S: (i', j') is a cell, as i' >= i > j >= j', its
region holds S and lies inside the region of (i, j), so count1(i', j')
= count1(i, j) and count2(i', j') <= count2(i, j).  Like Fulton's
essential set (Duke Math. J. 65, 1992), the cells come from where D1's
own matrix steps, so the cost follows the rooks of the left operand.
rank_matrix and RankMatrix.__le__ stay as the dense route.

Orthogonal placements are involutions in disguise: involution_of turns
one into the product of its transpositions, and bruhat_matrix compares
permutations in Bruhat order by prefix counts (Bjorner-Brenti 2.1), with
no code shared with dominance_matrix, so that each one checks the other;
the two share only the byte budget _BLOCK_BYTES.  _prefix_counts keeps
the counts of the (n - 1)^2 inner cells, one contiguous row of all m
permutations per cell, or of the n(n - 1)/2 with i <= j when all m are
involutions; bruhat_matrix ANDs a tile of rows against all m columns
once per cell, and bruhat_leq compares the two count columns of a pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbientError, CapError, RookError
from .placements import RookPlacement, _as_tuple, _orthogonal, _placement, root_arrays


@dataclass(frozen=True)
class RankMatrix:
    """Counting matrix of a placement; entries above the diagonal are zero."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        """1-based lookup."""
        return self.entries[i - 1][j - 1]

    def __le__(self, other: "RankMatrix") -> bool:
        if not isinstance(other, RankMatrix):
            raise RookError(f"{other!r} is not a RankMatrix")
        if self.n != other.n:
            raise AmbientError(f"cannot compare boards of sizes {self.n} and {other.n}")
        return all(
            a <= b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def rank_matrix(placement: RookPlacement) -> RankMatrix:
    """Counting matrix of the placement (zero on and above the diagonal)."""
    n = _placement(placement).n
    rows = []
    for i in range(1, n + 1):
        row = [0] * n
        for j in range(1, i):
            row[j - 1] = sum(1 for r in placement.roots if r.col <= j and r.row >= i)
        rows.append(tuple(row))
    return RankMatrix(n, tuple(rows))


def leq_placement(d1: RookPlacement, d2: RookPlacement) -> bool:
    """Dominance comparison; placements must live on boards of equal size.

    Reads only the cells (r, c) of the rule in the module docstring: r a
    row and c a column of d1's rooks, r > c.  It sweeps d1's rooks by
    descending row and, at the row r of the t-th of them, reads the at
    most t columns below r of d1's rooks in rows >= r, so at most
    k1(k1 + 1)/2 cells for k1 rooks of d1, at O(log k) each.
    """
    if _placement(d1).n != _placement(d2).n:
        raise AmbientError(f"cannot compare boards of sizes {d1.n} and {d2.n}")
    # columns of the rooks in rows >= r, sorted, for d1 and d2; the roots
    # are sorted by row, so d2's enter from its end
    cols1: list[int] = []
    cols2: list[int] = []
    roots2 = d2.roots
    t = len(roots2)
    for r, c in reversed(d1.roots):
        insort(cols1, c)
        while t and roots2[t - 1][0] >= r:
            t -= 1
            insort(cols2, roots2[t][1])
        # count1(r, cols1[idx]) is idx + 1
        for idx in range(bisect_left(cols1, r)):
            if idx + 1 > bisect_right(cols2, cols1[idx]):
                return False
    return True


# Byte budget of the row blocks that one step of packed_dominance or of
# the cover scan in poset.Poset works on, and of the row tiles of
# bruhat_matrix: they then fit in a 2 MB L2 cache.
_BLOCK_BYTES = 1 << 19


def counting_entries(placements: Sequence[RookPlacement]) -> np.ndarray:
    """The below-diagonal counting-matrix entries of each placement as an
    (n(n - 1)/2 x m) array, one row per cell (i, j), i > j, in row-major
    order.  Each entry is at most n // 2, so the array is int8 up to
    n = 255, every board the materialized poset reaches, and int16 past
    it.  All placements must live on one board (AmbientError otherwise).
    A thin wrapper: _counting_entries reads them from the root arrays."""
    placements = _as_tuple(placements, "placements")
    rows, cols = root_arrays(placements)
    return _counting_entries(placements[0].n if placements else 0, rows, cols)


def _counting_entries(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """counting_entries of the placements on the board of size n whose
    padded root arrays (placements.root_arrays) are rows and cols.  The
    rows are scattered by column, at[c, t] the row of the rook of
    placement t in column c (0 for none; padding lands in column n + 1),
    so board row i is one prefix sum down the columns 1..i - 1 of
    at >= i."""
    m = len(rows)
    dtype = np.int8 if n < 256 else np.int16
    entries = np.empty((n * (n - 1) // 2, m), dtype=dtype)
    at = np.zeros((n + 2, m), dtype=np.min_scalar_type(n))  # holds rows up to n
    at[cols, np.arange(m)[:, None]] = rows
    e = 0
    for i in range(2, n + 1):
        np.cumsum(at[1:i] >= i, axis=0, dtype=dtype, out=entries[e : e + i - 1])
        e += i - 1
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
    """The dominance order of the placements as (bits, columns): `columns`
    sorts them stably by the sum of their counting entries E, a linear
    extension (t < d makes each entry of t at most that of d and one
    smaller), and row p of `bits` packs (pack_rows) the up-set of
    placements[columns[p]], bit q for placements[columns[q]].  All
    placements must live on one board (AmbientError otherwise).  As in a
    range-encoded bitmap index (Chan and Ioannidis, SIGMOD 1999), the set
    {b : E[e, b] >= v} is packed once per cell e and value v, and row p is
    the AND over the cells of the set at v = E[e, columns[p]], filled a
    block of rows at a time from the first position of its first row's sum
    on (only a repeat there can come first in an up-set), each seeded
    first, in a zeroed m^2 / 8 byte array (CapError if refused).  A thin
    wrapper over _packed_dominance, which takes the counting entries.
    """
    return _packed_dominance(counting_entries(placements))


def _packed_dominance(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """packed_dominance of the placements whose counting entries
    (counting_entries) are the columns of `entries`."""
    m = entries.shape[1]
    sums = entries.sum(axis=0)
    columns = np.argsort(sums, kind="stable")
    sums = sums[columns]
    # an all-zero cell first: its v = 0 set (no pad bits) seeds each row
    entries = np.vstack([np.zeros((1, m), dtype=entries.dtype), entries])
    values = np.arange(entries.max(initial=0) + 1)[:, None]
    sets = np.stack([pack_rows(e[columns] >= values) for e in entries])
    width = sets.shape[2]
    try:
        bits = np.zeros((m, width), dtype=np.uint64)
    except MemoryError:
        raise CapError(f"cannot allocate {m} rows x {width} words ({8 * m * width} bytes)")
    p0 = 0
    while p0 < m:
        w0 = int(np.searchsorted(sums, sums[p0])) >> 6
        rows = max(1, _BLOCK_BYTES // (16 * (width - w0)))
        block = bits[p0 : p0 + rows, w0:]
        # ANDed in a contiguous copy: numpy ANDs into a strided block slower
        tail = np.empty(block.shape, dtype=np.uint64)
        tail[...] = sets[0, 0, w0:]
        for cell, at in zip(sets[1:, :, w0:], entries[1:, columns[p0 : p0 + rows]]):
            tail &= cell[at]
        block[...] = tail
        p0 += rows
    return bits, columns


def dominance_matrix(placements: Sequence[RookPlacement]) -> np.ndarray:
    """m x m bool array whose entry (a, b) is placements[a] <= placements[b]:
    packed_dominance unpacked, with rows and columns back in index order."""
    bits, columns = packed_dominance(placements)
    pos = np.argsort(columns)
    return unpack_rows(bits, len(columns))[np.ix_(pos, pos)].view(bool)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation; pickle and copy check it."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.images, tuple) and set(map(type, self.images)) <= {int}):
            raise RookError(f"permutation images must be a tuple of ints, got {self.images!r}")
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise RookError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    def __reduce__(self) -> tuple:
        return type(self), (self.images,)

    @property
    def n(self) -> int:
        return len(self.images)

    def to_json(self) -> list[int]:
        return list(self.images)


def involution_of(placement: RookPlacement) -> Permutation:
    """Product of the transpositions (row col) of an orthogonal placement."""
    images = list(range(1, _orthogonal(placement).n + 1))
    for i, j in placement.roots:
        images[i - 1], images[j - 1] = j, i
    return Permutation(tuple(images))


def _permutation(w: object) -> Permutation:
    if not isinstance(w, Permutation):
        raise RookError(f"{w!r} is not a Permutation")
    return w


def inversion_length(w: Permutation) -> int:
    """Number of inversions, i.e. pairs a < b with w(a) > w(b)."""
    img = _permutation(w).images
    return sum(
        1 for a in range(len(img)) for b in range(a + 1, len(img)) if img[a] > img[b]
    )


def _prefix_counts(perms: Sequence[Permutation]) -> np.ndarray:
    """The prefix counts #{k <= i : w(k) <= j} of permutations of one size
    n (AmbientError otherwise) as a (cells x m) array, one contiguous row
    of all m per cell.  Only the (n - 1)^2 inner cells i, j < n are kept:
    prefix row n counts j and prefix column n counts i, whatever w.  When
    all m are involutions, as in the verify suites, only the n(n - 1)/2
    cells i <= j are: the counts of w^-1 are those of w transposed."""
    perms = tuple(map(_permutation, _as_tuple(perms, "permutations")))
    for w in perms:
        if w.n != perms[0].n:
            raise AmbientError(f"cannot compare permutations of sizes {perms[0].n} and {w.n}")
    m, n = len(perms), perms[0].n if perms else 0
    # a prefix count is at most n, so the smallest type that holds n will do
    small = np.min_scalar_type(n)
    images = np.array([w.images for w in perms], dtype=small).reshape(m, n)
    # counts[i - 1, j - 1, t] = #{k <= i : perms[t](k) <= j} for i, j < n
    below = images.T[: n - 1, None] <= np.arange(1, n, dtype=small)[:, None]
    counts = below.cumsum(axis=0, dtype=small)
    if (np.take_along_axis(images, images - 1, axis=1) == np.arange(1, n + 1)).all():
        return counts[np.triu(np.ones((len(below),) * 2, dtype=bool))]
    return counts.reshape(len(below) ** 2, m)


def bruhat_matrix(perms: Sequence[Permutation]) -> np.ndarray:
    """m x m bool array whose entry (a, b) is perms[a] <= perms[b] in Bruhat
    order: every prefix count (_prefix_counts) of perms[a] is at least
    that of perms[b].  A tile of rows, whose comparisons with all m columns
    fill at most _BLOCK_BYTES, is ANDed once per cell; so a lone pair,
    bruhat_leq's job, costs a numpy step per cell here."""
    counts = _prefix_counts(perms)
    m = counts.shape[1]
    leq = np.ones((m, m), dtype=bool)
    rows = max(1, _BLOCK_BYTES // max(m, 1))
    for a in range(0, m, rows):
        tile = leq[a : a + rows]
        for cell in counts:
            tile &= cell[a : a + rows, None] >= cell
    return leq


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat order by dominance: u <= v iff every prefix count of u is at
    least that of v, the two columns of _prefix_counts compared directly."""
    counts = _prefix_counts((u, v))
    return bool((counts[:, 0] >= counts[:, 1]).all())

"""Rook placements on the strictly lower-triangular board.

A board of size n is the strict lower triangle of an n-by-n grid: the
cells (i, j) with 1 <= j < i <= n.  Each cell corresponds to the
positive root of the A_{n-1} root system with endpoints j and i, so we
call cells "roots" throughout.  A rook placement is a set of roots no
two of which share a row or a column.  It is orthogonal when all
endpoint indices are pairwise distinct, i.e. no row of one rook equals
a column of another; orthogonal placements are exactly the involutions
of the symmetric group written as products of disjoint transpositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import AmbientError, AttackError, CapError, RookError

Kind = Literal["general", "orthogonal"]

#: Default ceiling on the number of placements an enumeration may produce.
DEFAULT_CAP = 10**6


def _is_int(value: object) -> bool:
    # bool is an int subclass, but True is not a board size or an index
    return isinstance(value, int) and not isinstance(value, bool)


def _as_tuple(roots: object) -> tuple:
    try:
        if isinstance(roots, Root):  # one pair, not a collection of roots
            raise TypeError
        return tuple(roots)
    except TypeError:
        raise RookError(f"roots must be an iterable, got {roots!r}") from None


class Root(tuple):
    """A board cell (row, col) with row > col >= 1: an immutable pair that
    sorts, hashes and compares as the plain tuple, and that pickle and copy
    rebuild through the checks of __new__."""

    __slots__ = ()

    def __new__(cls, row: int, col: int) -> Root:
        # exact ints on the board pass one test; the rest get each check
        if not (type(row) is int and type(col) is int and 0 < col < row):
            if not (_is_int(row) and _is_int(col)):
                raise RookError(f"root ({row!r}, {col!r}) needs int coordinates")
            if col < 1 or row <= col:
                raise RookError(f"({row},{col}) is not a root: need row > col >= 1")
            row, col = int(row), int(col)  # an int subclass may print otherwise
        return tuple.__new__(cls, (row, col))

    row = property(itemgetter(0))
    col = property(itemgetter(1))

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return f"Root(row={self[0]!r}, col={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]},{self[1]}"


def roots_to_text(roots: Iterable[Root]) -> str:
    """Serialize roots as ``i,j;i,j;...`` in the order given."""
    return ";".join(map("%d,%d".__mod__, roots))


@dataclass(frozen=True)
class RookPlacement:
    """An immutable placement on the board of size n.

    Roots are stored sorted ascending by (row, col); this canonical
    order is what every serialization and enumeration uses.
    """

    n: int
    roots: tuple[Root, ...]

    def __post_init__(self) -> None:
        # each check tests the exact type first, which is all it takes on
        # the hot paths, and falls back to the subclass-aware test
        n = self.n
        if not (type(n) is int or _is_int(n)) or n < 0:
            raise AmbientError(f"board size must be a non-negative int, got {n!r}")
        roots = self.roots if type(self.roots) is tuple else _as_tuple(self.roots)
        for r in roots:
            if type(r) is not Root and not isinstance(r, Root):
                raise RookError(f"{r!r} is not a Root")
        ordered = tuple(sorted(roots))
        object.__setattr__(self, "roots", ordered)
        if not ordered:
            return
        # zip transposes in C: unpacking a Root, a tuple subclass, is slow
        rows, cols = zip(*ordered)
        if len(set(rows)) == len(set(cols)) == len(ordered) and rows[-1] <= n:
            return  # the last root has the largest row
        seen_rows: dict[int, Root] = {}
        seen_cols: dict[int, Root] = {}
        for r in ordered:  # find the first violation, for the message
            if r.row > self.n:
                raise AmbientError(f"root ({r}) outside board of size {self.n}")
            if r.row in seen_rows:
                raise AttackError(
                    f"rooks ({seen_rows[r.row]}) and ({r}) share row {r.row}"
                )
            if r.col in seen_cols:
                raise AttackError(
                    f"rooks ({seen_cols[r.col]}) and ({r}) share column {r.col}"
                )
            seen_rows[r.row] = seen_cols[r.col] = r

    @property
    def rows(self) -> frozenset[int]:
        return frozenset([i for i, _ in self.roots])

    @property
    def cols(self) -> frozenset[int]:
        return frozenset([j for _, j in self.roots])

    @property
    def size(self) -> int:
        return len(self.roots)

    def is_orthogonal(self) -> bool:
        """True when no index is both a row and a column of the placement."""
        # rows are distinct, columns are distinct and row > col in each
        # root, so the 2k endpoints are distinct iff no row is a column
        return len(set(chain.from_iterable(self.roots))) == 2 * len(self.roots)

    def to_text(self) -> str:
        return roots_to_text(self.roots)

    def to_json(self) -> dict:
        return {"n": self.n, "roots": [list(r) for r in self.roots]}

    def __str__(self) -> str:
        return self.to_text()


def _placement(d: object) -> RookPlacement:
    if not isinstance(d, RookPlacement):
        raise RookError(f"{d!r} is not a RookPlacement")
    return d


def _as_root(r: object) -> Root:
    if isinstance(r, Root):
        return r
    try:
        row, col = r
    except (TypeError, ValueError):
        raise RookError(f"{r!r} is not a Root or a (row, col) pair") from None
    return Root(row, col)


def validate_placement(
    roots: Iterable[Root | tuple[int, int]], n: int
) -> RookPlacement:
    """Build a placement from roots or bare (row, col) pairs.

    Raises AttackError when two rooks share a row or column,
    AmbientError when a root does not fit on the board of size n, and
    RookError when roots is not an iterable of roots or pairs.
    """
    return RookPlacement(n, tuple(map(_as_root, _as_tuple(roots))))


def parse_placement(text: str, n: int) -> RookPlacement:
    """Parse the ``i,j;i,j`` exchange format; whitespace is ignored everywhere.

    The empty string denotes the empty placement.
    """
    if not isinstance(text, str):
        raise RookError(f"placement text must be a str, got {text!r}")
    compact = "".join(text.split())
    if not compact:
        return RookPlacement(n, ())
    roots = []
    for token in compact.split(";"):
        parts = token.split(",")
        if len(parts) != 2:
            raise RookError(f"bad root token {token!r}: expected 'row,col'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise RookError(f"bad root token {token!r}: expected integers") from None
        roots.append(Root(i, j))
    return validate_placement(roots, n)


def placement_from_json(data: dict) -> RookPlacement:
    """Inverse of RookPlacement.to_json."""
    try:
        n = data["n"]
        pairs = data["roots"]
    except (TypeError, KeyError):
        raise RookError("placement JSON needs keys 'n' and 'roots'") from None
    if not _is_int(n) or not isinstance(pairs, list):
        raise RookError("placement JSON: 'n' must be an int and 'roots' a list")
    for p in pairs:
        if not (isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_int, p))):
            raise RookError(
                f"placement JSON: root {p!r} is not a [row, col] pair of ints"
            )
    return validate_placement([tuple(p) for p in pairs], n)


def render_board(placement: RookPlacement, symbol: str = "X") -> str:
    """ASCII picture of the full n-by-n board, one row per line.

    Occupied cells show `symbol` ('X' by default, pass '⊗' for the
    circled-times look), empty cells show '.'.
    """
    occupied = set(_placement(placement).roots)
    lines = [
        "".join(symbol if (i, j) in occupied else "." for j in range(1, placement.n + 1))
        for i in range(1, placement.n + 1)
    ]
    return "\n".join(lines)


def count_placements(n: int, kind: Kind = "general") -> int:
    """Number of placements on the size-n board without enumerating them.

    General placements are counted by the Bell numbers, orthogonal ones
    by the involution (telephone) numbers.
    """
    if not _is_int(n) or n < 0:
        raise AmbientError(f"board size must be a non-negative int, got {n!r}")
    if kind == "general":
        # Bell triangle.
        row = [1]
        for _ in range(n - 1):
            nxt = [row[-1]]
            for v in row:
                nxt.append(nxt[-1] + v)
            row = nxt
        return row[-1] if n >= 1 else 1
    if kind == "orthogonal":
        a, b = 1, 1  # t(0), t(1)
        for k in range(2, n + 1):
            a, b = b, b + (k - 1) * a
        return b
    raise RookError(f"unknown kind {kind!r}")


def _search(n: int, orthogonal: bool) -> Iterator[tuple[Root, ...]]:
    # Depth-first over the next root (Knuth, TAOCP 4A, 7.2.2).  A rook
    # closes its column and, when orthogonal, its row: rows only grow past
    # every column, so no other clash can occur.  A placement comes before
    # its extensions, and those follow their next root: sorted order.
    closed = [False] * (n + 1)

    def rec(roots: tuple[Root, ...], last: int) -> Iterator[tuple[Root, ...]]:
        yield roots
        for row in range(last + 1, n + 1):
            for col in range(1, row):
                if not closed[col]:
                    closed[col], closed[row] = True, orthogonal
                    yield from rec(roots + (Root(row, col),), row)
                    closed[col] = closed[row] = False

    return rec((), 1)


def enumerate_placements(
    n: int, kind: Kind = "general", cap: int = DEFAULT_CAP
) -> tuple[RookPlacement, ...]:
    """All placements on the size-n board, sorted by their root sequences:
    the search extends each placement by its next root in (row, col)
    order, so it yields them in that order.  Raises CapError up front
    when the count would exceed `cap`.
    """
    total = count_placements(n, kind)  # rejects an n that is not an int
    if n < 1:
        raise AmbientError(f"board size must be at least 1, got {n}")
    if not _is_int(cap):
        raise RookError(f"cap must be an int, got {cap!r}")
    if total > cap:
        raise CapError(f"{total} placements of kind {kind!r} on board {n} exceed cap {cap}")
    return tuple(RookPlacement(n, roots) for roots in _search(n, kind == "orthogonal"))


def root_arrays(placements: Sequence[RookPlacement]) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the rooks of each placement as two (m, k) int
    arrays, k the most rooks of any one, each row in root order.  A
    placement with fewer rooks is padded with row 0 and column n + 1,
    which no cell (i, j) of the board reaches: a count over columns <= j
    and rows >= i never includes them.  Raises AmbientError unless all
    placements live on one board.
    """
    n = placements[0].n if placements else 0
    for p in placements:
        if p.n != n:
            raise AmbientError(f"placements on boards of sizes {n} and {p.n}")
    sizes = np.array([p.size for p in placements], dtype=np.intp)
    filled = np.arange(sizes.max(initial=0)) < sizes[:, None]
    cells = np.array([x for p in placements for r in p.roots for x in r], dtype=np.intp)
    cells = cells.reshape(-1, 2)  # numpy reads flat ints faster than pairs or Roots
    rows = np.zeros(filled.shape, dtype=np.intp)
    cols = np.full(filled.shape, n + 1, dtype=np.intp)
    # a boolean mask assigns in row-major order, i.e. placement by placement
    rows[filled], cols[filled] = cells[:, 0], cells[:, 1]
    return rows, cols

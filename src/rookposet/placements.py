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
from functools import cached_property
from typing import Iterable, Iterator, Literal

from .errors import AmbientError, AttackError, CapError, RookError

Kind = Literal["general", "orthogonal"]

#: Default ceiling on the number of placements an enumeration may produce.
DEFAULT_CAP = 10**6


@dataclass(frozen=True, order=True)
class Root:
    """A board cell (row, col) with row > col >= 1."""

    row: int
    col: int

    def __post_init__(self) -> None:
        if self.col < 1 or self.row <= self.col:
            raise RookError(
                f"({self.row},{self.col}) is not a root: need row > col >= 1"
            )

    def __str__(self) -> str:
        return f"{self.row},{self.col}"


def roots_to_text(roots: Iterable[Root]) -> str:
    """Serialize roots as ``i,j;i,j;...`` in the order given."""
    return ";".join(str(r) for r in roots)


@dataclass(frozen=True)
class RookPlacement:
    """An immutable placement on the board of size n.

    Roots are stored sorted ascending by (row, col); this canonical
    order is what every serialization and enumeration uses.
    """

    n: int
    roots: tuple[Root, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise AmbientError(f"board size must be non-negative, got {self.n}")
        ordered = tuple(sorted(self.roots))
        object.__setattr__(self, "roots", ordered)
        seen_rows: dict[int, Root] = {}
        seen_cols: dict[int, Root] = {}
        for r in ordered:
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
            seen_rows[r.row] = r
            seen_cols[r.col] = r

    @cached_property
    def rows(self) -> frozenset[int]:
        return frozenset(r.row for r in self.roots)

    @cached_property
    def cols(self) -> frozenset[int]:
        return frozenset(r.col for r in self.roots)

    @property
    def size(self) -> int:
        return len(self.roots)

    def is_orthogonal(self) -> bool:
        """True when no index is both a row and a column of the placement."""
        return not (self.rows & self.cols)

    def to_text(self) -> str:
        return roots_to_text(self.roots)

    def to_json(self) -> dict:
        return {"n": self.n, "roots": [[r.row, r.col] for r in self.roots]}

    def replace(self, remove: Iterable[Root] = (), add: Iterable[Root] = ()) -> "RookPlacement":
        """New placement with some roots removed and others added; revalidates."""
        roots = set(self.roots)
        for r in remove:
            if r not in roots:
                raise RookError(f"cannot remove ({r}): not in placement")
            roots.discard(r)
        roots.update(add)
        return RookPlacement(self.n, tuple(roots))

    def __str__(self) -> str:
        return self.to_text()


def validate_placement(
    roots: Iterable[Root | tuple[int, int]], n: int
) -> RookPlacement:
    """Build a placement from roots or bare (row, col) pairs.

    Raises AttackError when two rooks share a row or column and
    AmbientError when a root does not fit on the board of size n.
    """
    coerced = tuple(r if isinstance(r, Root) else Root(*r) for r in roots)
    return RookPlacement(n, coerced)


def parse_placement(text: str, n: int) -> RookPlacement:
    """Parse the ``i,j;i,j`` exchange format; whitespace is ignored everywhere.

    The empty string denotes the empty placement.
    """
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


def _is_int(value: object) -> bool:
    # bool is an int subclass, but True is not a board size or an index
    return isinstance(value, int) and not isinstance(value, bool)


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
    occupied = {(r.row, r.col) for r in placement.roots}
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
    if n < 0:
        raise AmbientError(f"board size must be non-negative, got {n}")
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


def _iter_general(n: int) -> Iterator[tuple[Root, ...]]:
    acc: list[Root] = []
    used = [False] * (n + 1)

    def rec(row: int) -> Iterator[tuple[Root, ...]]:
        if row > n:
            yield tuple(acc)
            return
        yield from rec(row + 1)
        for col in range(1, row):
            if not used[col]:
                used[col] = True
                acc.append(Root(row, col))
                yield from rec(row + 1)
                acc.pop()
                used[col] = False

    return rec(2)


def _iter_orthogonal(n: int) -> Iterator[tuple[Root, ...]]:
    # Pair up indices: the smallest free index is either skipped or made
    # the column of a rook whose row is a larger free index.
    acc: list[Root] = []

    def rec(free: tuple[int, ...]) -> Iterator[tuple[Root, ...]]:
        if len(free) < 2:
            yield tuple(acc)
            return
        k, rest = free[0], free[1:]
        yield from rec(rest)
        for pos, m in enumerate(rest):
            acc.append(Root(m, k))
            yield from rec(rest[:pos] + rest[pos + 1 :])
            acc.pop()

    return rec(tuple(range(1, n + 1)))


def enumerate_placements(
    n: int, kind: Kind = "general", cap: int = DEFAULT_CAP
) -> tuple[RookPlacement, ...]:
    """All placements on the size-n board, sorted by their root sequences.

    Raises CapError up front when the count would exceed `cap`.
    """
    if n < 1:
        raise AmbientError(f"board size must be at least 1, got {n}")
    total = count_placements(n, kind)
    if total > cap:
        raise CapError(f"{total} placements of kind {kind!r} on board {n} exceed cap {cap}")
    it = _iter_general(n) if kind == "general" else _iter_orthogonal(n)
    found = [RookPlacement(n, roots) for roots in it]
    found.sort(key=lambda p: p.roots)
    return tuple(found)

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

from bisect import insort
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, Literal, Sequence, get_args

import numpy as np

from .errors import AmbientError, AttackError, CapError, OrthogonalityError, RookError

Kind = Literal["general", "orthogonal"]

#: Default ceiling on the number of placements an enumeration may produce.
DEFAULT_CAP = 10**6


def _is_int(value: object) -> bool:
    # bool is an int subclass, but True is not a board size or an index
    return isinstance(value, int) and not isinstance(value, bool)


def _as_tuple(items: object, what: str = "roots") -> tuple:
    try:
        if isinstance(items, (Root, RookPlacement)):  # one item, not a collection
            raise TypeError
        return tuple(items)
    except TypeError:
        raise RookError(f"{what} must be an iterable, got {items!r}") from None


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


class RookPlacement(tuple):
    """An immutable placement on the board of size n: the pair (n, roots),
    which hashes and compares as the plain tuple.  Roots are stored sorted
    ascending by (row, col), the order of every serialization and
    enumeration; pickle and copy rebuild it through the checks of __new__.
    """

    __slots__ = ()

    def __new__(cls, n: int, roots: tuple[Root, ...]) -> RookPlacement:
        # each check tests the exact type first, which is all it takes on
        # the hot paths, and falls back to the subclass-aware test
        if not (type(n) is int and n >= 0):
            _board(n)
        roots = roots if type(roots) is tuple else _as_tuple(roots)
        for r in roots:
            if type(r) is not Root and not isinstance(r, Root):
                raise RookError(f"{r!r} is not a Root")
        ordered = tuple(sorted(roots))
        # zip transposes in C: unpacking a Root, a tuple subclass, is slow
        rows, cols = zip(*ordered) if ordered else ((), ())
        # the last root has the largest row
        if ordered and not (len(set(rows)) == len(set(cols)) == len(ordered) and rows[-1] <= n):
            seen_rows: dict[int, Root] = {}
            seen_cols: dict[int, Root] = {}
            for r in ordered:  # find the first violation, for the message
                if r.row > n:
                    raise AmbientError(f"root ({r}) outside board of size {n}")
                if r.row in seen_rows:
                    raise AttackError(f"rooks ({seen_rows[r.row]}) and ({r}) share row {r.row}")
                if r.col in seen_cols:
                    raise AttackError(f"rooks ({seen_cols[r.col]}) and ({r}) share column {r.col}")
                seen_rows[r.row] = seen_cols[r.col] = r
        return tuple.__new__(cls, (n, ordered))

    n = property(itemgetter(0))
    roots = property(itemgetter(1))

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return f"RookPlacement(n={self[0]!r}, roots={self[1]!r})"

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


def _replaced(
    d: RookPlacement,
    k: int,
    x: int,
    added: tuple[Root, ...],
    rows: frozenset[int],
    cols: frozenset[int],
) -> RookPlacement:
    """D with its roots at indices k <= x (k == x for one) replaced by the
    Roots `added`, at most two, for D's sets of rows and cols: the targets
    go into the kept roots by bisect, and the result is built without a
    __new__.  D keeps every rule, so only a target can break one, and these
    tests are complete: each target on the board, its row and its column
    not D's unless a source root frees it, and no row or column shared by
    two targets.  On a failure RookPlacement raises its own error."""
    n, roots = d
    (i, j), (a, b) = roots[k], roots[x]
    kept = list(roots)
    del kept[x]
    if x != k:
        del kept[k]
    for p, q in added:
        if p > n or (p in rows and p != i and p != a) or (q in cols and q != j and q != b):
            return RookPlacement(n, tuple(kept) + added)
    if len(added) == 2 and (added[0][0] == added[1][0] or added[0][1] == added[1][1]):
        return RookPlacement(n, tuple(kept) + added)
    for t in added:
        insort(kept, t)
    return tuple.__new__(RookPlacement, (n, tuple(kept)))


def _check_batch(n: int, roots: list[tuple[Root, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The root arrays (_root_arrays) of a search's root tuples on the board
    of size n, read before any placement is built, if each tuple keeps the
    rules of RookPlacement.__new__.  Otherwise raise, for the first that
    breaks one, the error the constructor raises on it, or RookError if it
    is valid but not the constructor's sorted tuple of Roots.  The rules,
    over all root arrays at once: a tuple of Roots; 1 <= col < row <= n;
    rows strictly increasing (sorted roots, distinct rows); distinct columns."""
    if set(map(type, roots)) <= {tuple} and set(map(type, chain.from_iterable(roots))) <= {Root}:
        rows, cols = _root_arrays(n, roots)
        live = rows > 0  # padding is row 0, which no Root has
        on_board = (1 <= cols) & (cols < rows) & (rows <= n)
        ordered = np.sort(cols, axis=1)  # the padding columns n + 1 sort last
        bad = (
            (live & ~on_board).any(axis=1)
            | (live[:, 1:] & (rows[:, 1:] <= rows[:, :-1])).any(axis=1)
            | ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] <= n)).any(axis=1)
        )
        if not bad.any():
            return rows, cols
        roots = roots[int(bad.argmax()) :]  # the tuples before break no rule
    for r in roots:
        # the constructor raises its own error; what it lets pass is
        # refused here: roots out of order, not a tuple, or not a Root
        # that its own checks built
        checked = RookPlacement(n, r)
        if checked.roots != r or type(r) is not tuple or any(
            type(x) is not Root or not 0 < x[1] < x[0] for x in r
        ):
            break
    raise RookError(f"roots {r!r} are not a sorted tuple of Roots on the board")


def _board(n: object) -> int:
    if not _is_int(n) or n < 0:
        raise AmbientError(f"board size must be a non-negative int, got {n!r}")
    return n


def _kind(kind: object) -> Kind:
    if kind not in get_args(Kind):
        raise RookError(f"unknown kind {kind!r}")
    return kind


def _placement(d: object) -> RookPlacement:
    if not isinstance(d, RookPlacement):
        raise RookError(f"{d!r} is not a RookPlacement")
    return d


def _orthogonal(d: object) -> RookPlacement:
    if not _placement(d).is_orthogonal():
        raise OrthogonalityError(f"placement {d.to_text()!r} is not orthogonal")
    return d


def _check_orthogonal(
    placements: Sequence[RookPlacement], rows: np.ndarray, cols: np.ndarray
) -> None:
    """Raise what _orthogonal raises for the first of the placements that is
    not orthogonal, i.e. has a row that is also a column, read off their
    padded root arrays rows and cols (root_arrays)."""
    # padding never meets: row 0 is no column and column n + 1 no row
    clash = (rows[:, :, None] == cols[:, None, :]).any(axis=(1, 2))
    if clash.any():
        _orthogonal(placements[int(clash.argmax())])


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
    """Parse the ``i,j;i,j`` exchange format; whitespace is ignored everywhere,
    and each coordinate is ASCII digits only.

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
            # int() alone would also take '1_0', '+3' and non-ASCII digits;
            # past 4300 digits it raises ValueError itself
            if not all(part.isascii() and part.isdigit() for part in parts):
                raise ValueError
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise RookError(f"bad root token {token!r}: expected integers") from None
        roots.append(Root(i, j))
    return validate_placement(roots, n)


def placement_from_json(data: dict) -> RookPlacement:
    """Inverse of RookPlacement.to_json."""
    try:
        n, pairs = data["n"], data["roots"]
    except (TypeError, KeyError):
        raise RookError("placement JSON needs keys 'n' and 'roots'") from None
    return validate_placement(pairs, n)


def render_board(placement: RookPlacement, symbol: str = "X") -> str:
    """ASCII picture of the full n-by-n board, one row per line.

    Occupied cells show `symbol`, one character other than '.' ('X' by
    default, '⊗' for the circled-times look); empty cells show '.'.
    """
    occupied = set(_placement(placement).roots)
    if not isinstance(symbol, str):
        raise RookError(f"symbol must be a str, got {symbol!r}")
    if len(symbol) != 1 or symbol == ".":
        raise RookError(f"symbol must be one character other than '.', got {symbol!r}")
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
    _board(n)
    if _kind(kind) == "orthogonal":
        a, b = 1, 1  # t(0), t(1)
        for k in range(2, n + 1):
            a, b = b, b + (k - 1) * a
        return b
    # Bell triangle.
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1] if n >= 1 else 1


def _search(n: int, orthogonal: bool) -> list[tuple[Root, ...]]:
    # Depth-first over the next root (Knuth, TAOCP 4A, 7.2.2), in pre-order
    # off one stack: a placement comes before its extensions, and those
    # follow their next root, so the list is sorted.  The extensions are
    # pushed in reverse (row, col) order to pop in that order.  A rook
    # closes its column and, when orthogonal, its row (bits of `closed`):
    # rows only grow past every column, so no other clash can occur.  Each
    # cell is one Root, shared by every placement that holds it.
    cells = [[(1 << col, Root(row, col)) for col in range(row - 1, 0, -1)] for row in range(n + 1)]
    found, stack = [], [((), 1, 0)]
    while stack:
        roots, last, closed = stack.pop()
        found.append(roots)
        for row in range(n, last, -1):
            shut = orthogonal << row
            for bit, cell in cells[row]:
                if not closed & bit:
                    stack.append((roots + (cell,), row, closed | bit | shut))
    return found


def _enumerate(
    n: int, kind: Kind, cap: int
) -> tuple[tuple[RookPlacement, ...], np.ndarray, np.ndarray]:
    """enumerate_placements, with the root arrays of its bulk check, which
    checks the search's root tuples before any placement is built."""
    _board(n)
    general = _kind(kind) == "general"
    if n < 1:
        raise AmbientError(f"board size must be at least 1, got {n}")
    if not _is_int(cap):
        raise RookError(f"cap must be an int, got {cap!r}")
    # B(n) >= 2^(n-1), the partitions of 1..n into runs, and t(n) >= 2^(n//2),
    # the matchings of pairs (2i-1, 2i); 2^e > cap once e reaches the cap's
    # bit length, so a large board is refused before the exact count, whose
    # big-int work grows as n^2
    exponent = n - 1 if general else n // 2
    if exponent >= cap.bit_length() or count_placements(n, kind) > cap:
        raise CapError(f"board {n} has more than {cap} placements of kind {kind!r}")
    found = _search(n, not general)
    rows, cols = _check_batch(n, found)
    for i, roots in enumerate(found):
        found[i] = tuple.__new__(RookPlacement, (n, roots))
    return tuple(found), rows, cols


def enumerate_placements(
    n: int, kind: Kind = "general", cap: int = DEFAULT_CAP
) -> tuple[RookPlacement, ...]:
    """All placements on the size-n board, sorted by their root sequences:
    the search extends each placement by its next root in (row, col)
    order, so it yields them in that order.  Raises CapError up front
    when the count would exceed `cap`.
    """
    return _enumerate(n, kind, cap)[0]


def root_arrays(placements: Sequence[RookPlacement]) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the rooks of each placement as two (m, k) int
    arrays, k the most rooks of any one, each row in root order.  A
    placement with fewer rooks is padded with row 0 and column n + 1,
    which no cell (i, j) of the board reaches: a count over columns <= j
    and rows >= i never includes them.  Raises RookError on anything but
    placements, and AmbientError unless all live on one board.
    """
    placements = _as_tuple(placements, "placements")
    # the checks and the flattening iterate in C, not per placement in Python
    if not all(issubclass(t, RookPlacement) for t in set(map(type, placements))):
        for p in placements:
            _placement(p)
    n = placements[0].n if placements else 0
    if len(set(map(attrgetter("n"), placements))) > 1:
        other = next(p.n for p in placements if p.n != n)
        raise AmbientError(f"placements on boards of sizes {n} and {other}")
    return _root_arrays(n, list(map(attrgetter("roots"), placements)))


def _root_arrays(n: int, roots: list[tuple[Root, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """root_arrays of the placements on the board of size n with the root
    tuples `roots`, which it does not check: root_arrays guards its own
    input, and _check_batch checks the arrays this returns."""
    sizes = np.fromiter(map(len, roots), dtype=np.intp, count=len(roots))
    cells = np.fromiter(
        chain.from_iterable(chain.from_iterable(roots)), dtype=np.intp, count=2 * int(sizes.sum())
    ).reshape(-1, 2)
    filled = np.arange(sizes.max(initial=0)) < sizes[:, None]
    rows = np.zeros(filled.shape, dtype=np.intp)
    cols = np.full(filled.shape, n + 1, dtype=np.intp)
    # a boolean mask assigns in row-major order, i.e. placement by placement
    rows[filled], cols[filled] = cells[:, 0], cells[:, 1]
    return rows, cols

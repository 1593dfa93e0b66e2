"""Cover moves: the placements lying directly below a given one.

Each move replaces source roots S of a placement D by target roots T,
giving a placement strictly below D in the dominance order; together
the families (removal, rightward and upward slides, crossing swaps and
splits) give exactly the lower covers of D.  The orthogonal poset is
not an induced subposet of the general one, so its moves differ, but
one engine serves both kinds.  The kind enters only through the rules
that propose candidates:

* the full indices are those that are both a row and a column of D for
  general placements, and a row or a column for orthogonal ones.  A
  root (i, j) may be removed when every index strictly between j and i
  is full; slides and splits look at the non-full indices between them.
* a rightward slide of (i, j) goes to (i, m) for the first non-full m
  above j, an upward slide to (m, j) for the first non-full m below i;
  for general placements m must be a row only, resp. a column only.
  Nested roots (i, j) < (a, b) cross to (i, b) and (a, j).  Orthogonal
  roots interleaved as j < b < i < a cross to (b, j) and (a, i) when
  every index strictly between b and i is full.  A split of (i, j) into
  (i, b) and (a, j) needs every index strictly between a and b full;
  for general placements either a = b is neither a row nor a column, or
  a < b with a a column only and b a row only; for orthogonal ones
  a < b and both are neither.

One rule then keeps the covers among the candidates: the move is
blocked when a root p of D outside S lies below a root of S but below
no root of T, in the root order (a, b) <= (c, d) iff c >= a and d <= b.
On bitmasks over D's roots, with under(x) the roots weakly below x, the
rule reads under(S) & ~bits(S) & ~under(T) != 0.  Two prefix tables per
placement, row_le[i] (the roots with row <= i) and col_ge[j] (those with
col >= j), give under(i, j) = row_le[i] & col_ge[j] in O(1).
A target shares a row or a column with a source, so it never equals a
kept root and the non-strict order is exact.  This is each family's own
condition: for a removal T is empty, so (i, j) must be minimal; for a
slide to (i, m), as m is not a column, it is "a < i and j < b < m" for
the roots (a, b), and its mirror for an upward slide; for a nested swap
a root below (i, j) is below (i, b), which leaves the roots strictly
between the pair; for an interleaved swap no root is below both (i, j)
and (a, i), nor below both (a, b) and (b, j); a split is unchanged.

A move that passes is built without a search: D's roots are sorted, so
the kept roots are the slices of D around the one or two source
indices, and RookPlacement(n, kept + target), the one checked
constructor, sorts and checks the result like any other placement.

The anti-transpose phi(i, j) = (n+1-j, n+1-i) is an order automorphism
that maps the moves of D onto those of phi(D) with the slide directions
exchanged; the tests check this, and no code path uses it.

A move never touches the board size.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Iterator, Literal, NamedTuple

from .errors import OrthogonalityError
from .placements import Root, RookPlacement, _placement, roots_to_text

MoveKind = Literal[
    "remove",
    "slide_right",
    "slide_up",
    "cross_general",
    "cross_orthogonal",
    "split_general",
    "split_orthogonal",
]


class CoverMove(NamedTuple):
    """One application of a move family: result = (D - source) + target."""

    kind: MoveKind
    source: tuple[Root, ...]
    target: tuple[Root, ...]
    result: RookPlacement

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "source": roots_to_text(self.source),
            "target": roots_to_text(self.target),
            "result": self.result.to_text(),
        }


def _candidates(
    d: RookPlacement, orthogonal: bool
) -> Iterator[tuple[MoveKind, tuple[Root, ...], tuple[tuple[int, int], ...]]]:
    """(kind, source, target) for every move the full-index and endpoint
    rules allow, in family order and then in the order of D's roots;
    source holds D's roots and target bare (row, col) pairs, both sorted."""
    rows, cols = d.rows, d.cols
    full = (rows | cols) if orthogonal else (rows & cols)
    rooks = [(r, *r) for r in d.roots]  # each root with its row and column
    # the non-full indices strictly between the column and the row of each root
    gaps = [(r, i, j, [k for k in range(j + 1, i) if k not in full]) for r, i, j in rooks]
    for r, i, j, free in gaps:
        if not free:
            yield "remove", (r,), ()
    for r, i, j, free in gaps:
        if free:
            m = free[0]
            if orthogonal or (m in rows and m not in cols):
                yield "slide_right", (r,), ((i, m),)
    for r, i, j, free in gaps:
        if free:
            m = free[-1]
            if orthogonal or (m in cols and m not in rows):
                yield "slide_up", (r,), ((m, j),)
    for r, i, j in rooks:
        for q, a, b in rooks:
            if i < a and b < j:
                yield "cross_general", (r, q), ((i, b), (a, j))
    if orthogonal:
        for r, i, j in rooks:
            for q, a, b in rooks:
                if j < b < i < a and all(k in full for k in range(b + 1, i)):
                    yield "cross_orthogonal", (r, q), ((b, j), (a, i))
    split = "split_orthogonal" if orthogonal else "split_general"
    for r, i, j, free in gaps:
        for x, a in enumerate(free):
            if not orthogonal and a not in rows and a not in cols:
                yield split, (r,), ((a, j), (i, a))
            if x + 1 < len(free):
                b = free[x + 1]
                if orthogonal or (
                    a in cols and a not in rows and b in rows and b not in cols
                ):
                    yield split, (r,), ((a, j), (i, b))


def _cover_moves(d: RookPlacement, orthogonal: bool) -> list[CoverMove]:
    """Every cover move of D for one kind, in family order."""
    roots = d.roots
    # at[i] is the index in D of the root in row i, and bit k stands for
    # the root at index k; the roots weakly below a cell (i, j) are
    # row_le[i] & col_ge[j], those with row <= i and col >= j
    row_le, col_ge, at = [0] * (d.n + 1), [0] * (d.n + 1), {}
    for k, (i, j) in enumerate(roots):
        row_le[i] = col_ge[j] = 1 << k
        at[i] = k
    row_le = list(accumulate(row_le, or_))
    col_ge = list(accumulate(reversed(col_ge), or_))[::-1]
    moves = []
    for kind, source, target in _candidates(d, orthogonal):
        # the kept roots below the one or two source roots...
        (i, j), (a, b) = source[0], source[-1]
        k, x = at[i], at[a]  # k == x for one source root, else k < x
        below = (row_le[i] & col_ge[j] | row_le[a] & col_ge[b]) & ~(1 << k | 1 << x)
        for i, j in target:  # ...each need a target above them
            below &= ~(row_le[i] & col_ge[j])
        if below:
            continue
        # tuple() of a list, not of a generator: CPython builds the latter
        # at a guessed size and shrinks it, which bypasses its tuple free
        # lists on allocation but refills them on release, growing memory
        added = tuple([Root(i, j) for i, j in target])
        kept = roots[:k] + roots[k + 1 : x] + roots[x + 1 :]
        moves.append(CoverMove(kind, source, added, RookPlacement(d.n, kept + added)))
    return moves


def moves_general(d: RookPlacement) -> list[CoverMove]:
    """All cover moves of a placement, in family order: removals, right
    slides, up slides, crossing swaps, splits."""
    return _cover_moves(_placement(d), orthogonal=False)


def moves_orthogonal(d: RookPlacement) -> list[CoverMove]:
    """All cover moves of an orthogonal placement, in family order.

    The nested crossing swap is the general one: on orthogonal input it
    stays inside the orthogonal family because it only re-pairs the four
    endpoint indices.  Each result is checked and a violation raises,
    since silently dropping one would hide a real bug.
    """
    if not _placement(d).is_orthogonal():
        raise OrthogonalityError(f"placement {d.to_text()!r} is not orthogonal")
    moves = _cover_moves(d, orthogonal=True)
    for m in moves:
        if not m.result.is_orthogonal():
            raise OrthogonalityError(
                f"{m.kind} on {d.to_text()!r} left the orthogonal family: "
                f"{m.result.to_text()!r}"
            )
    return moves


def predecessors_general(d: RookPlacement) -> set[RookPlacement]:
    """Distinct results of all general cover moves."""
    return {m.result for m in moves_general(d)}


def predecessors_orthogonal(d: RookPlacement) -> set[RookPlacement]:
    """Distinct results of all orthogonal cover moves."""
    return {m.result for m in moves_orthogonal(d)}

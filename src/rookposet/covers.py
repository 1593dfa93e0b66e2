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

One pass over D's sorted roots runs the families in turn: each proposes
its candidates, tests them by the rule, and builds the target Roots of a
move that passes, so the kept roots are D's roots without the one or two
source indices.  placements._replaced builds the result: it puts the
targets into the kept roots by bisect and checks only them, in O(1).
That check is complete, as D is a valid placement and only a target can
break a rule: a target must lie on the board, its row and its column
must not be D's unless a source root frees them, and two targets must not
share a row or a column.  Any failure goes to RookPlacement, the checked
constructor, which raises its own error.

The anti-transpose phi(i, j) = (n+1-j, n+1-i) is an order automorphism
that maps the moves of D onto those of phi(D) with the slide directions
exchanged; the tests check this, and no code path uses it.

A move never touches the board size.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Literal, NamedTuple

from .errors import OrthogonalityError
from .placements import Root, RookPlacement, _orthogonal, _placement, _replaced, roots_to_text

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


def _cover_moves(d: RookPlacement, orthogonal: bool) -> list[CoverMove]:
    """Every cover move of D for one kind, in family order and then in the
    order of D's roots: each family proposes its candidates, the one rule
    tests them, and only a move that passes builds its target Roots."""
    n, roots = d
    rows, cols = d.rows, d.cols
    full = (rows | cols) if orthogonal else (rows & cols)
    # bit k stands for the root at index k; the roots weakly below a cell
    # (i, j) are row_le[i] & col_ge[j], those with row <= i and col >= j
    row_le, col_ge = [0] * (n + 1), [0] * (n + 1)
    for k, (i, j) in enumerate(roots):
        row_le[i] = col_ge[j] = 1 << k
    row_le = list(accumulate(row_le, or_))
    col_ge = list(accumulate(reversed(col_ge), or_))[::-1]
    # each root with its index, its cell, the other roots below it and the
    # non-full indices strictly between its column and its row
    rooks = []
    for k, r in enumerate(roots):
        i, j = r
        free = [m for m in range(j + 1, i) if m not in full]
        rooks.append((k, r, i, j, row_le[i] & col_ge[j] & ~(1 << k), free))
    moves = []

    def move(kind: MoveKind, source: tuple[Root, ...], k: int, x: int, *added: Root) -> None:
        moves.append(CoverMove(kind, source, added, _replaced(d, k, x, added, rows, cols)))

    # a move is a cover iff each kept root below a source is below a target
    for k, r, i, j, below, free in rooks:
        if not free and not below:
            move("remove", (r,), k, k)
    for k, r, i, j, below, free in rooks:
        if free and (orthogonal or (free[0] in rows and free[0] not in cols)):
            m = free[0]
            if not below & ~(row_le[i] & col_ge[m]):
                move("slide_right", (r,), k, k, Root(i, m))
    for k, r, i, j, below, free in rooks:
        if free and (orthogonal or (free[-1] in cols and free[-1] not in rows)):
            m = free[-1]
            if not below & ~(row_le[m] & col_ge[j]):
                move("slide_up", (r,), k, k, Root(m, j))
    # the roots are sorted by row, so the pairs with i < a are those x > k;
    # the source (i, j) lies below (a, b), but also below the target (i, b)
    for k, r, i, j, below, free in rooks:
        for x, q, a, b, over, _ in rooks[k + 1 :]:
            if b < j and not (below | over) & ~(row_le[i] & col_ge[b] | row_le[a] & col_ge[j]):
                move("cross_general", (r, q), k, x, Root(i, b), Root(a, j))
    if orthogonal:
        for k, r, i, j, below, free in rooks:
            for x, q, a, b, over, _ in rooks[k + 1 :]:
                # b is a column, so full: the indices strictly between b and
                # i are full iff no free index of (i, j) lies above b; neither
                # source lies below the other
                if j < b < i and not (free and free[-1] > b):
                    if not (below | over) & ~(row_le[b] & col_ge[j] | row_le[a] & col_ge[i]):
                        move("cross_orthogonal", (r, q), k, x, Root(b, j), Root(a, i))
    split = "split_orthogonal" if orthogonal else "split_general"
    for k, r, i, j, below, free in rooks:
        for y, a in enumerate(free):
            if not orthogonal and a not in rows and a not in cols:
                if not below & ~(row_le[a] & col_ge[j] | row_le[i] & col_ge[a]):
                    move(split, (r,), k, k, Root(a, j), Root(i, a))
            if y + 1 < len(free):
                b = free[y + 1]
                if orthogonal or (a in cols and a not in rows and b in rows and b not in cols):
                    if not below & ~(row_le[a] & col_ge[j] | row_le[i] & col_ge[b]):
                        move(split, (r,), k, k, Root(a, j), Root(i, b))
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
    moves = _cover_moves(_orthogonal(d), orthogonal=True)
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

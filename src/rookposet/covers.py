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

The proposal phase, _proposals, works on int bitmasks over D's indices:
its rows, its columns, the full indices, and the row-only and column-only
indices a general slide must end on.  The non-full indices strictly
between j and i, where a slide or a split may go, are the bits of
((1 << i) - (2 << j)) & ~full; the first of them is the lowest set bit
and the last the highest, and one walk over the set bits in order, with
no index in between, proposes the splits.  One pass over D's roots
fills one list per family, and the lists are joined in family order, so
the moves come in family order and then in the order of D's roots.
Neither swap tests every pair of roots.  A nested swap of (i, j) with a
later root (a, b), b < j, can only be blocked by a root below (a, b)
but below neither (i, b) nor (a, j): one whose row lies strictly
between i and a and whose column strictly between b and j.  So (a, b)
passes iff b exceeds every column below j among the roots whose rows
lie strictly between i and a: a staircase scan over the later roots,
with no mask, that is exactly the mask rule.
An interleaved swap's b is a column in the run of full indices just
below i, above the last free index, so only the roots of those columns
are tested.

A proposal is (kind, k, x, targets): replace D's roots at indices
k <= x (k == x for one) by the targets, plain (row, col) int pairs.
_cover_moves wraps each proposal in a CoverMove, whose target Roots and
result come from the one builder placements._replaced, and
predecessors_* are the distinct results of moves_*.  The builder puts
the targets into the kept roots by bisect and checks only them, in
O(1).  That check is complete, as D is a valid placement and only a
target can break a rule: a target must be a cell of the board,
0 < col < row <= n, its row and its column must not be D's unless a
source root frees them, and two targets must not share a row or a
column.  Only then does it build the target Roots, past their
constructor; any failure goes to Root and RookPlacement, the checked
constructors, which raise their own error.

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


Proposal = tuple[MoveKind, int, int, tuple[tuple[int, int], ...]]


def _proposals(d: RookPlacement, orthogonal: bool) -> tuple[int, int, list[Proposal]]:
    """D's rows and columns as bitmasks over the indices, and every cover
    move of D for one kind as (kind, k, x, targets): it replaces D's roots
    at indices k <= x (k == x for one) by the (row, col) pairs `targets`.
    In family order and then in the order of D's roots."""
    n, roots = d
    # zip transposes in C: unpacking a Root, a tuple subclass, is slow
    row_of, col_of = zip(*roots) if roots else ((), ())
    # distinct powers of two, so that their sum is their union
    rows = sum(map((1).__lshift__, row_of))
    cols = sum(map((1).__lshift__, col_of))
    used = rows | cols
    full = used if orthogonal else rows & cols
    # the free indices a slide may go to: any of an orthogonal placement;
    # for a general one a row only (rightward) or a column only (upward)
    rightward = -1 if orthogonal else rows & ~cols
    upward = -1 if orthogonal else cols & ~rows
    # bit k stands for the root at index k; the roots weakly below a cell
    # (i, j) are row_le[i] & col_ge[j], those with row <= i and col >= j
    row_le, at_col = [0] * (n + 1), [0] * (n + 1)
    for k, i in enumerate(row_of):
        row_le[i] = at_col[col_of[k]] = 1 << k
    row_le = list(accumulate(row_le, or_))
    col_ge = list(accumulate(reversed(at_col), or_))[::-1]
    removals, rights, ups, crosses, swaps, splits = [], [], [], [], [], []
    split = "split_orthogonal" if orthogonal else "split_general"
    for k, i in enumerate(row_of):
        j = col_of[k]
        # the other roots below (i, j), and the non-full indices strictly
        # between its column and its row; a move is a cover iff each kept
        # root below a source is below a target
        below = row_le[i] & col_ge[j] & ~(1 << k)
        free = ((1 << i) - (2 << j)) & ~full
        if not free:
            if not below:
                removals.append(("remove", k, k, ()))
        else:
            m = (free & -free).bit_length() - 1
            if rightward >> m & 1 and not below & ~(row_le[i] & col_ge[m]):
                rights.append(("slide_right", k, k, ((i, m),)))
            last = free.bit_length() - 1
            if upward >> last & 1 and not below & ~(row_le[last] & col_ge[j]):
                ups.append(("slide_up", k, k, ((last, j),)))
            # a split to (a, j) and (i, b): for orthogonal D, a < b are
            # consecutive free indices; for general D either a = b is neither
            # a row nor a column, or a < b are consecutive free indices, a
            # column only and b a row only (a free general index is never
            # both).  The walk meets the free indices b in order, each after
            # a, the one before it (0 before the first, which no index is)
            a, rest = 0, free
            while rest:
                b = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if a and (orthogonal or (cols >> a & 1 and rows >> b & 1)):
                    if not below & ~(row_le[a] & col_ge[j] | row_le[i] & col_ge[b]):
                        splits.append((split, k, k, ((a, j), (i, b))))
                if not (orthogonal or used >> b & 1):
                    if not below & ~(row_le[b] & col_ge[j] | row_le[i] & col_ge[b]):
                        splits.append((split, k, k, ((b, j), (i, b))))
                a = b
        # the later roots (a, b) with b < j whose nested swap passes: no root
        # with a row strictly between i and a has a column between b and j,
        # so b exceeds top, the largest column below j of the roots between
        top = 0
        for x in range(k + 1, len(row_of)):
            b = col_of[x]
            if top < b < j:
                top = b
                crosses.append(("cross_general", k, x, ((i, b), (row_of[x], j))))
        if orthogonal:
            # interleaved j < b < i < a: b is a column, so full, and the
            # indices strictly between b and i are full iff b lies in the run
            # of full indices just below i, above the last free index; the
            # bits of their roots, kept past k, come in the order of D's roots
            low = free.bit_length() - 1 if free else j
            run = cols & ((1 << i) - (2 << low))
            later = 0
            while run:
                b = (run & -run).bit_length() - 1
                run &= run - 1
                later |= at_col[b]
            later &= -(2 << k)
            while later:
                x = (later & -later).bit_length() - 1
                later &= later - 1
                a, b = row_of[x], col_of[x]
                over = row_le[a] & col_ge[b] & ~(1 << x)
                if not (below | over) & ~(row_le[b] & col_ge[j] | row_le[a] & col_ge[i]):
                    swaps.append(("cross_orthogonal", k, x, ((b, j), (a, i))))
    return rows, cols, removals + rights + ups + crosses + swaps + splits


def _cover_moves(d: RookPlacement, orthogonal: bool) -> list[CoverMove]:
    """The proposals of D as CoverMoves: the source Roots are D's, and the
    target Roots and the result come from the builder.  For orthogonal D a
    result whose rows and columns, D's index bitmasks less the sources' bits
    and plus the targets', share a bit raises: dropping it would hide a bug."""
    rows, cols, proposals = _proposals(d, orthogonal)
    roots = d.roots
    row_of, col_of = zip(*roots) if roots else ((), ())
    moves = []
    for kind, k, x, targets in proposals:
        target, result = _replaced(d, k, x, targets, rows, cols)
        source = roots[k : k + 1] if k == x else (roots[k], roots[x])
        if orthogonal:
            r = rows & ~(1 << row_of[k] | 1 << row_of[x])
            c = cols & ~(1 << col_of[k] | 1 << col_of[x])
            for p, q in targets:
                r, c = r | 1 << p, c | 1 << q
            if r & c:
                raise OrthogonalityError(
                    f"{kind} on {d.to_text()!r} left the orthogonal family: {result.to_text()!r}"
                )
        moves.append(CoverMove(kind, source, target, result))
    return moves


def moves_general(d: RookPlacement) -> list[CoverMove]:
    """All cover moves of a placement, in family order: removals, right
    slides, up slides, crossing swaps, splits."""
    return _cover_moves(_placement(d), orthogonal=False)


def moves_orthogonal(d: RookPlacement) -> list[CoverMove]:
    """All cover moves of an orthogonal placement, in family order.

    The nested crossing swap is the general one: on orthogonal input it
    stays inside the orthogonal family because it only re-pairs the four
    endpoint indices.  _cover_moves checks each result.
    """
    return _cover_moves(_orthogonal(d), orthogonal=True)


def predecessors_general(d: RookPlacement) -> set[RookPlacement]:
    """Distinct results of all general cover moves."""
    return {m.result for m in moves_general(d)}


def predecessors_orthogonal(d: RookPlacement) -> set[RookPlacement]:
    """Distinct results of all orthogonal cover moves."""
    return {m.result for m in moves_orthogonal(d)}

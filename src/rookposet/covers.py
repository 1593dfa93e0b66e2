"""Cover moves: the placements lying directly below a given one.

Each move takes a placement D to a placement strictly below it in the
dominance order, and the union of all families yields exactly the
lower covers of D (the edges entering D in the Hasse diagram).  The
families are removal, rightward and upward slides, crossing swaps and
splits.  The poset of orthogonal placements is not an induced subposet
of the general one, so its moves differ, but one engine serves both
kinds.  The kind enters only through:

* the full indices: those that are both a row and a column of D for
  general placements, and those that are a row or a column of D for
  orthogonal ones.  A minimal root (i, j) may be removed when every
  index strictly between j and i is full; a slide or split only looks
  at the non-full indices strictly between j and i.
* the endpoint rules.  A rightward slide of (i, j) targets the first
  non-full index m in (j, i); for general placements m must be a row
  but not a column of D, for orthogonal ones neither.  A split of
  (i, j) into (i, b) and (a, j) needs every index strictly between a
  and b full; for general placements either a = b is neither a row nor
  a column, or a < b with a a column only and b a row only; for
  orthogonal ones a < b and both are neither.
* the interleaved crossing swap, which only orthogonal placements have.

The anti-transpose phi(i, j) = (n+1-j, n+1-i) is an order automorphism
of both posets: the rows of phi(D) are the indices n+1-c for the columns
c of D, and its columns are n+1-r for the rows r.  It maps the moves of
D onto the moves of phi(D) with the two slide directions exchanged, so
the upward slide is computed as phi, then the rightward slide, then phi
again.

A move never touches the board size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Literal

from .errors import OrthogonalityError
from .order import minimal_roots, root_leq
from .placements import Root, RookPlacement, roots_to_text

MoveKind = Literal[
    "remove",
    "slide_right",
    "slide_up",
    "cross_general",
    "cross_orthogonal",
    "split_general",
    "split_orthogonal",
]


@dataclass(frozen=True)
class CoverMove:
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


def _below(a: Root, b: Root) -> bool:
    # strict root order
    return a != b and root_leq(a, b)


def _move(
    kind: MoveKind, d: RookPlacement, source: tuple[Root, ...], target: tuple[Root, ...]
) -> CoverMove:
    result = d.replace(remove=source, add=target)
    return CoverMove(kind, tuple(sorted(source)), tuple(sorted(target)), result)


def _slides_right(
    cells: list[tuple[int, int]],
    rows: AbstractSet[int],
    cols: AbstractSet[int],
    full: AbstractSet[int],
    orthogonal: bool,
) -> list[tuple[int, int, int]]:
    """(i, j, m) for every rightward slide of a root (i, j) to (i, m), in
    the order of `cells`.

    m is the first non-full index strictly between j and i and must meet
    the endpoint rule.  A root strictly below (i, j) but not strictly
    below (i, m) blocks the slide; as m is not a column of D, those are
    the roots (a, b) with a < i and j < b < m.  Roots are plain
    (row, col) pairs here so that mirroring them costs no Root objects.
    """
    slides = []
    for i, j in cells:
        for m in range(j + 1, i):
            if m not in full:
                break
        else:
            continue
        if not (orthogonal or (m in rows and m not in cols)):
            continue
        if any(a < i and j < b < m for a, b in cells):
            continue
        slides.append((i, j, m))
    return slides


def _slides_up(
    d: RookPlacement, full: frozenset[int], orthogonal: bool
) -> list[tuple[int, int, int]]:
    """(i, j, m) for every upward slide of a root (i, j) of D to (m, j),
    computed as phi of the rightward slides of phi(D).  The mirrored roots
    keep the order of D's roots, so the slides come out in that order."""
    n = d.n
    slides = _slides_right(
        [(n + 1 - r.col, n + 1 - r.row) for r in d.roots],
        {n + 1 - k for k in d.cols},
        {n + 1 - k for k in d.rows},
        {n + 1 - k for k in full},
        orthogonal,
    )
    return [(n + 1 - j, n + 1 - i, n + 1 - m) for i, j, m in slides]


def _crosses_nested(d: RookPlacement) -> list[CoverMove]:
    """For nested roots (i, j) < (a, b) of D with no root of D strictly
    between them, trade the pair for (i, b) and (a, j)."""
    moves = []
    for low in d.roots:
        for high in d.roots:
            if not _below(low, high):
                continue
            if any(_below(low, p) and _below(p, high) for p in d.roots):
                continue
            target = (Root(low.row, high.col), Root(high.row, low.col))
            moves.append(_move("cross_general", d, (low, high), target))
    return moves


def _crosses_interleaved(d: RookPlacement, full: frozenset[int]) -> list[CoverMove]:
    """For roots (i, j) and (a, b) of D interleaved as j < b < i < a,
    trade the pair for (b, j) and (a, i).

    Requires every index strictly between b and i to be full, and no
    root of D strictly below (i, j) but not strictly below (b, j), nor
    strictly below (a, b) but not strictly below (a, i).
    """
    moves = []
    for outer in d.roots:
        i, j = outer.row, outer.col
        for inner in d.roots:
            a, b = inner.row, inner.col
            if not (j < b < i < a):
                continue
            if any(k not in full for k in range(b + 1, i)):
                continue
            low, high = Root(b, j), Root(a, i)
            if any(
                (_below(p, outer) and not _below(p, low))
                or (_below(p, inner) and not _below(p, high))
                for p in d.roots
            ):
                continue
            moves.append(_move("cross_orthogonal", d, (outer, inner), (low, high)))
    return moves


def _splits(d: RookPlacement, full: frozenset[int], orthogonal: bool) -> list[CoverMove]:
    """Split a root (i, j) into (i, b) and (a, j) for non-full indices
    j < a <= b < i with every index between them full, when (a, b) meets
    the endpoint rule and every root of D strictly below (i, j) but not
    strictly below (a, j) lies strictly below (i, b)."""
    rows, cols = d.rows, d.cols
    kind = "split_orthogonal" if orthogonal else "split_general"
    moves = []
    for r in d.roots:
        i, j = r.row, r.col
        free = [k for k in range(j + 1, i) if k not in full]
        for x, a in enumerate(free):
            ends = []
            if not orthogonal and a not in rows and a not in cols:
                ends.append(a)
            if x + 1 < len(free):
                b = free[x + 1]
                if orthogonal or (
                    a in cols and a not in rows and b in rows and b not in cols
                ):
                    ends.append(b)
            for b in ends:
                upper, lower = Root(i, b), Root(a, j)
                if any(
                    _below(p, r) and not _below(p, lower) and not _below(p, upper)
                    for p in d.roots
                ):
                    continue
                moves.append(_move(kind, d, (r,), (upper, lower)))
    return moves


def _cover_moves(d: RookPlacement, orthogonal: bool) -> list[CoverMove]:
    """Every cover move of D for one kind, in family order."""
    rows, cols = d.rows, d.cols
    full = (rows | cols) if orthogonal else (rows & cols)
    moves = [
        _move("remove", d, (r,), ())
        for r in sorted(minimal_roots(d))
        if all(k in full for k in range(r.col + 1, r.row))
    ]
    cells = [(r.row, r.col) for r in d.roots]
    moves += [
        _move("slide_right", d, (Root(i, j),), (Root(i, m),))
        for i, j, m in _slides_right(cells, rows, cols, full, orthogonal)
    ]
    moves += [
        _move("slide_up", d, (Root(i, j),), (Root(m, j),))
        for i, j, m in _slides_up(d, full, orthogonal)
    ]
    moves += _crosses_nested(d)
    if orthogonal:
        moves += _crosses_interleaved(d, full)
    return moves + _splits(d, full, orthogonal)


def moves_general(d: RookPlacement) -> list[CoverMove]:
    """All cover moves of a placement, in family order: removals, right
    slides, up slides, crossing swaps, splits."""
    return _cover_moves(d, orthogonal=False)


def moves_orthogonal(d: RookPlacement) -> list[CoverMove]:
    """All cover moves of an orthogonal placement, in family order.

    The nested crossing swap is the general one: on orthogonal input it
    stays inside the orthogonal family because it only re-pairs the four
    endpoint indices.  Each result is checked and a violation raises,
    since silently dropping one would hide a real bug.
    """
    if not d.is_orthogonal():
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

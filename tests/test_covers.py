from __future__ import annotations

import hashlib
import json
import re
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rookposet.covers
from conftest import orthogonal_placements, placements
from rookposet import (
    AmbientError,
    AttackError,
    CoverMove,
    OrthogonalityError,
    Root,
    RookError,
    RookPlacement,
    build_poset,
    enumerate_placements,
    kerov_map,
    leq_placement,
    moves_general,
    moves_orthogonal,
    parse_placement,
    predecessors_general,
    predecessors_orthogonal,
    rank_general,
    rank_orthogonal,
    validate_placement,
)
from rookposet.covers import MoveKind
from rookposet.placements import _replaced
from rookposet.poset import brute_force_covers

BIG = "3,1;6,2;7,3;5,4;8,5"  # a well-trodden 8-board placement

SIZE_DELTA = {
    "remove": -1,
    "slide_right": 0,
    "slide_up": 0,
    "cross_general": 0,
    "cross_orthogonal": 0,
    "split_general": 1,
    "split_orthogonal": 1,
}


# sha256 of the compact JSON of every move list of general n = 1..7, then
# orthogonal n = 1..8, in enumeration order; computed on the two separate
# hand-written move catalogues this engine replaced.
MOVE_LISTS_SHA256 = "5c9d19df64f2c241dbb6e62f4c3a0bd2e70e587d029993df783f5a2d6e3f7147"

SLIDES_SWAPPED = {"slide_right": "slide_up", "slide_up": "slide_right"}


def _pairwise_blocked(cells, source, target):
    """True when a kept root of D lies below a source root but below no
    target root, so that the move is not a cover."""
    return any(
        p not in source
        and any(p[0] <= s[0] and p[1] >= s[1] for s in source)
        and not any(p[0] <= t[0] and p[1] >= t[1] for t in target)
        for p in cells
    )


# The candidate proposer of the earlier two-loop engine, kept here so that
# the reference below shares no code with the one-pass engine.
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


def pairwise_cover_moves(d, orthogonal):
    """The cover rule root by root, and every result through the public
    constructor: the reference for the bitmask test of the engine."""
    by_cell = {(r.row, r.col): r for r in d.roots}
    cells = list(by_cell)
    moves = []
    for kind, source, target in _candidates(d, orthogonal):
        if _pairwise_blocked(cells, source, target):
            continue
        kept = tuple([r for c, r in by_cell.items() if c not in source])
        added = tuple([Root(i, j) for i, j in target])
        result = RookPlacement(d.n, kept + added)
        moves.append(CoverMove(kind, tuple([by_cell[c] for c in source]), added, result))
    return moves


def _assert_matches_pairwise(d, orthogonal):
    moves = (moves_orthogonal if orthogonal else moves_general)(d)
    reference = pairwise_cover_moves(d, orthogonal)
    assert moves == reference
    assert all(type(r) is Root for m in moves for r in m.source + m.target)


def _by_kind(moves, kind):
    return [m for m in moves if m.kind == kind]


def _removable(d):
    return {m.source[0] for m in _by_kind(moves_general(d), "remove")}


def _phi_root(r, n):
    return Root(n + 1 - r.col, n + 1 - r.row)


def _phi(d):
    """Anti-transpose of a placement: (i, j) -> (n+1-j, n+1-i)."""
    return validate_placement([_phi_root(r, d.n) for r in d.roots], d.n)


def _comparable(moves):
    return sorted((m.kind, m.source, m.target, m.result.to_text()) for m in moves)


def _assert_phi_equivariant(moves_of, d):
    # phi maps the moves of D onto the moves of phi(D), slide directions swapped
    mirrored = [
        (
            SLIDES_SWAPPED.get(m.kind, m.kind),
            tuple(sorted(_phi_root(r, d.n) for r in m.source)),
            tuple(sorted(_phi_root(r, d.n) for r in m.target)),
            _phi(m.result).to_text(),
        )
        for m in moves_of(d)
    ]
    assert _comparable(moves_of(_phi(d))) == sorted(mirrored)


def test_removal_candidates_known_values():
    d = parse_placement(BIG, 8)
    assert _removable(d) == {Root(5, 4)}
    assert _removable(parse_placement("2,1", 3)) == {Root(2, 1)}
    # index 2 is neither a row nor a column, so (3,1) cannot be removed
    assert _removable(parse_placement("3,1", 3)) == frozenset()


def test_removal_result_known_value():
    d = parse_placement(BIG, 8)
    (move,) = _by_kind(moves_general(d), "remove")
    assert move.source == (Root(5, 4),)
    assert move.result.to_text() == "3,1;6,2;7,3;8,5"


def test_slide_right_known_value():
    d = parse_placement(BIG, 8)
    (move,) = _by_kind(moves_general(d), "slide_right")
    assert move.source == (Root(8, 5),)
    assert move.target == (Root(8, 6),)
    assert move.result.to_text() == "3,1;5,4;6,2;7,3;8,6"


def test_slide_up_known_value():
    d = parse_placement(BIG, 8)
    (move,) = _by_kind(moves_general(d), "slide_up")
    assert move.source == (Root(3, 1),)
    assert move.target == (Root(2, 1),)
    assert move.result.to_text() == "2,1;5,4;6,2;7,3;8,5"


def test_cross_known_value():
    d = parse_placement(BIG, 8)
    crosses = _by_kind(moves_general(d), "cross_general")
    results = {m.result.to_text() for m in crosses}
    assert "3,1;5,2;6,4;7,3;8,5" in results  # trades (5,4) and (6,2)
    sources = {m.source for m in crosses}
    assert (Root(5, 4), Root(6, 2)) in sources


def test_split_known_value():
    d = parse_placement("4,1;6,2;5,4", 6)
    splits = _by_kind(moves_general(d), "split_general")
    anchored = [m for m in splits if m.source == (Root(6, 2),)]
    (move,) = anchored
    assert set(move.target) == {Root(6, 3), Root(3, 2)}
    assert move.result.to_text() == "3,2;4,1;5,4;6,3"


def test_orthogonal_cross_known_value():
    d = parse_placement("5,1;6,2;8,4", 8)
    crosses = _by_kind(moves_orthogonal(d), "cross_orthogonal")
    moves = [m for m in crosses if m.source == (Root(6, 2), Root(8, 4))]
    (move,) = moves
    assert set(move.target) == {Root(4, 2), Root(8, 6)}
    assert move.result.to_text() == "4,2;5,1;8,6"


def test_orthogonal_split_known_value():
    d = parse_placement("4,1;8,2;7,6", 8)
    (move,) = _by_kind(moves_orthogonal(d), "split_orthogonal")
    assert move.source == (Root(8, 2),)
    assert set(move.target) == {Root(3, 2), Root(8, 5)}
    assert move.result.to_text() == "3,2;4,1;7,6;8,5"


def test_empty_placement_has_no_predecessors():
    assert predecessors_general(parse_placement("", 4)) == set()
    assert predecessors_orthogonal(parse_placement("", 4)) == set()


def test_single_rook_next_to_diagonal_only_disappears():
    d = parse_placement("2,1", 4)
    assert predecessors_general(d) == {parse_placement("", 4)}


def test_covers_of_a_spread_rook():
    # {(3,1)} is not reached by removal: the only predecessor adds a rook first
    d = parse_placement("3,1", 3)
    assert predecessors_general(d) == {parse_placement("2,1;3,2", 3)}


@pytest.mark.parametrize("n", [3, 4])
def test_general_predecessors_match_poset_covers(n):
    poset = build_poset(n)
    for d in poset.elements:
        assert predecessors_general(d) == brute_force_covers(poset, d)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orthogonal_predecessors_match_poset_covers(n):
    poset = build_poset(n, "orthogonal")
    for d in poset.elements:
        assert predecessors_orthogonal(d) == brute_force_covers(poset, d)


def test_moves_are_strict_descents_with_known_size_change():
    boards = [(moves_general, n, "general") for n in range(1, 7)]
    boards += [(moves_orthogonal, n, "orthogonal") for n in range(1, 8)]
    for moves_of, n, kind in boards:
        for d in enumerate_placements(n, kind):
            for m in moves_of(d):
                assert m.result != d
                assert leq_placement(m.result, d)
                assert m.result.size - d.size == SIZE_DELTA[m.kind]
                assert not set(m.target) & set(d.roots)


@pytest.mark.parametrize(
    "n,kind,edges",
    [
        (8, "general", 20500),
        (9, "orthogonal", 15892),
        pytest.param(10, "general", 820582, marks=pytest.mark.slow),
        pytest.param(12, "orthogonal", 1303036, marks=pytest.mark.slow),
    ],
    ids=["general-8", "orthogonal-9", "general-10", "orthogonal-12"],
)
def test_move_edge_totals_are_the_hasse_edge_counts(n, kind, edges):
    # the Hasse edge counts of build_poset, streamed one element at a time
    # from the moves, with no relation built
    predecessors = predecessors_general if kind == "general" else predecessors_orthogonal
    assert sum(len(predecessors(d)) for d in enumerate_placements(n, kind)) == edges


def test_orthogonal_moves_stay_orthogonal():
    general_kinds = {"remove", "slide_right", "slide_up", "cross_general",
                     "cross_orthogonal", "split_orthogonal"}
    for d in enumerate_placements(5, "orthogonal"):
        for m in moves_orthogonal(d):  # raises internally on a closure violation
            assert m.result.is_orthogonal()
            assert m.kind in general_kinds


def test_orthogonal_closure_violation_raises(monkeypatch):
    d = parse_placement("2,1", 4)
    skew = parse_placement("3,2;4,3", 4)
    bad = CoverMove("slide_up", (Root(2, 1),), (Root(3, 2),), skew)
    monkeypatch.setattr(rookposet.covers, "_cover_moves", lambda d, orthogonal: [bad])
    with pytest.raises(OrthogonalityError, match="slide_up .* left the orthogonal family"):
        moves_orthogonal(d)


def test_orthogonal_families_reject_general_placements():
    skew = parse_placement("3,2;4,3", 4)
    for fn in (predecessors_orthogonal, moves_orthogonal):
        with pytest.raises(OrthogonalityError):
            fn(skew)


def test_cover_move_json_shape():
    d = parse_placement(BIG, 8)
    (move,) = _by_kind(moves_general(d), "slide_right")
    assert move.to_json() == {
        "kind": "slide_right",
        "source": "8,5",
        "target": "8,6",
        "result": "3,1;5,4;6,2;7,3;8,6",
    }
    assert repr(move) == (
        "CoverMove(kind='slide_right', source=(Root(row=8, col=5),), "
        "target=(Root(row=8, col=6),), result=RookPlacement(n=8, roots=("
        "Root(row=3, col=1), Root(row=5, col=4), Root(row=6, col=2), "
        "Root(row=7, col=3), Root(row=8, col=6))))"
    )
    with pytest.raises(AttributeError):
        move.kind = "remove"


@settings(max_examples=60)
@given(placements(max_n=7))
def test_every_general_move_descends(d):
    for m in moves_general(d):
        assert leq_placement(m.result, d) and m.result != d


@settings(max_examples=60)
@given(orthogonal_placements(max_n=8))
def test_every_orthogonal_move_descends(d):
    for m in moves_orthogonal(d):
        assert leq_placement(m.result, d) and m.result != d
        assert m.result.is_orthogonal()


@settings(max_examples=60)
@given(placements(min_n=10, max_n=16))
def test_general_moves_are_covers_past_the_horizon(d):
    rank = rank_general(d)
    image_covers = predecessors_orthogonal(kerov_map(d))
    for m in moves_general(d):
        assert leq_placement(m.result, d) and not leq_placement(d, m.result)
        assert rank_general(m.result) == rank - 1
        assert kerov_map(m.result) in image_covers


@settings(max_examples=60)
@given(orthogonal_placements(min_n=10, max_n=16))
def test_orthogonal_moves_are_covers_past_the_horizon(d):
    rank = rank_orthogonal(d)
    for m in moves_orthogonal(d):
        assert leq_placement(m.result, d) and not leq_placement(d, m.result)
        assert rank_orthogonal(m.result) == rank - 1


def test_move_lists_are_pinned():
    lists = [
        [m.to_json() for m in moves_general(d)]
        for n in range(1, 8)
        for d in enumerate_placements(n)
    ]
    lists += [
        [m.to_json() for m in moves_orthogonal(d)]
        for n in range(1, 9)
        for d in enumerate_placements(n, "orthogonal")
    ]
    blob = json.dumps(lists, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == MOVE_LISTS_SHA256


def test_moves_are_phi_equivariant_exhaustive():
    for n in range(1, 7):
        for d in enumerate_placements(n):
            _assert_phi_equivariant(moves_general, d)
    for n in range(1, 8):
        for d in enumerate_placements(n, "orthogonal"):
            _assert_phi_equivariant(moves_orthogonal, d)


@settings(max_examples=40)
@given(placements(min_n=9, max_n=14))
def test_general_moves_are_phi_equivariant(d):
    _assert_phi_equivariant(moves_general, d)


@settings(max_examples=40)
@given(orthogonal_placements(min_n=9, max_n=14))
def test_orthogonal_moves_are_phi_equivariant(d):
    _assert_phi_equivariant(moves_orthogonal, d)


def test_bitmask_cover_rule_matches_the_pairwise_one_exhaustive():
    for n in range(1, 8):
        for d in enumerate_placements(n):
            _assert_matches_pairwise(d, orthogonal=False)
    for n in range(1, 9):
        for d in enumerate_placements(n, "orthogonal"):
            _assert_matches_pairwise(d, orthogonal=True)


@settings(max_examples=80)
@given(placements(min_n=8, max_n=40))
def test_bitmask_cover_rule_matches_the_pairwise_one_general(d):
    _assert_matches_pairwise(d, orthogonal=False)


@settings(max_examples=80)
@given(orthogonal_placements(min_n=8, max_n=40))
def test_bitmask_cover_rule_matches_the_pairwise_one_orthogonal(d):
    _assert_matches_pairwise(d, orthogonal=True)


@st.composite
def sparse_placements(draw, orthogonal: bool, max_n: int = 2000, max_rooks: int = 6):
    """At most max_rooks rooks on a board of up to max_n, so that most rows
    and columns are empty.  Each end of the prefix tables of the engine,
    row n and column 1, holds a rook in about half of the draws."""
    n = draw(st.integers(2, max_n))
    cell = st.integers(2, n).flatmap(lambda i: st.tuples(st.just(i), st.integers(1, i - 1)))
    cells = draw(st.lists(cell, max_size=max_rooks))
    if draw(st.booleans()):
        cells.insert(0, (draw(st.integers(2, n)), 1))
    if draw(st.booleans()):
        cells.insert(0, (n, draw(st.integers(1, n - 1))))
    rows: set[int] = set()
    cols: set[int] = set()
    roots = []
    for i, j in cells:  # keep each cell that attacks none kept before it
        clash = {i, j} & (rows | cols) if orthogonal else i in rows or j in cols
        if not clash and len(roots) < max_rooks:
            roots.append((i, j))
            rows.add(i)
            cols.add(j)
    return validate_placement(roots, n)


# no deadline: one board of n = 2000 has thousands of split moves to check,
# which takes up to about 0.2 s
@settings(max_examples=40, deadline=None)
@given(sparse_placements(orthogonal=False))
def test_bitmask_cover_rule_matches_the_pairwise_one_on_sparse_general_boards(d):
    _assert_matches_pairwise(d, orthogonal=False)


@settings(max_examples=40, deadline=None)
@given(sparse_placements(orthogonal=True))
def test_bitmask_cover_rule_matches_the_pairwise_one_on_sparse_orthogonal_boards(d):
    _assert_matches_pairwise(d, orthogonal=True)


@pytest.mark.parametrize(
    "entry,value",
    [
        (moves_general, "2,1"),
        (moves_orthogonal, None),
        (predecessors_general, [(2, 1)]),
        (predecessors_orthogonal, Root(2, 1)),
    ],
    ids=["moves_general", "moves_orthogonal", "predecessors_general", "predecessors_orthogonal"],
)
def test_move_functions_refuse_what_is_not_a_placement(entry, value):
    with pytest.raises(RookError, match=f"^{re.escape(repr(value))} is not a RookPlacement$"):
        entry(value)


def _outcome(build, *args):
    """What build(*args) returns, or the class and message of its error."""
    try:
        return build(*args)
    except RookError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "k,x,added,error,message",
    [
        (4, 4, (Root(6, 5),), AttackError, "rooks (6,2) and (6,5) share row 6"),
        (4, 4, (Root(8, 2),), AttackError, "rooks (6,2) and (8,2) share column 2"),
        (4, 4, (Root(9, 5),), AmbientError, "root (9,5) outside board of size 8"),
        (0, 1, (Root(4, 1), Root(4, 2)), AttackError, "rooks (4,1) and (4,2) share row 4"),
        (0, 1, (Root(4, 1), Root(5, 1)), AttackError, "rooks (4,1) and (5,1) share column 1"),
        (2, 2, (Root(5, 2), Root(6, 4)), AttackError, "rooks (5,2) and (5,4) share row 5"),
    ],
    ids=["row-taken", "column-taken", "off-board", "targets-share-a-row",
         "targets-share-a-column", "one-freed-one-taken"],
)
def test_a_move_result_that_breaks_a_rule_raises_the_constructors_error(
    k, x, added, error, message
):
    d = parse_placement(BIG, 8)  # 3,1;5,4;6,2;7,3;8,5
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _replaced(d, k, x, added, d.rows, d.cols)


def test_a_move_result_is_the_constructors_placement_or_error_exhaustive():
    # every one of up to two targets, on the board or one row past it, in
    # place of every one or two roots of each placement of R(4) and I(5)
    for n, kind in ((4, "general"), (5, "orthogonal")):
        cells = [Root(i, j) for i in range(2, n + 2) for j in range(1, i)]
        targets = [()] + [(t,) for t in cells]
        targets += [(s, t) for s in cells for t in cells if s < t]
        for d in enumerate_placements(n, kind):
            roots = d.roots
            for k in range(len(roots)):
                for x in range(k, len(roots)):
                    kept = roots[:k] + roots[k + 1 : x] + roots[x + 1 :]
                    for added in targets:
                        result = _outcome(_replaced, d, k, x, added, d.rows, d.cols)
                        assert result == _outcome(RookPlacement, n, kept + added)
                        if type(result) is RookPlacement:
                            assert all(type(r) is Root for r in result.roots)

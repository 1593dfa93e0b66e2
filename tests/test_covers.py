from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings

from conftest import orthogonal_placements, placements
from rookposet import (
    OrthogonalityError,
    Root,
    brute_force_covers,
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
    for d in enumerate_placements(4):
        for m in moves_general(d):
            assert m.result != d
            assert leq_placement(m.result, d)
            assert m.result.size - d.size == SIZE_DELTA[m.kind]


def test_orthogonal_moves_stay_orthogonal():
    general_kinds = {"remove", "slide_right", "slide_up", "cross_general",
                     "cross_orthogonal", "split_orthogonal"}
    for d in enumerate_placements(5, "orthogonal"):
        for m in moves_orthogonal(d):  # raises internally on a closure violation
            assert m.result.is_orthogonal()
            assert m.kind in general_kinds


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

from __future__ import annotations

import json

import pytest
from hypothesis import given

from conftest import orthogonal_placements, placements
from rookposet import (
    AmbientError,
    AttackError,
    CapError,
    Root,
    RookError,
    RookPlacement,
    count_placements,
    enumerate_placements,
    parse_placement,
    placement_from_json,
    render_board,
    validate_placement,
)
from rookposet.verify import subset_filter_placements

GENERAL_COUNTS = [1, 2, 5, 15, 52, 203, 877]
ORTHOGONAL_COUNTS = [1, 2, 4, 10, 26, 76, 232]


def test_make_root_accepts_cells_below_diagonal():
    r = Root(6, 2)
    assert (r.row, r.col) == (6, 2)


@pytest.mark.parametrize("i,j", [(2, 2), (1, 3), (3, 0), (1, 1)])
def test_make_root_rejects_bad_cells(i, j):
    with pytest.raises(RookError):
        Root(i, j)


def test_roots_are_stored_in_canonical_order():
    d = validate_placement([(8, 5), (3, 1), (5, 4), (7, 3), (6, 2)], 8)
    assert [(r.row, r.col) for r in d.roots] == [(3, 1), (5, 4), (6, 2), (7, 3), (8, 5)]
    assert d.to_text() == "3,1;5,4;6,2;7,3;8,5"


def test_shared_row_is_an_attack_and_names_both_rooks():
    with pytest.raises(AttackError) as err:
        validate_placement([(4, 1), (4, 3)], 5)
    assert "4,1" in str(err.value) and "4,3" in str(err.value)


def test_shared_column_is_an_attack():
    with pytest.raises(AttackError):
        validate_placement([(3, 2), (5, 2)], 5)


def test_root_off_the_board_is_rejected():
    with pytest.raises(AmbientError):
        validate_placement([(7, 1)], 6)


@pytest.mark.parametrize(
    "roots,expected",
    [
        ([], True),
        ([(3, 1), (6, 2), (5, 4)], True),
        ([(3, 1), (6, 2), (7, 3), (5, 4), (8, 5)], False),  # 3 is a row and a column
        ([(2, 1), (4, 3)], True),
        ([(3, 2), (4, 3)], False),
    ],
)
def test_is_orthogonal(roots, expected):
    assert validate_placement(roots, 8).is_orthogonal() is expected


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("kind", ["general", "orthogonal"])
def test_counts_match_known_sequences(n, kind):
    known = GENERAL_COUNTS if kind == "general" else ORTHOGONAL_COUNTS
    assert count_placements(n, kind) == known[n - 1]
    assert len(enumerate_placements(n, kind)) == known[n - 1]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", ["general", "orthogonal"])
def test_enumeration_matches_subset_filter_oracle(n, kind):
    assert set(enumerate_placements(n, kind)) == subset_filter_placements(n, kind)


@pytest.mark.parametrize("kind", ["general", "orthogonal"])
def test_enumeration_is_sorted_and_duplicate_free(kind):
    elements = enumerate_placements(6, kind)
    keys = [e.roots for e in elements]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_orthogonal_enumeration_filters_the_general_one():
    for n in range(1, 7):
        general = enumerate_placements(n)
        assert set(enumerate_placements(n, "orthogonal")) == {
            d for d in general if d.is_orthogonal()
        }


def test_smallest_board_has_only_the_empty_placement():
    assert enumerate_placements(1) == (RookPlacement(1, ()),)
    with pytest.raises(AmbientError):
        enumerate_placements(0)


def test_enumeration_cap_is_checked_before_work():
    with pytest.raises(CapError):
        enumerate_placements(5, cap=51)
    assert len(enumerate_placements(5, cap=52)) == 52


def test_render_board_known_picture():
    d = parse_placement("3,1;6,2;5,3", 6)
    assert render_board(d) == "\n".join(
        [
            "......",
            "......",
            "X.....",
            "......",
            "..X...",
            ".X....",
        ]
    )


def test_render_board_custom_symbol():
    d = parse_placement("2,1", 2)
    assert render_board(d, symbol="⊗") == "..\n⊗."


def test_parse_placement_ignores_whitespace():
    assert parse_placement(" 3,1 ;\t6,2 ", 6) == parse_placement("3,1;6,2", 6)


def test_parse_empty_string_is_the_empty_placement():
    assert parse_placement("", 4) == RookPlacement(4, ())
    assert parse_placement("  \n ", 4) == RookPlacement(4, ())


@pytest.mark.parametrize("text", ["3;1", "3,1;", "a,b", "3,1,2", "3"])
def test_parse_rejects_malformed_tokens(text):
    with pytest.raises(RookError):
        parse_placement(text, 6)


def test_parse_rejects_repeated_roots():
    with pytest.raises(AttackError):
        parse_placement("3,1;3,1", 6)


def test_json_round_trip():
    d = parse_placement("3,1;6,2;5,4", 6)
    blob = json.dumps(d.to_json())
    assert placement_from_json(json.loads(blob)) == d
    assert d.to_json() == {"n": 6, "roots": [[3, 1], [5, 4], [6, 2]]}


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"n": 4},
        {"n": "4", "roots": []},
        {"n": 4, "roots": 3},
        {"n": 3, "roots": [[2, 1, 5]]},
        {"n": 3, "roots": [5]},
        {"n": True, "roots": []},
    ],
)
def test_json_rejects_malformed_payloads(data):
    with pytest.raises(RookError):
        placement_from_json(data)


@given(placements())
def test_text_round_trip(d):
    assert parse_placement(d.to_text(), d.n) == d


@given(orthogonal_placements())
def test_orthogonal_strategy_builds_orthogonal_placements(d):
    assert d.is_orthogonal()
    assert placement_from_json(d.to_json()) == d

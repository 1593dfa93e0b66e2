from __future__ import annotations

import hashlib
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
    build_poset,
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


@pytest.mark.parametrize("i,j", [("3", 1), (3, 1.0), (2.5, 1), (2, True), (True, 0)])
def test_make_root_rejects_coordinates_that_are_not_ints(i, j):
    with pytest.raises(RookError, match="int coordinates"):
        Root(i, j)


@pytest.mark.parametrize("roots,n", [([(2, True)], 2), ([(2.5, 1)], 3)])
def test_validate_placement_rejects_coordinates_that_are_not_ints(roots, n):
    with pytest.raises(RookError):
        validate_placement(roots, n)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None])
def test_board_size_that_is_not_an_int_is_rejected(n):
    with pytest.raises(AmbientError):
        parse_placement("2,1", n)
    with pytest.raises(AmbientError):
        RookPlacement(n, ())
    with pytest.raises(AmbientError):
        count_placements(n)
    with pytest.raises(AmbientError):
        enumerate_placements(n)
    with pytest.raises(AmbientError):
        build_poset(n)


def test_placement_roots_must_be_root_objects():
    with pytest.raises(RookError, match="not a Root"):
        RookPlacement(3, ((2, 1),))


def test_placement_roots_must_be_iterable():
    with pytest.raises(RookError, match="iterable"):
        RookPlacement(3, None)


def test_validate_placement_needs_iterable_roots():
    with pytest.raises(RookError, match="iterable"):
        validate_placement(None, 3)


def test_validate_placement_rejects_triples():
    with pytest.raises(RookError, match=r"\(2, 1, 0\) is not a Root or a \(row, col\) pair"):
        validate_placement([(2, 1, 0)], 3)


def test_parse_placement_needs_a_string():
    with pytest.raises(RookError, match="must be a str"):
        parse_placement(None, 3)


def test_enumeration_cap_must_be_an_int():
    with pytest.raises(RookError, match="cap must be an int"):
        enumerate_placements(3, cap="x")


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


@pytest.mark.parametrize(
    "kind,largest", [("general", 8), ("orthogonal", 9)], ids=["general", "orthogonal"]
)
def test_enumeration_is_sorted_and_duplicate_free(kind, largest):
    for n in range(1, largest + 1):
        keys = [e.roots for e in enumerate_placements(n, kind)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_orthogonal_enumeration_filters_the_general_one():
    for n in range(1, 7):
        general = enumerate_placements(n)
        assert enumerate_placements(n, "orthogonal") == tuple(
            d for d in general if d.is_orthogonal()
        )


@pytest.mark.parametrize(
    "n,kind,digest",
    [
        (8, "general", "f1d54057ef860db984be5ace2e80fe97eb382bf8024769c1b74190183faeb149"),
        (9, "orthogonal", "5f02355587e2c1187d68c248f8ed5cd7451d4019f3eb202508746d830848097b"),
        pytest.param(
            10,
            "general",
            "a6d9472c44a9b8c145497db3da8e5337fa3699bc643427cd397305f24b2f5f58",
            marks=pytest.mark.slow,
        ),
        pytest.param(
            12,
            "orthogonal",
            "cf7497c0d9975df3628eeb6a2d47cda9c210238d77bfa09a08ed665cc8187d4e",
            marks=pytest.mark.slow,
        ),
    ],
    ids=["general-8", "orthogonal-9", "general-10", "orthogonal-12"],
)
def test_enumeration_text_is_pinned(n, kind, digest):
    text = "\n".join(e.to_text() for e in enumerate_placements(n, kind))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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

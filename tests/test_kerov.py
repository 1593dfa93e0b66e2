from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import orthogonal_placements, placements
from rookposet import (
    AmbientError,
    OrthogonalityError,
    ParityError,
    RookError,
    enumerate_placements,
    inversion_length,
    involution_of,
    kerov_map,
    leq_placement,
    parse_placement,
    predecessors_general,
    predecessors_orthogonal,
    rank_general,
    rank_orthogonal,
    validate_placement,
)
from rookposet.kerov import _exact_half


def test_kerov_image_known_value():
    d = parse_placement("3,1;6,2;7,3;5,4;8,6", 8)
    image = kerov_map(d)
    assert image.n == 14
    assert image.to_text() == "4,1;8,7;10,3;12,5;14,11"
    assert involution_of(image).images == (4, 2, 10, 1, 12, 6, 8, 7, 9, 3, 14, 5, 13, 11)


def test_kerov_on_the_two_board_is_the_identity():
    d = parse_placement("2,1", 2)
    assert kerov_map(d) == d
    assert kerov_map(parse_placement("", 2)) == parse_placement("", 2)


def test_kerov_empty_placement_lands_on_the_doubled_board():
    assert kerov_map(parse_placement("", 3)) == parse_placement("", 4)


def test_kerov_rejects_boards_smaller_than_two():
    with pytest.raises(RookError):
        kerov_map(validate_placement([], 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kerov_images_are_orthogonal_with_even_rows_and_odd_columns(n):
    for d in enumerate_placements(n):
        image = kerov_map(d)
        assert image.n == 2 * n - 2
        assert image.is_orthogonal()
        assert all(r.row % 2 == 0 and r.col % 2 == 1 for r in image.roots)
        assert image.size == d.size


def test_kerov_is_injective():
    images = [kerov_map(d) for d in enumerate_placements(6)]
    assert len(set(images)) == len(images)


def test_order_preservation_checker_known_pair():
    d1 = parse_placement("2,1;4,2", 4)
    d2 = parse_placement("3,1;4,2", 4)
    assert leq_placement(d1, d2) == leq_placement(kerov_map(d1), kerov_map(d2))
    assert leq_placement(d2, d1) == leq_placement(kerov_map(d2), kerov_map(d1))


def test_order_preservation_exhaustive_small():
    elements = enumerate_placements(4)
    for a in elements:
        for b in elements:
            assert leq_placement(a, b) == leq_placement(kerov_map(a), kerov_map(b))


@pytest.mark.parametrize("n", [3, 4])
def test_cover_preservation_exhaustive_small(n):
    elements = enumerate_placements(n)
    for t in elements:
        for d in elements:
            left = t in predecessors_general(d)
            right = kerov_map(t) in predecessors_orthogonal(kerov_map(d))
            assert left == right


def test_checkers_reject_mismatched_boards():
    # the comparisons that replaced the checkers refuse mismatched boards,
    # on the original boards and on their doubled images alike
    small, large = parse_placement("", 3), parse_placement("", 4)
    with pytest.raises(AmbientError):
        leq_placement(small, large)
    with pytest.raises(AmbientError):
        leq_placement(kerov_map(small), kerov_map(large))


def test_rank_of_empty_placement_is_zero():
    assert rank_general(parse_placement("", 4)) == 0
    assert rank_orthogonal(parse_placement("", 4)) == 0


def test_rank_of_single_rooks_closed_forms():
    for n in range(2, 7):
        for i in range(2, n + 1):
            for j in range(1, i):
                d = validate_placement([(i, j)], n)
                assert rank_general(d) == 2 * (i - j) - 1
                assert rank_orthogonal(d) == i - j


def test_rank_known_values():
    assert rank_general(parse_placement("3,1;6,2;7,3;5,4;8,6", 8)) == 18
    assert rank_orthogonal(parse_placement("3,2;4,1", 4)) == 4
    assert rank_orthogonal(parse_placement("4,1;10,3;12,5;8,7;14,11", 14)) == 18


def test_rank_general_equals_rank_of_image():
    for d in enumerate_placements(5):
        assert rank_general(d) == rank_orthogonal(kerov_map(d))


def test_rank_increases_strictly_along_covers():
    for d in enumerate_placements(5):
        r = rank_general(d)
        for t in predecessors_general(d):
            assert rank_general(t) == r - 1
    for d in enumerate_placements(6, "orthogonal"):
        r = rank_orthogonal(d)
        for t in predecessors_orthogonal(d):
            assert rank_orthogonal(t) == r - 1


def _rank_by_inversions(d):
    return (inversion_length(involution_of(d)) + d.size) // 2


def test_rank_orthogonal_matches_inversion_count_exhaustive():
    for n in range(1, 10):
        for d in enumerate_placements(n, "orthogonal"):
            assert rank_orthogonal(d) == _rank_by_inversions(d)


@settings(max_examples=100)
@given(orthogonal_placements(max_n=40))
def test_rank_orthogonal_matches_inversion_count(d):
    assert rank_orthogonal(d) == _rank_by_inversions(d)


def test_rank_orthogonal_rejects_non_orthogonal_placements():
    with pytest.raises(OrthogonalityError):
        rank_orthogonal(parse_placement("2,1;3,2", 3))


def test_exact_half_raises_on_odd_totals():
    assert _exact_half(8) == 4
    with pytest.raises(ParityError):
        _exact_half(7)


@settings(max_examples=60)
@given(placements(max_n=7))
def test_kerov_shape_property(d):
    if d.n < 2:
        with pytest.raises(RookError):
            kerov_map(d)
        return
    image = kerov_map(d)
    assert image.is_orthogonal()
    assert leq_placement(kerov_map(d), kerov_map(d))
    assert rank_general(d) == rank_orthogonal(image)

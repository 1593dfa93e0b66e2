from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import orthogonal_placements, placements
from rookposet import (
    AmbientError,
    OrthogonalityError,
    RookError,
    enumerate_placements,
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
from rookposet.kerov import _ranks
from rookposet.order import inversion_length
from rookposet.placements import root_arrays


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


def test_rank_general_matches_inversion_count_of_the_image_exhaustive():
    for n in range(2, 9):
        for d in enumerate_placements(n):
            assert rank_general(d) == _rank_by_inversions(kerov_map(d))


@settings(max_examples=100)
@given(placements(max_n=40, min_n=2))
def test_rank_general_matches_inversion_count_of_the_image(d):
    assert rank_general(d) == _rank_by_inversions(kerov_map(d))


def _staircases(k):
    """The k rooks (k + j, j), j = 1..k, every pair of which crosses, and
    the k rooks (2k + 1 - j, j), every pair of which nests."""
    crossing = validate_placement([(k + j, j) for j in range(1, k + 1)], 2 * k)
    nested = validate_placement([(2 * k + 1 - j, j) for j in range(1, k + 1)], 2 * k)
    return crossing, nested


def _many_rooks(kind, seed):
    """Placements of 50 to 150 rooks on boards of 200 to 400, drawn from a
    seeded generator, and the staircases of 50 and of 150 rooks."""
    rng = random.Random(seed)
    found = []
    for _ in range(6):
        n = rng.randint(200, 400)
        k = rng.randint(50, min(150, n // 2))
        if kind == "orthogonal":
            ends = rng.sample(range(1, n + 1), 2 * k)
            roots = [(max(p), min(p)) for p in zip(ends[::2], ends[1::2])]
        else:
            # the t-th smallest row is at least t + 1, so a column is left
            rows, free = sorted(rng.sample(range(2, n + 1), k)), set(range(1, n))
            roots = []
            for i in rows:
                j = rng.choice(sorted(c for c in free if c < i))
                free.discard(j)
                roots.append((i, j))
        found.append(validate_placement(roots, n))
    return found + [*_staircases(50), *_staircases(150)]


@pytest.mark.parametrize("kind", ["general", "orthogonal"])
def test_ranks_with_many_rooks_match_the_dense_route_and_ranks_of(kind):
    # past the n=40 of the strategies above: the crossings of a rank are
    # counted by bisection, those of the batch route (_ranks over the root
    # arrays) by the pair scan, and those of the dense route by the
    # inversions of the involution
    by_size = {}
    for d in _many_rooks(kind, seed=37):
        if kind == "orthogonal":
            rank, dense = rank_orthogonal(d), _rank_by_inversions(d)
        else:
            rank, dense = rank_general(d), _rank_by_inversions(kerov_map(d))
        assert rank == dense
        by_size.setdefault(d.n, []).append((d, rank))
    for pairs in by_size.values():
        assert _ranks(*root_arrays([d for d, _ in pairs]), kind) == [rank for _, rank in pairs]


def test_staircase_ranks_closed_forms():
    # both have L = k^2; the crossing one has X = k(k - 1)/2, the nested 0
    for k in (1, 2, 50, 150):
        crossing, nested = _staircases(k)
        assert rank_orthogonal(crossing) == k * k - k * (k - 1) // 2
        assert rank_general(crossing) == 2 * k * k - k - k * (k - 1) // 2
        assert rank_orthogonal(nested) == k * k
        assert rank_general(nested) == 2 * k * k - k


def test_rank_orthogonal_rejects_non_orthogonal_placements():
    with pytest.raises(OrthogonalityError):
        rank_orthogonal(parse_placement("2,1;3,2", 3))


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


@pytest.mark.parametrize(
    "n,kind", [(n, "general") for n in range(1, 9)] + [(n, "orthogonal") for n in range(1, 10)]
)
def test_ranks_of_matches_the_single_ranks_exhaustive(n, kind):
    rank = rank_orthogonal if kind == "orthogonal" else rank_general
    elements = enumerate_placements(n, kind)
    assert _ranks(*root_arrays(elements), kind) == [rank(d) for d in elements]


def test_ranks_of_rejects_placements_on_two_boards():
    # the batch ranks read the root arrays, which check the boards
    with pytest.raises(AmbientError):
        root_arrays([parse_placement("", 3), parse_placement("", 4)])
    assert _ranks(*root_arrays([]), "orthogonal") == []

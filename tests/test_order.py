from __future__ import annotations

from itertools import permutations as all_perms

import pytest

from rookposet import (
    AmbientError,
    OrthogonalityError,
    Permutation,
    Root,
    bruhat_leq,
    enumerate_placements,
    inversion_length,
    involution_of,
    kerov_map,
    leq_placement,
    minimal_roots,
    parse_placement,
    rank_matrix,
    root_leq,
    validate_placement,
)
from rookposet.order import dominance_matrix


def test_rank_matrix_known_values():
    d1 = parse_placement("2,1;4,2", 4)
    d2 = parse_placement("3,1;4,2", 4)
    assert rank_matrix(d1).to_lists() == [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
    ]
    assert rank_matrix(d2).to_lists() == [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 2, 0, 0],
        [0, 1, 1, 0],
    ]


def test_rank_matrix_of_empty_placement_is_zero():
    m = rank_matrix(parse_placement("", 3))
    assert m.to_lists() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_rank_matrix_entry_counts_south_west_rooks():
    d = parse_placement("3,1;6,2;7,3;5,4;8,5", 8)
    m = rank_matrix(d)
    assert m.entry(5, 4) == 3  # (6,2), (7,3), (5,4)
    assert m.entry(8, 1) == 0
    assert m.entry(4, 3) == 2  # (6,2), (7,3)


def test_leq_placement_known_pair():
    d1 = parse_placement("2,1;4,2", 4)
    d2 = parse_placement("3,1;4,2", 4)
    assert leq_placement(d1, d2)
    assert not leq_placement(d2, d1)
    assert leq_placement(d1, d1)


def test_leq_placement_rejects_mismatched_boards():
    with pytest.raises(AmbientError):
        leq_placement(parse_placement("2,1", 3), parse_placement("2,1", 4))


def test_empty_placement_is_below_everything():
    empty = parse_placement("", 5)
    for d in enumerate_placements(5):
        assert leq_placement(empty, d)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ((5, 4), (6, 2), True),
        ((6, 2), (5, 4), False),
        ((3, 1), (3, 1), True),
        ((3, 1), (8, 1), True),
        ((8, 5), (3, 1), False),
    ],
)
def test_root_leq(a, b, expected):
    assert root_leq(Root(*a), Root(*b)) is expected


def test_root_leq_is_a_partial_order_on_small_boards():
    roots = [Root(i, j) for i in range(2, 7) for j in range(1, i)]
    for a in roots:
        assert root_leq(a, a)
        for b in roots:
            if root_leq(a, b) and root_leq(b, a):
                assert a == b
            for c in roots:
                if root_leq(a, b) and root_leq(b, c):
                    assert root_leq(a, c)


def test_minimal_roots_known_values():
    d = parse_placement("3,1;6,2;7,3;5,4;8,5", 8)
    # nothing lies below (8,5): no other root has column >= 5
    assert minimal_roots(d) == {Root(3, 1), Root(5, 4), Root(8, 5)}
    assert minimal_roots(parse_placement("2,1", 2)) == {Root(2, 1)}
    assert minimal_roots(parse_placement("", 4)) == frozenset()


def test_minimal_roots_have_nothing_below_them():
    for d in enumerate_placements(5):
        mins = minimal_roots(d)
        for a in d.roots:
            below = [b for b in d.roots if b != a and root_leq(b, a)]
            assert (a in mins) == (not below)


def test_involution_of_known_values():
    assert involution_of(parse_placement("", 3)).images == (1, 2, 3)
    assert involution_of(parse_placement("2,1", 2)).images == (2, 1)
    big = parse_placement("4,1;10,3;12,5;8,7;14,11", 14)
    assert involution_of(big).images == (4, 2, 10, 1, 12, 6, 8, 7, 9, 3, 14, 5, 13, 11)


def test_involution_of_is_an_involution():
    for d in enumerate_placements(6, "orthogonal"):
        assert involution_of(d).is_involution()


def test_involution_of_rejects_non_orthogonal_placements():
    with pytest.raises(OrthogonalityError):
        involution_of(parse_placement("3,2;4,3", 4))


def test_permutation_rejects_non_bijections():
    with pytest.raises(Exception):
        Permutation((1, 1, 3))


def test_inversion_length_basics():
    assert inversion_length(Permutation.identity(5)) == 0
    assert inversion_length(Permutation((5, 4, 3, 2, 1))) == 10
    assert inversion_length(Permutation((2, 1, 3))) == 1


def test_transposition_length_closed_form():
    # swapping a > b costs 2(a - b) - 1 inversions
    for n in range(2, 7):
        for a in range(2, n + 1):
            for b in range(1, a):
                w = involution_of(validate_placement([(a, b)], n))
                assert inversion_length(w) == 2 * (a - b) - 1


def test_involution_length_has_the_parity_of_the_rook_count():
    for n in range(2, 7):
        for d in enumerate_placements(n, "orthogonal"):
            assert (inversion_length(involution_of(d)) - d.size) % 2 == 0


def test_bruhat_identity_is_minimum():
    ident = Permutation.identity(4)
    for images in all_perms(range(1, 5)):
        assert bruhat_leq(ident, Permutation(images))


def test_bruhat_known_chain():
    assert bruhat_leq(Permutation((2, 1, 3)), Permutation((3, 2, 1)))
    assert not bruhat_leq(Permutation((3, 2, 1)), Permutation((2, 1, 3)))


def test_bruhat_rejects_mismatched_sizes():
    with pytest.raises(AmbientError):
        bruhat_leq(Permutation.identity(3), Permutation.identity(4))


def _bruhat_closure(n: int) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    # Transitive closure of single-transposition steps that raise the
    # inversion count by exactly one.
    perms = [tuple(p) for p in all_perms(range(1, n + 1))]
    lengths = {p: inversion_length(Permutation(p)) for p in perms}
    up = {p: set() for p in perms}
    for p in perms:
        for a in range(n):
            for b in range(a + 1, n):
                q = list(p)
                q[a], q[b] = q[b], q[a]
                q = tuple(q)
                if lengths[q] == lengths[p] + 1:
                    up[p].add(q)
    reach = {}
    for p in perms:
        seen = {p}
        frontier = [p]
        while frontier:
            x = frontier.pop()
            for y in up[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        reach[p] = seen
    return reach


@pytest.mark.parametrize("n", [3, 4])
def test_bruhat_matches_cover_chain_oracle(n):
    reach = _bruhat_closure(n)
    perms = [tuple(p) for p in all_perms(range(1, n + 1))]
    for u in perms:
        for v in perms:
            assert bruhat_leq(Permutation(u), Permutation(v)) == (v in reach[u])


@pytest.mark.parametrize("kind", ["general", "orthogonal"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_dominance_is_a_partial_order(n, kind):
    elements = enumerate_placements(n, kind)
    mats = [rank_matrix(d) for d in elements]
    # injectivity: distinct placements have distinct matrices
    assert len({m.entries for m in mats}) == len(mats)
    leq = [[mats[a] <= mats[b] for b in range(len(mats))] for a in range(len(mats))]
    for a in range(len(mats)):
        assert leq[a][a]
        for b in range(len(mats)):
            if leq[a][b] and leq[b][a]:
                assert a == b
            for c in range(len(mats)):
                if leq[a][b] and leq[b][c]:
                    assert leq[a][c]


def test_dominance_matrix_matches_pairwise_comparison_off_the_enumeration():
    # Kerov images of R(5): 52 placements on the board of size 8 that
    # are not an enumeration of that board
    images = [kerov_map(d) for d in enumerate_placements(5)]
    leq = dominance_matrix(images)
    assert leq.shape == (52, 52) and leq.dtype == bool
    for a, x in enumerate(images):
        for b, y in enumerate(images):
            assert leq[a, b] == leq_placement(x, y)

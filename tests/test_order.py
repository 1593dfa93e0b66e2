from __future__ import annotations

import random
from itertools import permutations as all_perms

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rookposet.kerov
import rookposet.order
from conftest import orthogonal_placements, placements
from rookposet import (
    AmbientError,
    CapError,
    OrthogonalityError,
    Permutation,
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
from rookposet.order import (
    _counting_entries,
    _packed_dominance,
    bruhat_leq,
    bruhat_matrix,
    counting_entries,
    dominance_matrix,
    inversion_length,
    rank_matrix,
    unpack_rows,
)
from rookposet.placements import root_arrays


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


def test_leq_placement_reads_cells_below_a_constant_rectangle():
    # '3,2' counts 1 at (3, 2) and the empty placement 0: the one cell the
    # sparse rule reads for it is (3, 2), row and column of its own rook;
    # the empty placement reads no cell at all and is below everything
    assert leq_placement(parse_placement("3,2", 5), parse_placement("", 5)) is False
    assert leq_placement(parse_placement("", 5), parse_placement("3,2", 5)) is True


@pytest.mark.parametrize("kind,max_n", [("general", 6), ("orthogonal", 7)])
def test_leq_placement_matches_dense_matrices_exhaustive(kind, max_n):
    for n in range(1, max_n + 1):
        elements = enumerate_placements(n, kind)
        mats = [rank_matrix(d) for d in elements]
        for a, ma in zip(elements, mats):
            for b, mb in zip(elements, mats):
                assert leq_placement(a, b) == (ma <= mb)


@st.composite
def same_board_pairs(draw, max_n: int = 40):
    """Two placements of one board: the first general or orthogonal, maybe
    empty; the second empty, independent, a sub-placement of the first
    (so below it) or a cover below it (so below it but for a few cells)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    orthogonal = draw(st.booleans())
    kind = orthogonal_placements if orthogonal else placements
    empty = parse_placement("", n)
    a = empty if draw(st.integers(0, 5)) == 0 else draw(kind(min_n=n, max_n=n))
    how = draw(st.sampled_from(["empty", "independent", "subset", "cover"]))
    if how == "empty":
        b = empty
    elif how == "independent":
        b = draw(kind(min_n=n, max_n=n))
    elif how == "subset":
        kept = draw(st.sets(st.sampled_from(a.roots))) if a.roots else ()
        b = validate_placement(kept, n)
    else:
        below = predecessors_orthogonal if orthogonal else predecessors_general
        covers = sorted(below(a), key=lambda t: t.roots)
        b = draw(st.sampled_from(covers)) if covers else empty
    return a, b


@settings(max_examples=60)
@given(same_board_pairs())
def test_leq_placement_matches_dense_matrices(pair):
    a, b = pair
    assert leq_placement(a, b) == (rank_matrix(a) <= rank_matrix(b))
    assert leq_placement(b, a) == (rank_matrix(b) <= rank_matrix(a))


@settings(max_examples=60)
@given(st.one_of(placements(max_n=40), orthogonal_placements(max_n=40)))
def test_each_count_is_read_at_a_cell_of_the_rooks_it_counts(d):
    # the lemma leq_placement rests on: a nonzero entry (i, j) equals the
    # entry at (least row, largest column) of the rooks S it counts, a
    # cell of rows(D) x cols(D) below the diagonal
    matrix = rank_matrix(d)
    for i in range(2, d.n + 1):
        for j in range(1, i):
            counted = [(r, c) for r, c in d.roots if r >= i and c <= j]
            if not counted:
                assert matrix.entry(i, j) == 0
                continue
            least_row = min(r for r, _ in counted)
            largest_col = max(c for _, c in counted)
            assert least_row in d.rows and largest_col in d.cols
            assert least_row > largest_col
            assert matrix.entry(least_row, largest_col) == matrix.entry(i, j)


def test_single_element_kernels_do_not_touch_the_dense_routes(monkeypatch):
    def dense(*args):
        raise AssertionError("dense route called")

    monkeypatch.setattr(rookposet.order, "rank_matrix", dense)
    monkeypatch.setattr(rookposet.order, "inversion_length", dense)
    # also caught if kerov imports the name again
    monkeypatch.setattr(rookposet.kerov, "inversion_length", dense, raising=False)
    # dense routes on this board read 2000^2 / 2 cells per call
    a = parse_placement("2000,1", 2000)
    b = parse_placement("1999,3", 2000)
    assert leq_placement(b, a) and not leq_placement(a, b)
    # one rook on the left against about 500 on the right: the cells read
    # follow the left operand's rooks
    rng = random.Random(18)
    rows = rng.sample(range(1001, 2000), 499)
    cols = rng.sample(range(2, 1001), 499)
    many = [(2000, 1)] + list(zip(rows, cols))
    assert leq_placement(a, validate_placement(many, 2000)) is True
    assert leq_placement(a, validate_placement(many[1:], 2000)) is False
    assert rank_general(a) == 2 * 1999 - 1
    assert rank_orthogonal(b) == 1996


def test_rank_matrices_of_two_boards_do_not_compare():
    a, b = rank_matrix(parse_placement("2,1", 3)), rank_matrix(parse_placement("2,1", 4))
    with pytest.raises(AmbientError, match="cannot compare boards of sizes 3 and 4"):
        a <= b


def test_leq_placement_rejects_mismatched_boards():
    with pytest.raises(AmbientError):
        leq_placement(parse_placement("2,1", 3), parse_placement("2,1", 4))
    # an empty left operand reads no cell, but the boards are still checked
    with pytest.raises(AmbientError):
        leq_placement(parse_placement("", 3), parse_placement("", 4))


def test_empty_placement_is_below_everything():
    empty = parse_placement("", 5)
    for d in enumerate_placements(5):
        assert leq_placement(empty, d)


def test_involution_of_known_values():
    assert involution_of(parse_placement("", 3)).images == (1, 2, 3)
    assert involution_of(parse_placement("2,1", 2)).images == (2, 1)
    big = parse_placement("4,1;10,3;12,5;8,7;14,11", 14)
    assert involution_of(big).images == (4, 2, 10, 1, 12, 6, 8, 7, 9, 3, 14, 5, 13, 11)


def test_involution_of_is_an_involution():
    for d in enumerate_placements(6, "orthogonal"):
        images = involution_of(d).images
        assert all(images[v - 1] == i for i, v in enumerate(images, 1))


def test_involution_of_rejects_non_orthogonal_placements():
    with pytest.raises(OrthogonalityError):
        involution_of(parse_placement("3,2;4,3", 4))


def test_permutation_rejects_non_bijections():
    with pytest.raises(Exception):
        Permutation((1, 1, 3))


def test_inversion_length_basics():
    assert inversion_length(Permutation(tuple(range(1, 6)))) == 0
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
    ident = Permutation(tuple(range(1, 5)))
    for images in all_perms(range(1, 5)):
        assert bruhat_leq(ident, Permutation(images))


def test_bruhat_known_chain():
    assert bruhat_leq(Permutation((2, 1, 3)), Permutation((3, 2, 1)))
    assert not bruhat_leq(Permutation((3, 2, 1)), Permutation((2, 1, 3)))


def test_bruhat_rejects_mismatched_sizes():
    with pytest.raises(AmbientError):
        bruhat_leq(Permutation(tuple(range(1, 4))), Permutation(tuple(range(1, 5))))


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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bruhat_matches_cover_chain_oracle(n):
    reach = _bruhat_closure(n)
    perms = [tuple(p) for p in all_perms(range(1, n + 1))]
    for u in perms:
        for v in perms:
            assert bruhat_leq(Permutation(u), Permutation(v)) == (v in reach[u])


def test_bruhat_matrix_matches_cover_chain_oracle_as_a_whole():
    reach = _bruhat_closure(4)
    perms = [tuple(p) for p in all_perms(range(1, 5))]
    want = np.array([[v in reach[u] for v in perms] for u in perms])
    leq = bruhat_matrix([Permutation(p) for p in perms])
    assert leq.shape == (24, 24) and leq.dtype == bool
    assert np.array_equal(leq, want)


def test_bruhat_prefix_counts_do_not_overflow_on_large_boards():
    # prefix counts of the identity reach 130, past any 8-bit integer
    ident = Permutation(tuple(range(1, 131)))
    reverse = Permutation(tuple(range(130, 0, -1)))
    assert bruhat_leq(ident, reverse)
    assert not bruhat_leq(reverse, ident)
    assert bruhat_matrix([ident, reverse]).tolist() == [[True, True], [False, True]]


def test_bruhat_leq_on_a_board_of_two_thousand():
    # about two million cells i <= j (both are involutions), their two
    # count columns compared in one step
    ident = Permutation(tuple(range(1, 2001)))
    reverse = Permutation(tuple(range(2000, 0, -1)))
    assert bruhat_leq(ident, reverse)
    assert not bruhat_leq(reverse, ident)


def _bruhat_by_rows(perms: list[Permutation]) -> np.ndarray:
    """The prefix-count criterion one row at a time, over the whole n x n
    tables, border included."""
    m, n = len(perms), perms[0].n if perms else 0
    ones = np.array([w.images for w in perms]).reshape(m, n, 1) == np.arange(1, n + 1)
    tables = ones.cumsum(axis=1).cumsum(axis=2).reshape(m, n * n)
    leq = np.empty((m, m), dtype=bool)
    for a in range(m):
        np.all(tables[a] >= tables, axis=1, out=leq[a])
    return leq


@st.composite
def permutation_lists(draw):
    """m permutations of one n = 0..8, repeats allowed, m in {0, 1, 2, many}:
    involutions only, as the verify suites compare, or any."""
    n = draw(st.integers(0, 8))
    m = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 40))
    if draw(st.booleans()):
        perms = orthogonal_placements(max_n=n, min_n=n).map(involution_of)
    else:
        perms = st.permutations(range(1, n + 1)).map(lambda w: Permutation(tuple(w)))
    return draw(st.lists(perms, min_size=m, max_size=m))


@settings(max_examples=150)
@given(permutation_lists(), st.sampled_from([None, 1, 96, 416]))
def test_bruhat_matrix_matches_the_row_loop(perms, block_bytes):
    # the small budgets split the tiles of rows mid-matrix; bruhat_leq
    # compares a pair without the tiles
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            mp.setattr(rookposet.order, "_BLOCK_BYTES", block_bytes)
        ref = _bruhat_by_rows(perms)
        assert np.array_equal(bruhat_matrix(perms), ref)
        for a in range(min(5, len(perms))):
            for b in range(min(5, len(perms))):
                assert bruhat_leq(perms[a], perms[b]) == ref[a, b]


@pytest.mark.parametrize("block_bytes", [1, 96, 416])
def test_bruhat_matrix_does_not_depend_on_the_budget(monkeypatch, block_bytes):
    # the 52 kerov images of R(5), on the board of 10: the 45 cells i <= j,
    # and tiles of one row, one row and eight rows with a short last one
    perms = [involution_of(kerov_map(d)) for d in enumerate_placements(5)]
    whole = bruhat_matrix(perms)
    assert np.array_equal(whole, _bruhat_by_rows(perms))
    monkeypatch.setattr(rookposet.order, "_BLOCK_BYTES", block_bytes)
    assert np.array_equal(bruhat_matrix(perms), whole)


def _prefix_table(images: tuple[int, ...]) -> list[list[int]]:
    n = len(images)
    return [[sum(1 for k in range(i) if images[k] <= j) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


@pytest.mark.parametrize("n", range(1, 7))
def test_the_cells_bruhat_matrix_leaves_out_decide_nothing(n):
    # the last prefix row and column: #{k <= n : w(k) <= j} is j and
    # #{k <= i : w(k) <= n} is i, whatever w; and the table of w^-1 is
    # that of w transposed, so an involution's is symmetric
    for images in all_perms(range(1, n + 1)):
        table = _prefix_table(images)
        assert table[n - 1] == list(range(1, n + 1))
        assert [row[n - 1] for row in table] == list(range(1, n + 1))
        inverse = tuple(images.index(v) + 1 for v in range(1, n + 1))
        assert _prefix_table(inverse) == [list(col) for col in zip(*table)]


@pytest.mark.parametrize(
    "relation",
    [
        counting_entries,
        lambda items: _packed_dominance(counting_entries(items))[0],
        dominance_matrix,
    ],
    ids=["counting_entries", "packed_dominance", "dominance_matrix"],
)
def test_placement_relations_take_a_set_or_a_generator(relation):
    elements = enumerate_placements(4)
    unique = set(elements)  # list() keeps the set's own order
    assert np.array_equal(relation(unique), relation(list(unique)))
    assert np.array_equal(relation(d for d in elements), relation(elements))


def test_bruhat_matrix_takes_a_set_or_a_generator():
    perms = [Permutation(p) for p in all_perms(range(1, 4))]
    unique = set(perms)
    assert np.array_equal(bruhat_matrix(unique), bruhat_matrix(list(unique)))
    assert np.array_equal(bruhat_matrix(w for w in perms), bruhat_matrix(perms))


def test_bruhat_on_the_empty_permutation():
    empty = Permutation(())
    assert bruhat_leq(empty, empty)
    assert bruhat_matrix([empty, empty]).tolist() == [[True, True], [True, True]]
    assert bruhat_matrix([]).shape == (0, 0)


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


def test_dominance_matrix_rejects_placements_on_two_boards():
    with pytest.raises(AmbientError) as err:
        dominance_matrix([parse_placement("2,1", 3), parse_placement("2,1", 4)])
    assert str(err.value) == "placement '2,1' is on board 4, not 3"


def test_dominance_matrix_of_no_placements_is_empty():
    leq = dominance_matrix([])
    assert leq.shape == (0, 0) and leq.dtype == bool


def _pairwise(items):
    return np.array([[leq_placement(x, y) for y in items] for x in items], dtype=bool)


@pytest.mark.parametrize(
    "n,kind", [(n, "general") for n in range(1, 7)] + [(n, "orthogonal") for n in range(1, 8)]
)
def test_dominance_matrix_matches_leq_placement_exhaustive(n, kind):
    elements = enumerate_placements(n, kind)
    assert (dominance_matrix(elements) == _pairwise(elements)).all()


def _assert_packed_pair_is_sound(items):
    """_packed_dominance's pair: a permutation of the columns in which every
    strict relation goes forward, and zero bits past the last column."""
    bits, columns = _packed_dominance(counting_entries(items))
    m = len(items)
    assert bits.dtype == np.uint64 and bits.shape == (m, -(-m // 64))
    assert sorted(columns.tolist()) == list(range(m))
    assert not unpack_rows(bits, 64 * bits.shape[1])[:, m:].any()
    leq = dominance_matrix(items)
    pos = np.argsort(columns)
    assert (pos[:, None] < pos)[leq & ~leq.T].all()


@pytest.mark.parametrize(
    "n,kind", [(n, "general") for n in range(1, 9)] + [(n, "orthogonal") for n in range(1, 10)]
)
def test_packed_rows_have_no_bit_before_their_own(n, kind):
    # row p stands for columns[p]: a linear extension of distinct elements
    bits, columns = _packed_dominance(counting_entries(enumerate_placements(n, kind)))
    m = len(columns)
    assert not np.tril(unpack_rows(bits, m), -1).any()
    assert unpack_rows(bits, m).diagonal().all()


@pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (5, 52), (7, 877), (8, 4140)])
def test_packed_dominance_leaves_the_pad_bits_zero(n, m):
    items = enumerate_placements(n) if n else []
    assert len(items) == m
    _assert_packed_pair_is_sound(items)


@st.composite
def placements_on_one_board(draw):
    """A possibly empty list of placements of one kind on one board of size
    up to 12, with some of them repeated."""
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(["general", "orthogonal"]))
    strategy = placements if kind == "general" else orthogonal_placements
    items = draw(st.lists(strategy(min_n=n, max_n=n), max_size=12))
    if items:
        items += draw(st.lists(st.sampled_from(items), max_size=3))
    return draw(st.permutations(items))


@settings(max_examples=80)
@given(placements_on_one_board())
@example([])
@example([parse_placement("2,1", 12)] * 2)
def test_dominance_matrix_matches_leq_placement_on_random_lists(items):
    assert (dominance_matrix(items) == _pairwise(items)).all()
    _assert_packed_pair_is_sound(items)


def _dense_entries(d):
    # rank_matrix's below-diagonal entries in row-major order
    return [v for i, row in enumerate(rank_matrix(d).entries) for v in row[:i]]


@pytest.mark.parametrize(
    "n,kind", [(n, "general") for n in range(1, 9)] + [(n, "orthogonal") for n in range(1, 10)]
)
def test_counting_entries_match_rank_matrix_exhaustive(n, kind):
    elements = enumerate_placements(n, kind)
    entries = counting_entries(elements)
    assert entries.shape == (n * (n - 1) // 2, len(elements))
    assert entries.dtype == np.int8
    assert entries.T.tolist() == [_dense_entries(d) for d in elements]


def test_counting_entries_widen_past_int8_on_large_boards():
    # 150 rooks all counted at (151, 150): more than int8 holds
    d = validate_placement([(i + 150, i) for i in range(1, 151)], 300)
    entries = counting_entries([d])
    assert entries.dtype == np.int16
    cell = 150 * 149 // 2 + 149  # row-major index of (151, 150)
    assert entries[cell, 0] == entries.max() == 150


def test_counting_entries_widen_past_int16_on_huge_boards():
    # an entry reaches n // 2 = 35000 on n = 70000, more than int16 holds;
    # with no placements nothing is allocated
    empty = np.zeros((0, 0), dtype=np.intp)
    assert np.iinfo(_counting_entries(70000, empty, empty).dtype).max >= 35000


def test_counting_entries_past_the_memory_raise_cap_error():
    # numpy refuses the n(n - 1)/2 x 2 entries of n = 2^32 before it
    # allocates anything
    with pytest.raises(CapError, match="cannot allocate"):
        counting_entries([parse_placement("", 2**32)] * 2)


@pytest.mark.parametrize("n", [127, 128, 255, 256])
def test_counting_entries_read_a_rook_in_the_last_row(n):
    # the kernel scatters rook rows, up to n, into an array of its own: one
    # too narrow for n drops the rook in row n from every count
    items = [validate_placement([(n, 1)], n), validate_placement([(n, n - 1)], n)]
    assert counting_entries(items).T.tolist() == [_dense_entries(d) for d in items]


def test_counting_entries_match_rank_matrix_off_the_enumeration():
    # Kerov images of R(6): 203 placements on the board of size 10, in the
    # order of R(6), which is not the enumeration order of that board
    images = [kerov_map(d) for d in enumerate_placements(6)]
    assert counting_entries(images).T.tolist() == [_dense_entries(d) for d in images]


@st.composite
def placement_lists(draw, max_n: int = 40):
    """A kind and a non-empty list of placements of that kind on one board."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    kind = draw(st.sampled_from(["general", "orthogonal"]))
    strategy = placements if kind == "general" else orthogonal_placements
    return kind, draw(st.lists(strategy(min_n=n, max_n=n), min_size=1, max_size=6))


@settings(max_examples=60)
@given(placement_lists())
@example(("general", [parse_placement("", 1)]))
@example(("orthogonal", [parse_placement("", 1)]))
@example(("general", [parse_placement("", 40)]))
@example(("orthogonal", [parse_placement("", 7), parse_placement("", 7)]))
def test_batch_kernels_match_the_single_element_routes(case):
    kind, items = case
    assert counting_entries(items).T.tolist() == [_dense_entries(d) for d in items]
    rank = rank_orthogonal if kind == "orthogonal" else rank_general
    assert _ranks(*root_arrays(items), kind) == [rank(d) for d in items]

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from typing import Iterator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rookposet.kerov
import rookposet.order as order_module
import rookposet.placements
import rookposet.poset
from rookposet import (
    AmbientError,
    OrthogonalityError,
    Poset,
    RookError,
    build_poset,
    check_graded,
    enumerate_placements,
    export_dot,
    leq_placement,
    parse_placement,
    placement_from_json,
    poset_to_json,
    predecessors_general,
    predecessors_orthogonal,
    rank_general,
    rank_orthogonal,
    validate_placement,
)
from rookposet.order import dominance_matrix, pack_rows
from rookposet.poset import brute_force_covers

NODE_RE = re.compile(r'^  (\d+) \[label="([0-9,;]*)"(?:, rank=(\d+))?\];$')
EDGE_RE = re.compile(r"^  (\d+) -> (\d+);$")
SAME_RE = re.compile(r"^  \{ rank=same;( \d+;)+ \}$")


def parse_dot(text):
    lines = text.rstrip("\n").split("\n")
    assert re.match(r'^digraph "[\w]+" \{$', lines[0])
    assert lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        if line == "  rankdir=BT;":
            continue
        m = NODE_RE.match(line)
        if m:
            nodes[int(m.group(1))] = m.group(2)
            continue
        m = EDGE_RE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
            continue
        assert SAME_RE.match(line), f"unparseable line: {line!r}"
    assert all(a in nodes and b in nodes for a, b in edges)
    return nodes, edges


def hasse_pairs(poset: Poset) -> list[tuple[int, int]]:
    """The rows of poset.hasse as (lower_index, upper_index) int tuples."""
    return list(map(tuple, poset.hasse.tolist()))


@pytest.mark.parametrize(
    "n,kind,size",
    [(2, "general", 2), (3, "general", 5), (4, "general", 15), (5, "general", 52),
     (3, "orthogonal", 4), (4, "orthogonal", 10), (5, "orthogonal", 26)],
)
def test_poset_sizes(n, kind, size):
    assert len(build_poset(n, kind)) == size


def test_poset_leq_matches_pairwise_comparison():
    poset = build_poset(4)
    for a in poset.elements:
        for b in poset.elements:
            assert poset.leq_elements(a, b) == leq_placement(a, b)


def test_leq_elements_reads_rows_of_several_words():
    poset = build_poset(6)
    leq = dominance_matrix(poset.elements)
    got = [[poset.leq_elements(a, b) for b in poset.elements] for a in poset.elements]
    assert (np.array(got) == leq).all()


@pytest.mark.parametrize("block_bytes", [1, 5 * 52])
def test_leq_does_not_depend_on_the_block_size(monkeypatch, block_bytes):
    # one row per block, and 16-row blocks with a short last one (m = 52
    # packs to one word a row, and the fill's block and gather share the
    # budget)
    elements = build_poset(5).elements
    whole = dominance_matrix(elements)
    monkeypatch.setattr(order_module, "_BLOCK_BYTES", block_bytes)
    assert (dominance_matrix(elements) == whole).all()


def test_hasse_edges_go_strictly_upward():
    poset = build_poset(5, "orthogonal")
    for a, b in poset.hasse:
        lo, hi = poset.elements[a], poset.elements[b]
        assert leq_placement(lo, hi) and lo != hi


def test_hasse_transitive_closure_recovers_the_order():
    poset = build_poset(4)
    m = len(poset)
    reach = np.eye(m, dtype=bool)
    adj = np.zeros((m, m), dtype=bool)
    for a, b in poset.hasse:
        adj[a, b] = True
    for _ in range(m):
        reach = reach | (reach.astype(np.int64) @ adj.astype(np.int64) > 0)
    assert (reach == dominance_matrix(poset.elements)).all()


def test_brute_force_covers_known_values():
    r3 = build_poset(3)
    assert brute_force_covers(r3, parse_placement("3,1", 3)) == {
        parse_placement("2,1;3,2", 3)
    }
    assert brute_force_covers(r3, parse_placement("", 3)) == set()
    i4 = build_poset(4, "orthogonal")
    assert brute_force_covers(i4, parse_placement("4,1", 4)) == {
        parse_placement("3,1", 4),
        parse_placement("4,2", 4),
        parse_placement("2,1;4,3", 4),
    }


def test_brute_force_covers_rejects_foreign_placements():
    poset = build_poset(3)
    with pytest.raises(RookError):
        brute_force_covers(poset, parse_placement("4,1", 4))
    with pytest.raises(RookError):
        brute_force_covers(poset, parse_placement("2,1", 17))


@pytest.mark.parametrize("n,kind", [(n, "general") for n in range(1, 6)]
                         + [(n, "orthogonal") for n in range(1, 7)])
def test_small_posets_are_graded_with_formula_ranks(n, kind):
    report = check_graded(build_poset(n, kind))
    assert report.is_graded
    assert report.rank_formula_ok
    assert report.min_element == validate_placement([], n)
    assert report.witness is None and report.witness_chains is None
    assert report.max_chain_length == max(report.rank_of.values())


def test_top_of_the_general_poset_is_the_staircase():
    report = check_graded(build_poset(5))
    assert report.max_element == parse_placement("4,2;5,1", 5)


def test_top_of_the_orthogonal_poset():
    report = check_graded(build_poset(4, "orthogonal"))
    assert report.max_element == parse_placement("3,2;4,1", 4)
    assert report.max_chain_length == 4


def iter_maximal_chains(poset: Poset) -> Iterator[tuple[int, ...]]:
    """Every maximal chain as a tuple of element indices, bottom to top.

    Exponentially many in general; a second, slower gradedness oracle for
    small boards.
    """
    out_edges = [[] for _ in range(len(poset))]
    for a, b in poset.hasse:
        out_edges[a].append(b)
    minimal = np.flatnonzero(dominance_matrix(poset.elements).sum(axis=0) == 1).tolist()

    def rec(path: list[int]) -> Iterator[tuple[int, ...]]:
        succ = out_edges[path[-1]]
        if not succ:
            yield tuple(path)
            return
        for y in succ:
            path.append(y)
            yield from rec(path)
            path.pop()

    for start in minimal:
        yield from rec([start])


@pytest.mark.parametrize("n,kind", [(3, "general"), (4, "general"),
                                    (3, "orthogonal"), (4, "orthogonal")])
def test_all_maximal_chains_share_one_length(n, kind):
    # slow second opinion on gradedness: walk every maximal chain
    poset = build_poset(n, kind)
    report = check_graded(poset)
    lengths = {len(chain) - 1 for chain in iter_maximal_chains(poset)}
    assert lengths == {report.max_chain_length}


def _as_pair(leq):
    """A bool partial order packed as the (bits, columns) pair that
    _cover_scan takes, its columns in down-set-size order."""
    columns = np.argsort(leq.sum(axis=0), kind="stable")
    return pack_rows(leq[np.ix_(columns, columns)]), columns


def _scan(leq):
    """The cover edges of a bool partial order by the packed block scan."""
    return list(zip(*map(np.ndarray.tolist, rookposet.poset._cover_scan(*_as_pair(leq)))))


def _fake_leq(relations, count):
    leq = np.eye(count, dtype=bool)
    for a, b in relations:
        leq[a, b] = True
    return leq


def _subposet(relations, count, n=5):
    """An induced subposet of R(n) of a hand-built shape: `count` distinct
    placements, the first a depth-first search in enumeration order finds,
    whose dominance order is the reflexive closure of `relations`, pairs
    a < b of positions that the caller closes under transitivity."""
    everything = enumerate_placements(n)
    leq, want = dominance_matrix(everything), _fake_leq(relations, count)
    picked: list[int] = []

    def extend() -> bool:
        k = len(picked)
        if k == count:
            return True
        for e in sorted(set(range(len(everything))) - set(picked)):
            if (leq[picked, e] == want[:k, k]).all() and (leq[e, picked] == want[k, :k]).all():
                picked.append(e)
                if extend():
                    return True
                picked.pop()
        return False

    assert extend(), "no placements of R(n) have this order"
    return Poset(n, "general", tuple(everything[i] for i in picked))


def _walk_down(top):
    """A saturated chain of R(n) from the empty placement to `top`, bottom
    up, each step down taking the least lower cover by roots."""
    chain = [top]
    while chain[-1].roots:
        chain.append(min(predecessors_general(chain[-1]), key=lambda d: d.roots))
    return tuple(reversed(chain))


# ranks 0..69 of a chain of R(13) below its top, the staircase of rank 78
LONG_CHAIN = _walk_down(parse_placement("8,6;9,5;10,4;11,3;12,2;13,1", 13))[:70]


def test_check_graded_reports_unequal_chains():
    # 0 < 1 < 2 < 3 and 0 < 4 < 3: two maximal chains of lengths 3 and 2
    relations = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (4, 3)]
    report = check_graded(_subposet(relations, 5))
    assert not report.is_graded
    assert report.witness_chains is not None
    c1, c2 = report.witness_chains
    assert len(c1) != len(c2)
    assert {c1[0], c2[0]} == {report.min_element}
    assert {c1[-1], c2[-1]} == {report.max_element}


def test_check_graded_witness_shares_a_tail_above_the_skipping_cover():
    # 0 < 1 < 2 < 3 < 4 < 5 and 0 < 6 < 3: the cover 6 < 3 skips a level,
    # and both chains go on through 4 and 5 to the maximum
    relations = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    relations += [(0, 6), (6, 3), (6, 4), (6, 5)]
    poset = _subposet(relations, 7)
    report = check_graded(poset)
    assert not report.is_graded
    labels = poset.elements
    assert report.witness_chains == (
        tuple(labels[i] for i in (0, 1, 2, 3, 4, 5)),
        tuple(labels[i] for i in (0, 6, 3, 4, 5)),
    )
    assert report.witness == (
        f"maximal chains of lengths 5 and 4 both end at {labels[5].to_text()!r}"
    )


def test_check_graded_ranks_a_long_chain():
    chain = Poset(13, "general", LONG_CHAIN)  # rows of two words each
    report = check_graded(chain)
    assert report.is_graded and report.max_chain_length == 69
    assert list(report.rank_of.values()) == list(range(70))
    assert report.rank_formula_ok


def test_check_graded_witness_of_a_long_skip_is_pinned():
    # the chain 0 < 1 < ... < 69, and 70, a lower cover of 67 in R(13)
    # beside the chain and above 0 alone, so that its cover 70 < 67 skips
    # 66 levels; the witness pinned is the one a Python sweep along a
    # linear extension reports
    beside = parse_placement("8,7;9,6;10,5;11,4;12,3;13,2", 13)
    assert beside in predecessors_general(LONG_CHAIN[67])
    poset = Poset(13, "general", LONG_CHAIN + (beside,))
    report = check_graded(poset)
    assert not report.is_graded
    assert report.witness == (
        "maximal chains of lengths 69 and 4 both end at '3,2;8,7;9,6;10,5;11,4;12,3;13,1'"
    )
    assert report.witness_chains == (LONG_CHAIN, (LONG_CHAIN[0], beside, *LONG_CHAIN[67:]))


def swept_longest_paths(poset: Poset) -> tuple[list[int], tuple[list[int], ...] | None]:
    """The longest Hasse paths from the minimum and, if a cover a < x skips
    a level, the two chains check_graded reports up to x, by indices: one
    Python sweep along the scan's linear extension, each element taking its
    first lower cover on a longest path, the first skip in that order."""
    order = np.argsort(poset._pos).tolist()
    below, at = poset._below.tolist(), poset._below_at.tolist()
    longest, parent = [0] * len(poset), [-1] * len(poset)
    for x in order:
        for a in below[at[x] : at[x + 1]]:
            if longest[a] + 1 > longest[x]:
                longest[x], parent[x] = longest[a] + 1, a
    skips = [(a, x) for x in order for a in below[at[x] : at[x + 1]] if longest[a] + 1 < longest[x]]
    if not skips:
        return longest, None

    def down(path: list[int]) -> list[int]:
        while parent[path[0]] != -1:
            path.insert(0, parent[path[0]])
        return path

    a, x = skips[0]
    return longest, (down([parent[x], x]), down([a, x]))


def _distinct(board, picks):
    """The placements of R(5) or I(6) at the picked positions, modulo the
    board's count, without repeats, in the order picked."""
    n, kind = board
    everything = enumerate_placements(n, kind)
    return tuple(dict.fromkeys(everything[i % len(everything)] for i in picks))


BOARDS = st.sampled_from([(5, "general"), (6, "orthogonal")])
TOPS = {(5, "general"): "4,2;5,1", (6, "orthogonal"): "4,3;5,2;6,1"}
PICKS = st.lists(st.integers(0, 75), max_size=40, unique=True)


@settings(max_examples=100)
@given(BOARDS, PICKS, st.randoms(use_true_random=False))
def test_witness_chains_step_along_hasse_edges_from_bottom_to_top(board, picks, rnd):
    # a random subset with the board's minimum and maximum, so with unique
    # extrema, its elements listed in a random order
    n, kind = board
    bottom, top = parse_placement("", n), parse_placement(TOPS[board], n)
    elements = list(dict.fromkeys((bottom, top, *_distinct(board, picks))))
    rnd.shuffle(elements)
    poset = Poset(n, kind, elements)
    report = check_graded(poset)
    longest, swept = swept_longest_paths(poset)
    assert (report.witness_chains is None) == (swept is None)
    if swept is None:
        assert report.is_graded and list(report.rank_of.values()) == longest
    for chain, start in zip(report.witness_chains or (), swept or ()):
        path = [poset.index_of(e) for e in chain]
        assert path[: len(start)] == start and path[-1] == poset.index_of(top)
        assert set(zip(path, path[1:])) <= set(hasse_pairs(poset))


def test_check_graded_ranks_a_chain_listed_out_of_order():
    # the chain '' < '2,1' < '3,1', listed as '', '3,1', '2,1': its Hasse
    # ranks 0, 2, 1 are not the formula ranks 0, 3, 1
    labels = tuple(parse_placement(text, 3) for text in ("", "3,1", "2,1"))
    report = check_graded(Poset(3, "general", labels))
    assert report.is_graded and report.max_chain_length == 2
    assert list(report.rank_of.values()) == [0, 2, 1]
    assert report.rank_formula_ok is False


def test_an_orthogonal_poset_rejects_a_non_orthogonal_element_like_rank_orthogonal():
    # labelled as orthogonal, though the last two are not: the first is named
    labels = tuple(parse_placement(t, 4) for t in ("", "4,1", "2,1;3,2", "3,2;4,3"))
    with pytest.raises(OrthogonalityError) as single:
        rank_orthogonal(labels[2])
    with pytest.raises(OrthogonalityError) as err:
        Poset(4, "orthogonal", labels)
    assert str(err.value) == str(single.value) == "placement '2,1;3,2' is not orthogonal"


def test_check_graded_reports_missing_extremum():
    # two minimal elements: 0 and 1, both below 2
    relations = [(0, 2), (1, 2)]
    report = check_graded(_subposet(relations, 3))
    assert not report.is_graded
    assert "minimal" in report.witness
    assert report.witness_chains is None


def test_check_graded_lists_every_maximal_element():
    # 0 below both 1 and 2, which are maximal
    poset = _subposet([(0, 1), (0, 2)], 3)
    report = check_graded(poset)
    assert not report.is_graded
    assert report.min_element == poset.elements[0] and report.max_element is None
    tops = [poset.elements[i].to_text() for i in (1, 2)]
    assert report.witness == f"expected exactly one maximal element, found {tops}"


def test_packed_pair_of_a_repeated_placement_is_not_antisymmetric():
    # _packed_dominance orders a repeat and its first copy both ways, so
    # Poset refuses the repeat before it builds the relation
    elements = enumerate_placements(4)
    twice = elements + elements[7:8]
    leq = dominance_matrix(twice)
    assert leq[7, 15] and leq[15, 7]
    with pytest.raises(RookError) as err:
        Poset(4, "general", twice)
    assert str(err.value) == f"placement {elements[7].to_text()!r} is listed twice"


@pytest.mark.parametrize("block_bytes", [1, 96, 416])
def test_repeat_in_a_later_block_and_word_is_not_antisymmetric(monkeypatch, block_bytes):
    # the first placement of a sum group whose last position lies in a
    # later word, so that its repeat, which would sort last in the group,
    # would have a row with a bit before its own in a block the scan starts
    # past it: the covers would come out wrong without an error, so the
    # repeat is refused before the relation is built, at any block size
    elements = enumerate_placements(6)
    sums = order_module.counting_entries(elements).sum(axis=0)
    order = np.argsort(sums, kind="stable")
    firsts = np.searchsorted(sums[order], sums[order])
    lasts = np.searchsorted(sums[order], sums[order], side="right") - 1
    p = next(p for p in range(len(order)) if firsts[p] == p and p >> 6 < lasts[p] >> 6)
    a = int(order[p])
    monkeypatch.setattr(order_module, "_BLOCK_BYTES", block_bytes)
    twice = elements + elements[a : a + 1]
    with pytest.raises(RookError) as err:
        Poset(6, "general", twice)
    assert str(err.value) == f"placement {elements[a].to_text()!r} is listed twice"


@pytest.mark.parametrize("n,kind", [(5, "general"), (6, "orthogonal")])
def test_leq_elements_agrees_with_the_relation_on_every_pair(n, kind):
    poset = build_poset(n, kind)
    leq = dominance_matrix(poset.elements)
    got = [[poset.leq_elements(a, b) for b in poset.elements] for a in poset.elements]
    assert np.array_equal(np.array(got), leq)


def test_poset_refuses_a_repeated_element_its_relation_allows():
    d = parse_placement("2,1", 3)
    with pytest.raises(RookError) as err:
        Poset(3, "general", (d, d))
    assert str(err.value) == "placement '2,1' is listed twice"


@pytest.mark.parametrize("n", [True, -1, 3.0, "3", None])
def test_poset_refuses_a_board_size_that_is_not_a_non_negative_int(n):
    with pytest.raises(AmbientError, match="board size must be a non-negative int"):
        Poset(n, "general", ())


def test_poset_refuses_elements_of_another_board():
    elements = enumerate_placements(3)
    with pytest.raises(AmbientError) as err:
        Poset(5, "general", elements)
    assert str(err.value) == "placement '' is on board 3, not 5"
    mixed = (parse_placement("", 3), parse_placement("4,1", 4))
    with pytest.raises(AmbientError, match="'4,1' is on board 4, not 3"):
        Poset(3, "general", mixed)


@pytest.mark.parametrize("stranger_first", [False, True])
def test_poset_names_the_first_of_a_wrong_board_and_a_non_placement(stranger_first):
    # the two checks run over all elements at once; the error is still
    # that of the first offender in index order
    offenders = [parse_placement("4,1", 4), "a"]
    if stranger_first:
        offenders.reverse()
    elements = (parse_placement("", 3), *offenders)
    with pytest.raises(RookError) as err:
        Poset(3, "general", elements)
    if stranger_first:
        assert type(err.value) is RookError and str(err.value) == "'a' is not a RookPlacement"
    else:
        assert type(err.value) is AmbientError
        assert str(err.value) == "placement '4,1' is on board 4, not 3"


def test_poset_refuses_elements_that_are_not_placements():
    with pytest.raises(RookError) as err:
        Poset(3, "general", ("a", "b"))
    assert str(err.value) == "'a' is not a RookPlacement"


def test_poset_and_batch_ranks_refuse_an_unknown_kind():
    elements = enumerate_placements(4)
    with pytest.raises(RookError, match="unknown kind 'bogus'"):
        Poset(4, "bogus", elements)
    with pytest.raises(RookError, match="unknown kind 'Orthogonal'"):
        Poset(4, "Orthogonal", elements)


def matmul_covers(leq: np.ndarray) -> list[tuple[int, int]]:
    """The definition: strict pairs with no two-step path between them."""
    strict = (leq & ~np.eye(len(leq), dtype=bool)).astype(np.int64)
    two_step = (strict @ strict) > 0
    return sorted(zip(*map(np.ndarray.tolist, np.nonzero(strict & ~two_step))))


HAND_BUILT = [
    ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (4, 3)], 5),
    ([(0, 2), (1, 2)], 3),
    ([], 4),
    ([(3, 0), (3, 1), (3, 2), (0, 2), (1, 2)], 4),
]


@pytest.mark.parametrize("relations,count", HAND_BUILT)
def test_hasse_matches_the_definition_on_hand_built_posets(relations, count):
    poset = _subposet(relations, count)
    assert hasse_pairs(poset) == matmul_covers(_fake_leq(relations, count))


def per_row_covers(leq: np.ndarray) -> list[tuple[int, int]]:
    """The cover scan as one Python loop over the rows of leq: the
    reference for the packed block scan, and RookError if leq is not a
    partial order (with reflexivity, the checks on the covers of each a
    prove it antisymmetric and transitive)."""
    m = len(leq)
    if not leq.diagonal().all():
        raise RookError("order relation is not reflexive")
    order = np.argsort(leq.sum(axis=0), kind="stable")
    edges = []
    for a in range(m):
        up = leq[a]
        above = order[np.flatnonzero(up[order])]
        above = above[above != a]
        covers = []
        while len(above):
            c = int(above[0])
            covers.append(c)
            above = above[~leq[c][above]]
        # a cover c <= a, or an x >= c but not x >= a, breaks the order
        if leq[covers, a].any() or (leq[covers] > up).any():
            raise RookError(f"order relation fails at element {a}")
        edges += [(a, c) for c in sorted(covers)]
    return edges


def test_poset_of_no_element_and_of_one():
    empty = Poset(3, "general", ())
    assert len(empty) == 0 and empty.hasse.shape == (0, 2)
    report = check_graded(empty)
    assert not report.is_graded and report.rank_of == {}
    assert report.witness == "expected exactly one minimal element, found []"
    labels = enumerate_placements(3)[:1]
    one = Poset(3, "general", labels)
    assert one.hasse.shape == (0, 2) and brute_force_covers(one, labels[0]) == set()
    report = check_graded(one)
    assert report.is_graded and report.rank_formula_ok
    assert report.min_element == report.max_element == labels[0]
    assert report.rank_of == {labels[0]: 0} and report.max_chain_length == 0
    # hasse is an (E, 2) integer array that refuses writes, through itself
    # and through its views, so a caller cannot change what a later
    # check_graded reads
    whole = build_poset(3)
    report = check_graded(whole)
    edges = sum(len(brute_force_covers(whole, e)) for e in whole.elements)
    for poset in (empty, one, whole):
        assert isinstance(poset.hasse, np.ndarray) and poset.hasse.dtype.kind == "i"
        assert poset.hasse.shape == ((edges if poset is whole else 0), 2)
        with pytest.raises(ValueError, match="read-only"):
            poset.hasse[:] = 0
    with pytest.raises(ValueError, match="read-only"):
        whole.hasse[:, 1][0] = 0
    assert check_graded(whole) == report


# Budgets of 1, 6, 12 and 26 rows a block for m = 52, which packs to one
# 8-byte word a row (a scan block's two arrays share the budget), and of 1,
# 3, 6 and 13 rows for m = 76, which packs to two, until the blocks start in
# the second word, where they hold twice as many.  The fill's blocks are
# sized alike.
@pytest.mark.parametrize("block_bytes", [1, 96, 200, 416])
@pytest.mark.parametrize("n,kind", [(5, "general"), (6, "orthogonal")])
def test_hasse_does_not_depend_on_the_block_size(monkeypatch, n, kind, block_bytes):
    whole = build_poset(n, kind)
    leq = dominance_matrix(whole.elements)
    monkeypatch.setattr(order_module, "_BLOCK_BYTES", block_bytes)
    poset = Poset(n, kind, whole.elements)
    assert poset.hasse.tolist() == whole.hasse.tolist()
    # the scan of another linear extension, by down-set size
    assert hasse_pairs(poset) == matmul_covers(leq) == _scan(leq)
    assert check_graded(poset) == check_graded(whole)


@st.composite
def relations(draw):
    """The transitive closure of a random DAG on up to 70 elements (more
    than one 64-bit word a row), as is or with one strict pair dropped,
    reversed, or joined by its reverse."""
    change = draw(st.sampled_from(["none", "drop", "reverse", "both"]))
    m = draw(st.one_of(st.integers(0, 20), st.integers(56, 70)))
    rank = np.array(draw(st.permutations(range(m))), dtype=int)
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                          max_size=3 * m)) if m else []
    leq = np.eye(m, dtype=bool)
    for a, b in pairs:
        if rank[a] < rank[b]:
            leq[a, b] = True
    for _ in range(m.bit_length()):
        leq = leq | (leq.astype(np.int64) @ leq.astype(np.int64) > 0)
    strict = np.argwhere(leq & ~np.eye(m, dtype=bool))
    if change != "none" and len(strict):
        a, b = strict[draw(st.integers(0, len(strict) - 1))]
        leq[a, b] = change == "both"
        leq[b, a] = change != "drop"
    return leq


@settings(max_examples=200)
@given(relations(), st.sampled_from([1, 96, 416, None]))
def test_block_scan_matches_the_per_row_loop(leq, block_bytes):
    # on the partial orders drawn; the scan is given no other relation
    try:
        want = per_row_covers(leq)
    except RookError:
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            mp.setattr(order_module, "_BLOCK_BYTES", block_bytes)
        assert _scan(leq) == want == matmul_covers(leq)


@settings(max_examples=100)
@given(BOARDS, PICKS)
def test_longest_paths_match_the_sweep_on_random_orders(board, picks):
    # induced subposets, graded or not, with any number of minimal elements
    poset = Poset(*board, _distinct(board, picks))
    longest, _ = swept_longest_paths(poset)
    assert rookposet.poset._longest_paths(poset).tolist() == longest


@settings(max_examples=100)
@given(BOARDS, PICKS)
def test_a_packed_bool_relation_acts_as_packed_dominance(board, picks):
    # any list of distinct placements, not only a whole board in order: the
    # scan of their dominance order in another linear extension, by
    # down-set size, gives the poset's covers
    elements = _distinct(board, picks)
    assert _scan(dominance_matrix(elements)) == hasse_pairs(Poset(*board, elements))


@pytest.mark.parametrize("n,kind", [(n, "general") for n in range(1, 7)]
                         + [(n, "orthogonal") for n in range(1, 8)])
def test_hasse_matches_the_definition(n, kind):
    poset = build_poset(n, kind)
    assert hasse_pairs(poset) == matmul_covers(dominance_matrix(poset.elements))


@pytest.mark.parametrize("n,kind,edges", [
    (4, "general", 24), (6, "general", 631), (7, "general", 3501),
    (5, "orthogonal", 63), (7, "orthogonal", 959), (8, "orthogonal", 3884),
])
def test_hasse_edge_counts_are_pinned(n, kind, edges):
    poset = build_poset(n, kind)
    predecessors = (
        predecessors_general if kind == "general" else predecessors_orthogonal
    )
    assert len(poset.hasse) == edges
    assert sum(len(predecessors(d)) for d in poset.elements) == edges


def test_build_poset_memory_stays_near_one_leq_matrix():
    # m = 877, so the packed relation takes 0.1 MB, which tracemalloc
    # counts; a bool leq matrix would take 0.77 MB.  The bound lies
    # between the peak of a dense float32 f @ f reduction (10.0 MB) and
    # of the blocked build (0.9 MB).
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        poset = build_poset(7, "general")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(poset) == 877
    assert peak < 4_000_000


@pytest.mark.parametrize("n,kind", [(5, "general"), (6, "orthogonal")])
def test_materialized_poset_does_not_touch_the_per_element_routes(monkeypatch, n, kind):
    def per_element(*args):
        raise AssertionError("per-element route called")

    monkeypatch.setattr(order_module, "rank_matrix", per_element)
    for name in ("kerov_map", "rank_general", "rank_orthogonal"):
        monkeypatch.setattr(rookposet.kerov, name, per_element)
    # also caught if poset imports these names again
    for name in ("rank_matrix", "kerov_map", "rank_general", "rank_orthogonal"):
        monkeypatch.setattr(rookposet.poset, name, per_element, raising=False)
    poset = build_poset(n, kind)
    report = check_graded(poset)
    assert report.is_graded and report.rank_formula_ok
    assert "rank=" in export_dot(poset, include_ranks=True)
    assert poset_to_json(poset)["ranks"] == list(report.rank_of.values())


def _count_root_arrays(monkeypatch) -> list[int]:
    """Wrap root_arrays, the flattening of placements, in every module that
    binds it; the list returned grows by one entry a call."""
    calls, real = [], rookposet.placements.root_arrays

    def counted(placements):
        calls.append(1)
        return real(placements)

    for module in list(sys.modules.values()):
        bound = getattr(module, "root_arrays", None)
        if module.__name__.startswith("rookposet") and bound is real:
            monkeypatch.setattr(module, "root_arrays", counted)
    return calls


@pytest.mark.parametrize("n,kind", [(n, "general") for n in (6, 7, 8)]
                         + [(n, "orthogonal") for n in (7, 8, 9)])
def test_a_build_and_its_graded_check_take_the_root_arrays_once(monkeypatch, n, kind):
    # once, in the Poset constructor, which keeps them: the enumeration,
    # the graded check and the exports take none
    calls = _count_root_arrays(monkeypatch)
    poset = build_poset(n, kind)
    assert len(calls) == 1
    assert check_graded(poset).rank_formula_ok
    export_dot(poset, include_ranks=True)
    poset_to_json(poset)
    assert len(calls) == 1


@pytest.mark.parametrize("n,kind", [(n, "general") for n in (6, 7, 8)]
                         + [(n, "orthogonal") for n in (7, 8, 9)])
def test_a_build_equals_a_poset_of_the_enumeration_built_by_hand(n, kind):
    # a build is a Poset of the enumeration, with the same root arrays,
    # and holds and exports what one built by hand does
    built, by_hand = build_poset(n, kind), Poset(n, kind, enumerate_placements(n, kind))
    assert np.array_equal(built.hasse, by_hand.hasse)
    for ours, theirs in zip(built._roots, by_hand._roots, strict=True):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    assert json.dumps(poset_to_json(built)) == json.dumps(poset_to_json(by_hand))


def test_a_poset_built_by_hand_takes_its_root_arrays_once_on_first_need(monkeypatch):
    # the first need is its relation, in the constructor
    elements = enumerate_placements(5)
    calls = _count_root_arrays(monkeypatch)
    poset = Poset(5, "general", elements)
    assert len(calls) == 1
    assert check_graded(poset).rank_formula_ok
    dumped = poset_to_json(poset)
    export_dot(poset, include_ranks=True)
    assert len(calls) == 1
    assert dumped == poset_to_json(build_poset(5))


def test_export_dot_of_no_element_with_ranks():
    empty = Poset(3, "general", ())
    text = export_dot(empty, include_ranks=True)
    assert text == 'digraph "general_3" {\n  rankdir=BT;\n}\n'
    assert parse_dot(text) == ({}, [])


def test_export_dot_smallest_diagram():
    text = export_dot(build_poset(2))
    nodes, edges = parse_dot(text)
    assert nodes == {0: "", 1: "2,1"}
    assert edges == [(0, 1)]


@pytest.mark.parametrize("n,kind", [(4, "general"), (4, "orthogonal")])
def test_export_dot_matches_the_hasse_diagram(n, kind):
    poset = build_poset(n, kind)
    nodes, edges = parse_dot(export_dot(poset))
    assert len(nodes) == len(poset)
    assert sorted(edges) == hasse_pairs(poset)
    for idx, label in nodes.items():
        assert parse_placement(label, n) == poset.elements[idx]
    # deterministic output
    assert export_dot(poset) == export_dot(poset)


def test_export_dot_rank_annotations():
    poset = build_poset(4, "orthogonal")
    text = export_dot(poset, include_ranks=True)
    nodes, edges = parse_dot(text)
    assert sorted(edges) == hasse_pairs(poset)
    for line in text.split("\n"):
        m = NODE_RE.match(line)
        if m:
            idx, rank = int(m.group(1)), int(m.group(3))
            assert rank == rank_orthogonal(poset.elements[idx])
    assert "{ rank=same;" in text


def test_poset_json_dump():
    poset = build_poset(4, "orthogonal")
    blob = json.loads(json.dumps(poset_to_json(poset)))
    assert blob["n"] == 4 and blob["kind"] == "orthogonal"
    assert len(blob["elements"]) == len(poset)
    assert blob["hasse"] == poset.hasse.tolist()
    report = check_graded(poset)
    for element, rank in zip(blob["elements"], blob["ranks"]):
        placement = placement_from_json({"n": 4, "roots": element})
        assert rank == report.rank_of[placement]


@pytest.mark.parametrize(
    "n,kind,json_digest,dot_digest",
    [
        (
            6,
            "general",
            "ada79c78c4fec940f5fd5857b05f05bc055226461d828c68a68faf13f9e34a0a",
            "f3ca414a24cbf6a6d5040697e0471cda0a253d40a8475bf453c1c0a26ee40d8d",
        ),
        (
            7,
            "orthogonal",
            "1d104b86e3326f1ec9e4999a4792a9f84ea63ce68fb79dd5d8da4984babe95e3",
            "e56f2a10fbe23ed474648909d1bc3b24c0b1914434421c256ad548903d0a6747",
        ),
    ],
    ids=["general-6", "orthogonal-7"],
)
def test_export_bytes_are_pinned(n, kind, json_digest, dot_digest):
    # sha256 of what `rookposet hasse --format json` and `--format dot
    # --ranks` write, so any drift in how the covers are written shows
    poset = build_poset(n, kind)
    blob = json.dumps(poset_to_json(poset)) + "\n"
    assert hashlib.sha256(blob.encode()).hexdigest() == json_digest
    text = export_dot(poset, include_ranks=True)
    assert hashlib.sha256(text.encode()).hexdigest() == dot_digest


@pytest.mark.slow
def test_general_nine_is_graded_with_formula_ranks():
    poset = build_poset(9)
    assert len(poset) == 21147 and len(poset.hasse) == 126487
    report = check_graded(poset)
    assert report.is_graded and report.rank_formula_ok


@pytest.mark.slow
def test_orthogonal_ten_hasse_edges_are_the_move_covers():
    poset = build_poset(10, "orthogonal")
    assert len(poset.hasse) == 67486
    assert sum(len(predecessors_orthogonal(d)) for d in poset.elements) == 67486


def _peaks_in_a_fresh_process(code: str) -> list[int]:
    """Run code in a fresh Python process and return its peak RSS in kB at
    each call the code makes to peak().  The peak is read as VmHWM
    (Linux), since ru_maxrss keeps the peak of the process that spawned
    this one across exec."""
    peak = (
        "import re\n"
        "def peak():\n"
        "    with open('/proc/self/status') as status:\n"
        "        print(re.search(r'VmHWM:\\s*(\\d+) kB', status.read())[1])\n"
    )
    src = os.path.dirname(os.path.dirname(rookposet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", peak + code], env=env, capture_output=True, text=True, check=True
    )
    return [int(line) for line in out.stdout.split()]


def test_repeated_builds_keep_the_peak_rss():
    # Five passes of the benchmark's hasse ladder: the relations freed by
    # one pass must leave room for the next, so that the peak RSS after
    # pass 5 is within 2 MB of that after pass 1.
    peaks = _peaks_in_a_fresh_process(
        "from rookposet import build_poset, check_graded\n"
        "for _ in range(5):\n"
        "    for kind, n in [('general', 6), ('general', 7), ('general', 8),\n"
        "                    ('orthogonal', 7), ('orthogonal', 8), ('orthogonal', 9)]:\n"
        "        check_graded(build_poset(n, kind))\n"
        "    peak()\n"
    )
    assert len(peaks) == 5 and peaks[-1] - peaks[0] <= 2 * 1024


@pytest.mark.slow
def test_general_nine_builds_in_a_quarter_gigabyte():
    # a fresh process, so that the peak is this build's alone
    peaks = _peaks_in_a_fresh_process("from rookposet import build_poset; build_poset(9); peak()")
    assert len(peaks) == 1 and peaks[0] < 256 * 1024


@pytest.mark.slow
def test_general_ten_is_graded_with_formula_ranks():
    poset = build_poset(10)
    assert len(poset) == 115975 and len(poset.hasse) == 820582
    report = check_graded(poset)
    assert report.is_graded and report.rank_formula_ok


@pytest.mark.slow
def test_orthogonal_twelve_is_graded_with_formula_ranks():
    poset = build_poset(12, "orthogonal")
    assert len(poset) == 140152 and len(poset.hasse) == 1303036
    report = check_graded(poset)
    assert report.is_graded and report.rank_formula_ok


@pytest.mark.slow
def test_orthogonal_eleven_hasse_edges_are_the_move_covers():
    poset = build_poset(11, "orthogonal")
    assert len(poset.hasse) == 291946
    assert sum(len(predecessors_orthogonal(d)) for d in poset.elements) == 291946

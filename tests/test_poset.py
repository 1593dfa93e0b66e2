from __future__ import annotations

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
from rookposet.order import dominance_matrix, pack_rows, packed_dominance
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
    """A bool relation packed as the (bits, columns) pair Poset takes, its
    columns in down-set-size order."""
    columns = np.argsort(leq.sum(axis=0), kind="stable")
    return pack_rows(leq[np.ix_(columns, columns)]), columns


def _fake_leq(relations, count):
    leq = np.eye(count, dtype=bool)
    for a, b in relations:
        leq[a, b] = True
    return leq


def _fake_poset(relations, count):
    # handcrafted order over distinct real placements, used as labels only
    labels = enumerate_placements(4)[:count]
    return Poset(4, "general", labels, _as_pair(_fake_leq(relations, count)))


def test_check_graded_reports_unequal_chains():
    # 0 < 1 < 2 < 3 and 0 < 4 < 3: two maximal chains of lengths 3 and 2
    relations = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (4, 3)]
    report = check_graded(_fake_poset(relations, 5))
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
    poset = _fake_poset(relations, 7)
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
    leq = np.triu(np.ones((70, 70), dtype=bool))  # rows of two words each
    chain = Poset(6, "general", enumerate_placements(6)[:70], _as_pair(leq))
    report = check_graded(chain)
    assert report.is_graded and report.max_chain_length == 69
    assert list(report.rank_of.values()) == list(range(70))


def test_check_graded_witness_of_a_long_skip_is_pinned():
    # the chain 0 < 1 < ... < 69, and 70 above 0..10 and below 60..69 only,
    # so that its cover 70 < 60 skips 48 levels; the witness pinned is the
    # one a Python sweep along a linear extension reports
    leq = np.triu(np.ones((71, 71), dtype=bool))
    leq[:, 70] = leq[70] = False
    leq[:11, 70] = leq[70, 60:] = True
    poset = Poset(6, "general", enumerate_placements(6)[:71], _as_pair(leq))
    report = check_graded(poset)
    assert not report.is_graded
    assert report.witness == "maximal chains of lengths 69 and 21 both end at '3,1;4,3;5,4;6,2'"
    assert report.witness_chains == (
        tuple(poset.elements[i] for i in range(70)),
        tuple(poset.elements[i] for i in (*range(11), 70, *range(60, 70))),
    )


def swept_longest_paths(poset: Poset) -> tuple[list[int], tuple[list[int], ...] | None]:
    """The longest Hasse paths from the minimum and, if a cover a < x skips
    a level, the two chains check_graded reports up to x, by indices: one
    Python sweep along the scan's linear extension, each element taking its
    first lower cover on a longest path, the first skip in that order."""
    order = poset._columns.tolist()
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


@settings(max_examples=100)
@given(
    st.integers(2, 40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(1, 4)), max_size=80),
    st.randoms(use_true_random=False),
)
def test_witness_chains_step_along_hasse_edges_from_bottom_to_top(m, steps, rnd):
    # a < a + d only, closed up: an order with minimum 0 and maximum m - 1,
    # its elements listed in a random order
    leq = np.eye(m, dtype=bool)
    leq[0], leq[:, -1] = True, True
    for a, d in steps:
        leq[a % m, min(a % m + d, m - 1)] = True
    for _ in range(m.bit_length()):
        leq = leq | (leq.astype(np.int64) @ leq.astype(np.int64) > 0)
    order = list(range(m))
    rnd.shuffle(order)
    poset = Poset(6, "general", enumerate_placements(6)[:m], _as_pair(leq[np.ix_(order, order)]))
    report = check_graded(poset)
    longest, swept = swept_longest_paths(poset)
    assert (report.witness_chains is None) == (swept is None)
    if swept is None:
        assert report.is_graded and list(report.rank_of.values()) == longest
    for chain, start in zip(report.witness_chains or (), swept or ()):
        path = [poset.index_of(e) for e in chain]
        assert path[: len(start)] == start and path[-1] == order.index(m - 1)
        assert set(zip(path, path[1:])) <= set(poset.hasse)


def test_check_graded_ranks_a_chain_listed_out_of_order():
    # the chain 0 < 2 < 1: its Hasse ranks 0, 2, 1 are not the formula
    # ranks 0, 1, 2 of the labels '', '2,1' and '2,1;3,2'
    report = check_graded(_fake_poset([(0, 1), (0, 2), (2, 1)], 3))
    assert report.is_graded and report.max_chain_length == 2
    assert list(report.rank_of.values()) == [0, 2, 1]
    assert report.rank_formula_ok is False


def test_poset_keeps_the_callers_array_writable():
    # and keeps no reference to it: a later write changes nothing
    labels = enumerate_placements(4)[:2]
    leq = np.eye(2, dtype=bool)
    poset = Poset(4, "general", labels, _as_pair(leq))
    assert not any(
        isinstance(v, np.ndarray) and np.shares_memory(v, leq)
        for v in vars(poset).values()
    )
    leq[0, 1] = True
    assert not poset.leq_elements(labels[0], labels[1])
    assert poset.hasse == () and check_graded(poset).witness == (
        f"expected exactly one minimal element, found {[e.to_text() for e in labels]}"
    )


def test_check_graded_rejects_a_non_orthogonal_element_like_rank_orthogonal():
    # a chain '' < '2,1;3,2' labelled as orthogonal, though its top is not
    labels = (parse_placement("", 3), parse_placement("2,1;3,2", 3))
    poset = Poset(3, "orthogonal", labels, _as_pair(np.array([[True, True], [False, True]])))
    with pytest.raises(OrthogonalityError) as err:
        check_graded(poset)
    assert str(err.value) == "placement '2,1;3,2' is not orthogonal"


def test_check_graded_reports_missing_extremum():
    # two minimal elements: 0 and 1, both below 2
    relations = [(0, 2), (1, 2)]
    report = check_graded(_fake_poset(relations, 3))
    assert not report.is_graded
    assert "minimal" in report.witness
    assert report.witness_chains is None


def test_check_graded_lists_every_maximal_element():
    # 0 below both 1 and 2, which are maximal
    poset = _fake_poset([(0, 1), (0, 2)], 3)
    report = check_graded(poset)
    assert not report.is_graded
    assert report.min_element == poset.elements[0] and report.max_element is None
    tops = [poset.elements[i].to_text() for i in (1, 2)]
    assert report.witness == f"expected exactly one maximal element, found {tops}"


def test_poset_rejects_non_orders():
    labels = enumerate_placements(4)[:2]
    with pytest.raises(RookError, match="not antisymmetric"):
        Poset(4, "general", labels, _as_pair(np.ones((2, 2), dtype=bool)))
    with pytest.raises(RookError, match="not reflexive"):
        Poset(4, "general", labels, _as_pair(np.zeros((2, 2), dtype=bool)))
    with pytest.raises(RookError, match="not antisymmetric"):
        Poset(4, "general", enumerate_placements(4)[:3], _as_pair(np.ones((3, 3), dtype=bool)))


@pytest.mark.parametrize("relations,count,message", [
    # 0 and 1 are each <= the other, and 0 <= 2 <= 3 but not 0 <= 3: the
    # antisymmetry of row 0 is reported before its transitivity
    ([(0, 1), (1, 0), (0, 2), (2, 3)], 4,
     "order relation is not antisymmetric: elements 0 and 1 are each <= the other"),
    # covers 1 and 2 of row 0 are both <= 0; the first one chosen is named
    ([(0, 1), (1, 0), (0, 2), (2, 0)], 3,
     "order relation is not antisymmetric: elements 0 and 1 are each <= the other"),
    # covers 1 and 2 of row 0 both escape its up-set; again the first
    ([(0, 1), (0, 2), (1, 3), (2, 4)], 5,
     "order relation is not transitive: elements 0 <= 1 <= 3 but not 0 <= 3"),
])
def test_poset_names_the_first_offence(relations, count, message):
    leq = _fake_leq(relations, count)
    with pytest.raises(RookError) as err:
        per_row_covers(leq)
    assert str(err.value) == message
    with pytest.raises(RookError) as err:
        Poset(4, "general", enumerate_placements(4)[:count], _as_pair(leq))
    assert str(err.value) == message


@pytest.mark.parametrize("a", [0, 17, 51])
def test_packed_pair_without_a_diagonal_bit_is_not_reflexive(a):
    elements = enumerate_placements(5)
    bits, columns = packed_dominance(elements)
    p = int(np.argsort(columns)[a])  # row p and its bit p stand for a
    bits[p, p >> 6] ^= np.uint64(1 << (p & 63))
    with pytest.raises(RookError) as err:
        Poset(5, "general", elements, (bits, columns))
    assert str(err.value) == "order relation is not reflexive"


def test_packed_pair_of_a_repeated_placement_is_not_antisymmetric():
    elements = enumerate_placements(4)
    twice = elements + elements[7:8]
    with pytest.raises(RookError, match="not antisymmetric: elements 7 and 15"):
        Poset(4, "general", twice, packed_dominance(twice))


@pytest.mark.parametrize("block_bytes", [1, 96, 416])
def test_repeat_in_a_later_block_and_word_is_not_antisymmetric(monkeypatch, block_bytes):
    # the first placement of a sum group whose last position lies in a
    # later word, so that its repeat, which sorts last in the group, has a
    # row whose first block starts past the word of the first copy
    elements = enumerate_placements(6)
    sums = order_module.counting_entries(elements).sum(axis=0)
    order = np.argsort(sums, kind="stable")
    firsts = np.searchsorted(sums[order], sums[order])
    lasts = np.searchsorted(sums[order], sums[order], side="right") - 1
    p = next(p for p in range(len(order)) if firsts[p] == p and p >> 6 < lasts[p] >> 6)
    a, m = int(order[p]), len(elements)
    monkeypatch.setattr(order_module, "_BLOCK_BYTES", block_bytes)
    twice = elements + elements[a : a + 1]
    with pytest.raises(RookError) as err:
        Poset(6, "general", twice, packed_dominance(twice))
    assert str(err.value) == (
        f"order relation is not antisymmetric: elements {a} and {m} are each <= the other"
    )


@pytest.mark.parametrize("n,kind", [(5, "general"), (6, "orthogonal")])
def test_leq_elements_agrees_with_the_relation_on_every_pair(n, kind):
    poset = build_poset(n, kind)
    leq = dominance_matrix(poset.elements)
    got = [[poset.leq_elements(a, b) for b in poset.elements] for a in poset.elements]
    assert np.array_equal(np.array(got), leq)


def test_poset_refuses_a_repeated_element_its_relation_allows():
    d = parse_placement("2,1", 3)
    with pytest.raises(RookError) as err:
        Poset(3, "general", (d, d), _as_pair(np.eye(2, dtype=bool)))
    assert str(err.value) == "placement '2,1' is listed twice"


@pytest.mark.parametrize("n", [True, -1, 3.0, "3", None])
def test_poset_refuses_a_board_size_that_is_not_a_non_negative_int(n):
    with pytest.raises(AmbientError, match="board size must be a non-negative int"):
        Poset(n, "general", (), _as_pair(np.zeros((0, 0), dtype=bool)))


def test_poset_refuses_elements_of_another_board():
    elements = enumerate_placements(3)
    with pytest.raises(AmbientError) as err:
        Poset(5, "general", elements, packed_dominance(elements))
    assert str(err.value) == "placement '' is on board 3, not 5"
    mixed = (parse_placement("", 3), parse_placement("4,1", 4))
    with pytest.raises(AmbientError, match="'4,1' is on board 4, not 3"):
        Poset(3, "general", mixed, _as_pair(np.eye(2, dtype=bool)))


@pytest.mark.parametrize("stranger_first", [False, True])
def test_poset_names_the_first_of_a_wrong_board_and_a_non_placement(stranger_first):
    # the two checks run over all elements at once; the error is still
    # that of the first offender in index order
    offenders = [parse_placement("4,1", 4), "a"]
    if stranger_first:
        offenders.reverse()
    elements = (parse_placement("", 3), *offenders)
    with pytest.raises(RookError) as err:
        Poset(3, "general", elements, _as_pair(np.eye(3, dtype=bool)))
    if stranger_first:
        assert type(err.value) is RookError and str(err.value) == "'a' is not a RookPlacement"
    else:
        assert type(err.value) is AmbientError
        assert str(err.value) == "placement '4,1' is on board 4, not 3"


def test_poset_refuses_elements_that_are_not_placements():
    with pytest.raises(RookError) as err:
        Poset(3, "general", ("a", "b"), _as_pair(np.eye(2, dtype=bool)))
    assert str(err.value) == "'a' is not a RookPlacement"


def test_packed_pair_must_list_its_columns_in_a_linear_extension():
    # the reverse of the enumeration order, which starts at the minimum
    elements = enumerate_placements(4)
    columns = np.arange(len(elements))[::-1].copy()
    bits = pack_rows(dominance_matrix(elements)[np.ix_(columns, columns)])
    with pytest.raises(RookError) as err:
        Poset(4, "general", elements, (bits, columns))
    assert str(err.value) == "columns are not a linear extension of the order relation"


def test_packed_pair_must_fit_the_elements():
    elements = enumerate_placements(4)
    with pytest.raises(RookError, match="packed leq must cover 14 elements"):
        Poset(4, "general", elements[:14], packed_dominance(elements))


def test_a_bool_relation_is_refused():
    # Poset takes the packed pair only; _as_pair packs a bool relation
    elements = enumerate_placements(4)
    with pytest.raises(RookError) as err:
        Poset(4, "general", elements, dominance_matrix(elements))
    assert str(err.value) == "packed leq must be a (bits, columns) pair, not ndarray"


@pytest.mark.parametrize(
    "bad,message",
    [
        (lambda bits, columns: (bits, columns + 1), "permutation of range(15)"),
        (lambda bits, columns: (bits.astype(np.int64), columns), "uint64"),
        (lambda bits, columns: (bits, columns.astype(float)), "permutation of range(15)"),
        (lambda bits, columns: (bits, columns, columns), "pair, not 3"),
    ],
    ids=["columns-not-a-permutation", "signed-bits", "float-columns", "three-parts"],
)
def test_packed_pair_of_the_wrong_form_is_refused(bad, message):
    elements = enumerate_placements(4)
    with pytest.raises(RookError, match=re.escape(message)):
        Poset(4, "general", elements, bad(*packed_dominance(elements)))


def test_poset_and_batch_ranks_refuse_an_unknown_kind():
    elements = enumerate_placements(4)
    with pytest.raises(RookError, match="unknown kind 'bogus'"):
        Poset(4, "bogus", elements, packed_dominance(elements))
    with pytest.raises(RookError, match="unknown kind 'Orthogonal'"):
        rookposet.kerov.ranks_of(elements, "Orthogonal")


def test_poset_rejects_non_transitive_relations():
    # 0 < 1 and 1 < 2 but not 0 < 2
    with pytest.raises(RookError, match="not transitive"):
        _fake_poset([(0, 1), (1, 2)], 3)
    # the same with the elements listed in another order
    with pytest.raises(RookError, match="not transitive"):
        _fake_poset([(2, 0), (0, 1)], 3)


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
    poset = _fake_poset(relations, count)
    assert list(poset.hasse) == matmul_covers(_fake_leq(relations, count))


def per_row_covers(leq: np.ndarray) -> list[tuple[int, int]]:
    """The cover scan as one Python loop over the rows of leq, with the
    RookError messages of Poset: the reference for its packed block scan."""
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
        if not covers:
            continue
        back = leq[covers, a]
        if back.any():
            raise RookError(
                f"order relation is not antisymmetric: elements {a} and "
                f"{covers[back.argmax()]} are each <= the other"
            )
        escaped = leq[covers] > up
        if escaped.any():
            k, x = np.unravel_index(int(escaped.argmax()), escaped.shape)
            raise RookError(
                f"order relation is not transitive: elements {a} <= "
                f"{covers[k]} <= {x} but not {a} <= {x}"
            )
        edges += [(a, c) for c in sorted(covers)]
    return edges


def test_poset_of_no_element_and_of_one():
    empty = Poset(3, "general", (), _as_pair(np.zeros((0, 0), dtype=bool)))
    assert len(empty) == 0 and empty.hasse == ()
    report = check_graded(empty)
    assert not report.is_graded and report.rank_of == {}
    assert report.witness == "expected exactly one minimal element, found []"
    labels = enumerate_placements(3)[:1]
    one = Poset(3, "general", labels, _as_pair(np.ones((1, 1), dtype=bool)))
    assert one.hasse == () and brute_force_covers(one, labels[0]) == set()
    report = check_graded(one)
    assert report.is_graded and report.rank_formula_ok
    assert report.min_element == report.max_element == labels[0]
    assert report.rank_of == {labels[0]: 0} and report.max_chain_length == 0


# Budgets of 1, 3, 6 and 13 scan rows for m = 52, which packs to one 8-byte
# word a row (four block arrays share the budget), and of 1, 1, 3 and 6 for
# m = 76, which packs to two: 3 and 6 rows leave a short last block, and 13
# rows none.  The fill's blocks hold twice as many rows.
@pytest.mark.parametrize("block_bytes", [1, 96, 200, 416])
@pytest.mark.parametrize("n,kind", [(5, "general"), (6, "orthogonal")])
def test_hasse_does_not_depend_on_the_block_size(monkeypatch, n, kind, block_bytes):
    whole = build_poset(n, kind)
    leq = dominance_matrix(whole.elements)
    monkeypatch.setattr(order_module, "_BLOCK_BYTES", block_bytes)
    poset = Poset(n, kind, whole.elements, _as_pair(leq))
    assert poset.hasse == whole.hasse
    assert list(poset.hasse) == matmul_covers(leq)
    assert check_graded(poset) == check_graded(whole)
    packed = Poset(n, kind, whole.elements, packed_dominance(whole.elements))
    assert packed.hasse == whole.hasse


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
    labels = enumerate_placements(6)[: len(leq)]
    try:
        want, message = per_row_covers(leq), None
    except RookError as err:
        want, message = None, str(err)
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            mp.setattr(order_module, "_BLOCK_BYTES", block_bytes)
        if message is None:
            poset = Poset(6, "general", labels, _as_pair(leq))
            assert list(poset.hasse) == want == matmul_covers(leq)
        else:
            with pytest.raises(RookError) as err:
                Poset(6, "general", labels, _as_pair(leq))
            assert str(err.value) == message


@settings(max_examples=100)
@given(relations())
def test_longest_paths_match_the_sweep_on_random_orders(leq):
    # graded or not, with any number of minimal elements
    try:
        per_row_covers(leq)
    except RookError:
        assume(False)
    poset = Poset(6, "general", enumerate_placements(6)[: len(leq)], _as_pair(leq))
    longest, _ = swept_longest_paths(poset)
    assert rookposet.poset._longest_paths(poset).tolist() == longest


@settings(max_examples=100)
@given(
    st.sampled_from([(5, "general"), (6, "orthogonal")]),
    st.lists(st.integers(0, 75), max_size=40, unique=True),
)
def test_a_packed_bool_relation_acts_as_packed_dominance(board, picks):
    # any list of distinct placements, not only a whole board in order
    n, kind = board
    everything = enumerate_placements(n, kind)
    elements = tuple(dict.fromkeys(everything[i % len(everything)] for i in picks))
    want = Poset(n, kind, elements, packed_dominance(elements))
    got = Poset(n, kind, elements, _as_pair(dominance_matrix(elements)))
    assert got.hasse == want.hasse
    assert np.array_equal(
        rookposet.poset._longest_paths(got), rookposet.poset._longest_paths(want)
    )
    assert check_graded(got).is_graded == check_graded(want).is_graded


@pytest.mark.parametrize("n,kind", [(n, "general") for n in range(1, 7)]
                         + [(n, "orthogonal") for n in range(1, 8)])
def test_hasse_matches_the_definition(n, kind):
    poset = build_poset(n, kind)
    assert list(poset.hasse) == matmul_covers(dominance_matrix(poset.elements))


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
    """Wrap root_arrays in every module that binds it; the list returned
    grows by one entry a call."""
    calls, real = [], rookposet.placements.root_arrays

    def counted(placements):
        calls.append(1)
        return real(placements)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("rookposet") and getattr(module, "root_arrays", None) is real:
            monkeypatch.setattr(module, "root_arrays", counted)
    return calls


@pytest.mark.parametrize("n,kind", [(n, "general") for n in (6, 7, 8)]
                         + [(n, "orthogonal") for n in (7, 8, 9)])
def test_a_build_and_its_graded_check_take_the_root_arrays_once(monkeypatch, n, kind):
    calls = _count_root_arrays(monkeypatch)
    poset = build_poset(n, kind)
    assert check_graded(poset).rank_formula_ok
    export_dot(poset, include_ranks=True)
    poset_to_json(poset)
    assert len(calls) == 1


def test_a_poset_built_by_hand_takes_its_root_arrays_once_on_first_need(monkeypatch):
    elements = enumerate_placements(5)
    leq = packed_dominance(elements)
    calls = _count_root_arrays(monkeypatch)
    poset = Poset(5, "general", elements, leq)
    assert not calls
    assert check_graded(poset).rank_formula_ok
    dumped = poset_to_json(poset)
    export_dot(poset, include_ranks=True)
    assert len(calls) == 1
    assert dumped == poset_to_json(build_poset(5))


def test_export_dot_of_no_element_with_ranks():
    empty = Poset(3, "general", (), _as_pair(np.zeros((0, 0), dtype=bool)))
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
    assert sorted(edges) == list(poset.hasse)
    for idx, label in nodes.items():
        assert parse_placement(label, n) == poset.elements[idx]
    # deterministic output
    assert export_dot(poset) == export_dot(poset)


def test_export_dot_rank_annotations():
    poset = build_poset(4, "orthogonal")
    text = export_dot(poset, include_ranks=True)
    nodes, edges = parse_dot(text)
    assert sorted(edges) == list(poset.hasse)
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
    assert [tuple(e) for e in blob["hasse"]] == list(poset.hasse)
    report = check_graded(poset)
    for element, rank in zip(blob["elements"], blob["ranks"]):
        placement = placement_from_json({"n": 4, "roots": element})
        assert rank == report.rank_of[placement]


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

"""Acceptance gate: end-to-end checks at their full stated ranges.

Each test prints one ``ACCEPTANCE k ...: PASS`` line (visible with
``pytest -s``); a failure raises with the discrepancy list instead.
"""

from __future__ import annotations

import time

import pytest

from rookposet import (
    Root,
    build_poset,
    involution_of,
    kerov_map,
    leq_placement,
    moves_general,
    moves_orthogonal,
    parse_placement,
)
from rookposet.order import rank_matrix
from rookposet.poset import export_dot
from rookposet.verify import (
    verify_bruhat,
    verify_counts,
    verify_covers_general,
    verify_covers_orthogonal,
    verify_graded_general,
    verify_graded_orthogonal,
    verify_kerov_covers,
    verify_kerov_order,
)
from test_poset import hasse_pairs, parse_dot

# Hasse edge counts frozen from the materialized-poset oracle.
DOT_FIXTURES = {("general", 4): (15, 24), ("orthogonal", 5): (26, 63)}


def _report(tag: str, checked: int, started: float) -> None:
    print(f"ACCEPTANCE {tag}: PASS ({checked} checked, {time.perf_counter() - started:.2f}s)")


def _run_suite(tag, fn, bound, expected_checked):
    started = time.perf_counter()
    res = fn(bound)
    assert res.ok, "\n".join([tag] + res.failures)
    assert res.checked == expected_checked
    _report(tag, res.checked, started)


def test_acceptance_01_general_covers_are_exact():
    # every placement of R(3..6); 5 + 15 + 52 + 203 placements
    _run_suite("1 general-covers", verify_covers_general, 6, 275)


def test_acceptance_02_orthogonal_covers_are_exact():
    # every placement of I(3..7); 4 + 10 + 26 + 76 + 232 placements
    _run_suite("2 orthogonal-covers", verify_covers_orthogonal, 7, 348)


def test_acceptance_03_doubling_map_is_an_order_embedding():
    # all pairs in R(3..5): 5^2 + 15^2 + 52^2
    _run_suite("3 kerov-order", verify_kerov_order, 5, 2954)


def test_acceptance_04_doubling_map_preserves_covers():
    _run_suite("4 kerov-covers", verify_kerov_covers, 5, 2954)


def test_acceptance_05_general_posets_are_graded():
    _run_suite("5 graded-general", verify_graded_general, 6, 277)


def test_acceptance_06_orthogonal_posets_are_graded():
    _run_suite("6 graded-orthogonal", verify_graded_orthogonal, 7, 350)


def test_acceptance_07_dominance_equals_bruhat_on_involutions():
    # all pairs in I(3..6): 4^2 + 10^2 + 26^2 + 76^2
    _run_suite("7 bruhat", verify_bruhat, 6, 6568)


def test_acceptance_08_enumeration_counts():
    # 1155 general + 351 orthogonal placements across n = 1..7
    _run_suite("8 counts", verify_counts, 7, 1155 + 351)


def test_acceptance_09_known_example_fixtures():
    started = time.perf_counter()
    checked = 0

    # counting matrices and the verdict between them
    d1, d2 = parse_placement("2,1;4,2", 4), parse_placement("3,1;4,2", 4)
    assert rank_matrix(d1).to_lists() == [[0, 0, 0, 0], [1, 0, 0, 0],
                                          [0, 1, 0, 0], [0, 1, 1, 0]]
    assert rank_matrix(d2).to_lists() == [[0, 0, 0, 0], [1, 0, 0, 0],
                                          [1, 2, 0, 0], [0, 1, 1, 0]]
    assert leq_placement(d1, d2) and not leq_placement(d2, d1)
    checked += 3

    # the four move families on one 8-board placement
    big = parse_placement("3,1;6,2;7,3;5,4;8,5", 8)
    by_kind = {}
    for m in moves_general(big):
        by_kind.setdefault(m.kind, []).append(m)
    (removal,) = by_kind["remove"]
    assert removal.source == (Root(5, 4),)
    assert removal.result.to_text() == "3,1;6,2;7,3;8,5"
    (right,) = by_kind["slide_right"]
    assert (right.source, right.target) == ((Root(8, 5),), (Root(8, 6),))
    assert right.result.to_text() == "3,1;5,4;6,2;7,3;8,6"
    (up,) = by_kind["slide_up"]
    assert (up.source, up.target) == ((Root(3, 1),), (Root(2, 1),))
    assert up.result.to_text() == "2,1;5,4;6,2;7,3;8,5"
    crosses = {m.source: m for m in by_kind["cross_general"]}
    assert crosses[(Root(5, 4), Root(6, 2))].result.to_text() == "3,1;5,2;6,4;7,3;8,5"
    checked += 4

    # general split on a 6-board placement
    d = parse_placement("4,1;6,2;5,4", 6)
    (split,) = [m for m in moves_general(d)
                if m.kind == "split_general" and m.source == (Root(6, 2),)]
    assert set(split.target) == {Root(3, 2), Root(6, 3)}
    assert split.result.to_text() == "3,2;4,1;5,4;6,3"
    checked += 1

    # orthogonal cross on an 8-board placement
    d = parse_placement("5,1;6,2;8,4", 8)
    (cross,) = [m for m in moves_orthogonal(d)
                if m.kind == "cross_orthogonal" and m.source == (Root(6, 2), Root(8, 4))]
    assert set(cross.target) == {Root(4, 2), Root(8, 6)}
    assert cross.result.to_text() == "4,2;5,1;8,6"
    checked += 1

    # orthogonal split on an 8-board placement
    d = parse_placement("4,1;8,2;7,6", 8)
    (split,) = [m for m in moves_orthogonal(d) if m.kind == "split_orthogonal"]
    assert split.source == (Root(8, 2),)
    assert split.result.to_text() == "3,2;4,1;7,6;8,5"
    checked += 1

    # doubling-map image and its involution
    image = kerov_map(parse_placement("3,1;6,2;7,3;5,4;8,6", 8))
    assert image.n == 14
    assert image.to_text() == "4,1;8,7;10,3;12,5;14,11"
    assert involution_of(image).images == (4, 2, 10, 1, 12, 6, 8, 7, 9, 3, 14, 5, 13, 11)
    checked += 2

    _report("9 fixtures", checked, started)


@pytest.mark.parametrize("kind,n", [("general", 4), ("orthogonal", 5)])
def test_acceptance_10_dot_export_regression(kind, n):
    started = time.perf_counter()
    poset = build_poset(n, kind)
    nodes, edges = parse_dot(export_dot(poset))
    want_nodes, want_edges = DOT_FIXTURES[(kind, n)]
    assert len(nodes) == want_nodes == len(poset)
    assert len(edges) == want_edges == len(poset.hasse)
    assert sorted(edges) == hasse_pairs(poset)
    _report(f"10 dot-{kind}-{n}", len(nodes) + len(edges), started)

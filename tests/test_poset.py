from __future__ import annotations

import json
import re
import tracemalloc
from typing import Iterator

import numpy as np
import pytest

import rookposet.poset as poset_module
from rookposet import (
    Poset,
    RookError,
    brute_force_covers,
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


@pytest.mark.parametrize("block_bytes", [1, 5 * 52])
def test_leq_does_not_depend_on_the_block_size(monkeypatch, block_bytes):
    # one row per block, and 5-row blocks with a short last one (m = 52)
    whole = build_poset(5).leq
    monkeypatch.setattr(poset_module, "_BLOCK_BYTES", block_bytes)
    assert (build_poset(5).leq == whole).all()


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
    assert (reach == poset.leq).all()


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
    minimal = np.flatnonzero(poset.leq.sum(axis=0) == 1).tolist()

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


def _fake_poset(relations, count):
    # handcrafted order over distinct real placements, used as labels only
    labels = enumerate_placements(4)[:count]
    leq = np.eye(count, dtype=bool)
    for a, b in relations:
        leq[a, b] = True
    return Poset(4, "general", labels, leq)


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


def test_check_graded_reports_missing_extremum():
    # two minimal elements: 0 and 1, both below 2
    relations = [(0, 2), (1, 2)]
    report = check_graded(_fake_poset(relations, 3))
    assert not report.is_graded
    assert "minimal" in report.witness
    assert report.witness_chains is None


def test_poset_rejects_non_orders():
    labels = enumerate_placements(4)[:2]
    with pytest.raises(RookError, match="not antisymmetric"):
        Poset(4, "general", labels, np.ones((2, 2), dtype=bool))
    with pytest.raises(RookError, match="not reflexive"):
        Poset(4, "general", labels, np.zeros((2, 2), dtype=bool))
    with pytest.raises(RookError, match="not antisymmetric"):
        Poset(4, "general", enumerate_placements(4)[:3], np.ones((3, 3), dtype=bool))


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
    assert list(poset.hasse) == matmul_covers(poset.leq)


@pytest.mark.parametrize("n,kind", [(n, "general") for n in range(1, 7)]
                         + [(n, "orthogonal") for n in range(1, 8)])
def test_hasse_matches_the_definition(n, kind):
    poset = build_poset(n, kind)
    assert list(poset.hasse) == matmul_covers(poset.leq)


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
    # m = 877, so leq takes 0.77 MB.  The bound lies between the peak of a
    # dense float32 f @ f reduction (10.0 MB) and of the blocked build
    # (2.1 MB).
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        poset = build_poset(7, "general")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(poset) == 877
    assert peak < 4_000_000


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

"""Materialized posets of placements: Hasse diagrams, gradedness, export.

build_poset computes the full order relation of R(n) or I(n) from the
counting matrices alone (order.dominance_matrix), so everything here
is independent of the move generators in covers.py and can serve as
an oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RookError
from .kerov import ranks_of
from .order import dominance_matrix
from .placements import DEFAULT_CAP, Kind, RookPlacement, enumerate_placements


class Poset:
    """A finite poset of placements with its Hasse diagram.

    `leq` is the full boolean order relation over `elements` and must be
    a partial order; it is the only m x m array kept.  It is a read-only
    view that shares memory with the argument when that already is a
    C-contiguous bool array.  `hasse` lists the cover edges as sorted
    (lower_index, upper_index) pairs.

    The covers are the transitive reduction of `leq` (Aho, Garey and
    Ullman, "The transitive reduction of a directed graph", SIAM J.
    Comput. 1, 1972): the upper covers of a are the minimal elements of
    its strict up-set.  They are found by scanning that up-set in a
    linear extension (down-set sizes, i.e. column counts of `leq`),
    taking the lowest element left as a cover and clearing the cover's
    up-set, until nothing is left.  Each chosen cover a < c is checked
    for c not <= a and up(c) a subset of up(a); with reflexivity these
    checks prove `leq` antisymmetric and transitive, so any relation
    that is not a partial order raises RookError.
    """

    def __init__(
        self,
        n: int,
        kind: Kind,
        elements: tuple[RookPlacement, ...],
        leq: np.ndarray,
    ) -> None:
        m = len(elements)
        leq = np.ascontiguousarray(np.asarray(leq, dtype=bool))
        if leq.shape != (m, m):
            raise RookError(f"leq must be {m}x{m}, got {leq.shape}")
        if not leq.diagonal().all():
            raise RookError("order relation is not reflexive")
        order = np.argsort(leq.sum(axis=0), kind="stable")
        edges: list[tuple[int, int]] = []
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
            covers.sort()
            edges += [(a, c) for c in covers]
        self.n = n
        self.kind: Kind = kind
        self.elements = tuple(elements)
        self.leq = leq.view()
        self.leq.setflags(write=False)
        self.hasse: tuple[tuple[int, int], ...] = tuple(edges)
        self._lower: list[list[int]] = [[] for _ in range(m)]
        for a, c in edges:
            self._lower[c].append(a)
        self._index = {e: k for k, e in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, placement: RookPlacement) -> int:
        try:
            return self._index[placement]
        except KeyError:
            raise RookError(
                f"placement {placement.to_text()!r} (n={placement.n}) is not "
                f"an element of this poset"
            ) from None

    def leq_elements(self, a: RookPlacement, b: RookPlacement) -> bool:
        return bool(self.leq[self.index_of(a), self.index_of(b)])


def build_poset(n: int, kind: Kind = "general", cap: int = DEFAULT_CAP) -> Poset:
    """Enumerate all placements of the given kind and materialize their
    dominance order."""
    elements = enumerate_placements(n, kind, cap=cap)
    return Poset(n, kind, elements, dominance_matrix(elements))


def brute_force_covers(poset: Poset, placement: RookPlacement) -> set[RookPlacement]:
    """Lower covers of an element, read off the materialized relation only."""
    idx = poset.index_of(placement)
    return {poset.elements[t] for t in poset._lower[idx]}


@dataclass
class GradedReport:
    """Outcome of check_graded.

    When the poset is graded, rank_of maps every element to its Hasse
    distance from the minimum and rank_formula_ok records whether that
    distance agrees with the closed-form rank everywhere.  On failure,
    witness describes the problem and witness_chains, when applicable,
    holds two maximal chains of different lengths.
    """

    is_graded: bool
    min_element: RookPlacement | None
    max_element: RookPlacement | None
    rank_of: dict[RookPlacement, int]
    max_chain_length: int | None
    witness: str | None
    witness_chains: (
        tuple[tuple[RookPlacement, ...], tuple[RookPlacement, ...]] | None
    )
    rank_formula_ok: bool | None


def check_graded(poset: Poset) -> GradedReport:
    """Decide gradedness: unique extrema and no Hasse cover a < x that
    skips a level, i.e. the longest Hasse path from the minimum to x is
    one longer than the one to a (it then is the rank of x).  These
    longest paths come from one sweep over a linear extension.  On
    success the ranks are cross-checked against the closed formulas; on
    failure a witness is produced.
    """
    m = len(poset)
    # An element is minimal when it is the only one below it, maximal when
    # it is the only one above it.
    down = poset.leq.sum(axis=0)
    minimal = np.flatnonzero(down == 1).tolist()
    maximal = np.flatnonzero(poset.leq.sum(axis=1) == 1).tolist()
    if len(minimal) != 1 or len(maximal) != 1:
        which = "minimal" if len(minimal) != 1 else "maximal"
        offenders = minimal if len(minimal) != 1 else maximal
        return GradedReport(
            is_graded=False,
            min_element=poset.elements[minimal[0]] if len(minimal) == 1 else None,
            max_element=poset.elements[maximal[0]] if len(maximal) == 1 else None,
            rank_of={},
            max_chain_length=None,
            witness=(
                f"expected exactly one {which} element, found "
                f"{[poset.elements[i].to_text() for i in offenders]}"
            ),
            witness_chains=None,
            rank_formula_ok=None,
        )
    bottom, top = minimal[0], maximal[0]

    # Down-set sizes grow strictly along the order, so sorting by them
    # visits every lower cover of x before x.
    order = np.argsort(down, kind="stable").tolist()
    longest = [0] * m
    parent = [-1] * m
    for x in order:
        for a in poset._lower[x]:
            if longest[a] + 1 > longest[x]:
                longest[x], parent[x] = longest[a] + 1, a
    skip = next(
        ((a, x) for x in order for a in poset._lower[x] if longest[a] + 1 < longest[x]),
        None,
    )
    if skip is not None:
        a, x = skip
        # Extend both chains to the top the same way: the element of
        # least down-set size strictly above y covers y.
        tail: list[int] = []
        y = x
        while y != top:
            above = np.flatnonzero(poset.leq[y])
            above = above[above != y]
            y = int(above[down[above].argmin()])
            tail.append(y)

        def _chain(path: list[int]) -> tuple[RookPlacement, ...]:
            while parent[path[0]] != -1:
                path.insert(0, parent[path[0]])
            return tuple(poset.elements[i] for i in path + tail)

        chain_long, chain_short = _chain([x]), _chain([a, x])
        return GradedReport(
            is_graded=False,
            min_element=poset.elements[bottom],
            max_element=poset.elements[top],
            rank_of={},
            max_chain_length=None,
            witness=(
                f"maximal chains of lengths {len(chain_long) - 1} and "
                f"{len(chain_short) - 1} both end at "
                f"{poset.elements[top].to_text()!r}"
            ),
            witness_chains=(chain_long, chain_short),
            rank_formula_ok=None,
        )

    return GradedReport(
        is_graded=True,
        min_element=poset.elements[bottom],
        max_element=poset.elements[top],
        rank_of=dict(zip(poset.elements, longest)),
        max_chain_length=longest[top],
        witness=None,
        witness_chains=None,
        rank_formula_ok=ranks_of(poset.elements, poset.kind) == longest,
    )


def export_dot(poset: Poset, include_ranks: bool = False) -> str:
    """Render the Hasse diagram as a DOT digraph, edges oriented upward.

    Node labels are the placement strings.  With include_ranks, each
    node also carries a rank attribute and same-rank elements are tied
    into one layer.
    """
    lines = [f'digraph "{poset.kind}_{poset.n}" {{', "  rankdir=BT;"]
    ranks = ranks_of(poset.elements, poset.kind) if include_ranks else None
    for i, e in enumerate(poset.elements):
        if ranks is None:
            lines.append(f'  {i} [label="{e.to_text()}"];')
        else:
            lines.append(f'  {i} [label="{e.to_text()}", rank={ranks[i]}];')
    if ranks is not None:
        for level in range(max(ranks) + 1):
            same = [str(i) for i, r in enumerate(ranks) if r == level]
            if same:
                lines.append("  { rank=same; " + "; ".join(same) + "; }")
    for a, b in poset.hasse:
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(poset: Poset) -> dict:
    """JSON-ready dump: elements in canonical order, Hasse edges by index,
    and the closed-form rank of every element."""
    return {
        "n": poset.n,
        "kind": poset.kind,
        "elements": [[[r.row, r.col] for r in e.roots] for e in poset.elements],
        "hasse": [list(edge) for edge in poset.hasse],
        "ranks": ranks_of(poset.elements, poset.kind),
    }

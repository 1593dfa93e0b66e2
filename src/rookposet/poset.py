"""Materialized posets of placements: Hasse diagrams, gradedness, export.

build_poset computes the full order relation of R(n) or I(n) from the
counting matrices alone (order.dominance_matrix), so everything here
is independent of the move generators in covers.py and can serve as
an oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import order as order_module
from .errors import RookError
from .kerov import ranks_of
from .order import dominance_matrix
from .placements import DEFAULT_CAP, Kind, RookPlacement, enumerate_placements


# Lowest set bit of each byte value, for bit order "little" (0 for 0,
# which the scan never looks up).
_LOW_BIT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).argmax(axis=1)


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
    its strict up-set.  They are found in a linear extension, the order
    of the down-set sizes (column counts of `leq`).  A transient copy of
    `leq`, with its columns put in that order and packed eight to a byte
    (about m^2/8 bytes, in an anonymous mapping like the relation of
    order.dominance_matrix), is scanned a block of rows at a time.  In each
    step every row of the block that is not yet empty takes its lowest
    set bit as a cover and clears that cover's packed up-set from
    itself, so a block takes as many steps as its most upper covers.
    Each chosen cover a < c is checked for c not <= a and up(c) a subset
    of up(a); with reflexivity these checks prove `leq` antisymmetric and
    transitive, so any relation that is not a partial order raises
    RookError, naming the first offending a in index order.
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
        down = leq.sum(axis=0, dtype=np.int32)
        lower, upper = _cover_scan(leq, np.argsort(down, kind="stable"))
        self.n = n
        self.kind: Kind = kind
        self.elements = tuple(elements)
        self.leq = leq.view()
        self.leq.setflags(write=False)
        self.hasse: tuple[tuple[int, int], ...] = tuple(
            zip(lower.tolist(), upper.tolist())
        )
        # Down-set sizes, and the lower covers of x as the slice
        # _below[_below_at[x]:_below_at[x + 1]], in index order.
        self._down = down
        self._down.setflags(write=False)
        by_upper = np.argsort(upper, kind="stable")
        self._below = lower[by_upper]
        self._below_at = np.searchsorted(upper[by_upper], np.arange(m + 1))
        self._index = dict(zip(self.elements, range(m)))

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


def _packed_rows(leq: np.ndarray, extension: np.ndarray) -> np.ndarray:
    """`leq` with its columns in the order `extension`, packed eight to a
    byte (bit order "little") and padded to whole 64-bit words, filled a
    block of rows at a time."""
    m = len(leq)
    packed = order_module._mapped(m, 8 * -(-m // 64), np.uint8)
    rows = max(1, order_module._BLOCK_BYTES // max(m, 1))
    block = np.empty((min(rows, m), m), dtype=bool)
    for a0 in range(0, m, rows):
        part = block[: min(rows, m - a0)]
        np.take(leq[a0 : a0 + rows], extension, axis=1, out=part, mode="clip")
        packed[a0 : a0 + rows, : -(-m // 8)] = np.packbits(
            part, axis=1, bitorder="little"
        )
    return packed


def _cover_scan(
    leq: np.ndarray, extension: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cover edges of `leq` as sorted (lower, upper) index arrays, by
    the packed block scan of the Poset docstring in the linear extension
    `extension`.  Raises RookError if `leq` is not antisymmetric or not
    transitive."""
    m = len(leq)
    packed = _packed_rows(leq, extension)
    width = packed.shape[1]
    pos = np.empty(m, dtype=np.intp)
    pos[extension] = np.arange(m)
    steps: list[tuple[np.ndarray, ...]] = []
    # left, outside, up and escape share the byte budget of one block
    rows = max(1, order_module._BLOCK_BYTES // max(4 * width, 1))
    up = np.empty((min(rows, m), width), dtype=np.uint8)
    escape = np.empty_like(up)
    for a0 in range(0, m, rows):
        ids = np.arange(a0, min(a0 + rows, m))
        outside = ~packed[a0 : a0 + rows]
        # the strict up-sets still to scan: clear each row's own bit
        left = packed[a0 : a0 + rows].copy()
        bit = np.left_shift(1, pos[ids] & 7).astype(np.uint8)
        left[ids - a0, pos[ids] >> 3] ^= bit
        first = len(steps)
        while True:
            live = left.view(np.uint64).any(axis=1)
            if not live.all():
                ids, left, outside = ids[live], left[live], outside[live]
            k = len(ids)
            if not k:
                break
            # lowest set bit: first nonzero word, byte in it, bit in that
            word = (left.view(np.uint64) != 0).argmax(axis=1)
            eight = left.reshape(k, -1, 8)[np.arange(k), word]
            byte = (eight != 0).argmax(axis=1)
            low = _LOW_BIT[eight[np.arange(k), byte]]
            covers = extension[64 * word + 8 * byte + low]
            np.take(packed, covers, axis=0, out=up[:k], mode="clip")
            np.bitwise_and(up[:k], outside, out=escape[:k])
            back = leq[covers, ids]
            escaped = escape[:k].view(np.uint64).any(axis=1)
            steps.append((ids, covers, back, escaped))
            np.invert(up[:k], out=up[:k])
            np.bitwise_and(left, up[:k], out=left)
        _raise_first_offence(leq, steps[first:])
    lower = np.concatenate([s[0] for s in steps] or [np.empty(0, dtype=np.intp)])
    upper = np.concatenate([s[1] for s in steps] or [np.empty(0, dtype=np.intp)])
    edges = np.lexsort((upper, lower))
    return lower[edges], upper[edges]


def _raise_first_offence(
    leq: np.ndarray, steps: list[tuple[np.ndarray, ...]]
) -> None:
    """Given the steps of one block as (rows, covers, c <= a, up(c) not in
    up(a)) arrays, raise the RookError of its smallest offending row a:
    for its first cover c <= a if there is one, else for its first cover
    c with some x >= c but not x >= a, the smallest such x."""
    if not any(back.any() or escaped.any() for _, _, back, escaped in steps):
        return
    ids, covers, back, escaped = (np.concatenate(s) for s in zip(*steps))
    a = int(ids[back | escaped].min())
    mine = ids == a
    if back[mine].any():
        c = int(covers[mine][back[mine].argmax()])
        raise RookError(
            f"order relation is not antisymmetric: elements {a} and "
            f"{c} are each <= the other"
        )
    c = int(covers[mine][escaped[mine].argmax()])
    x = int((leq[c] > leq[a]).argmax())
    raise RookError(
        f"order relation is not transitive: elements {a} <= "
        f"{c} <= {x} but not {a} <= {x}"
    )


def build_poset(n: int, kind: Kind = "general", cap: int = DEFAULT_CAP) -> Poset:
    """Enumerate all placements of the given kind and materialize their
    dominance order."""
    elements = enumerate_placements(n, kind, cap=cap)
    return Poset(n, kind, elements, dominance_matrix(elements))


def brute_force_covers(poset: Poset, placement: RookPlacement) -> set[RookPlacement]:
    """Lower covers of an element, read off the materialized relation only."""
    idx = poset.index_of(placement)
    at = poset._below_at
    return {poset.elements[t] for t in poset._below[at[idx] : at[idx + 1]].tolist()}


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
    # Poset has proved leq a partial order, so an element is minimal when
    # it has no lower cover and maximal when it has no upper cover.
    below, at = poset._below, poset._below_at
    minimal = np.flatnonzero(at[1:] == at[:-1]).tolist()
    covered = np.zeros(m, dtype=bool)
    covered[below] = True
    maximal = np.flatnonzero(~covered).tolist()
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
    down = poset._down
    order = np.argsort(down, kind="stable").tolist()
    below, at = below.tolist(), at.tolist()
    longest = [0] * m
    parent = [-1] * m
    for x in order:
        for a in below[at[x] : at[x + 1]]:
            if longest[a] + 1 > longest[x]:
                longest[x], parent[x] = longest[a] + 1, a
    skip = next(
        (
            (a, x)
            for x in order
            for a in below[at[x] : at[x + 1]]
            if longest[a] + 1 < longest[x]
        ),
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
        for level in range(max(ranks, default=-1) + 1):
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

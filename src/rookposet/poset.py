"""Materialized posets of placements: Hasse diagrams, gradedness, export.

build_poset computes the full order relation of R(n) or I(n) from the
counting matrices alone (order.packed_dominance), so everything here
is independent of the move generators in covers.py and can serve as
an oracle for them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import order as order_module
from .errors import AmbientError, RookError
from .kerov import ranks_of
from .order import pack_rows, packed_dominance, unpack_rows
from .placements import DEFAULT_CAP, Kind, RookPlacement, _as_tuple, _board, _kind, _placement
from .placements import enumerate_placements


class Poset:
    """A finite poset of placements with its Hasse diagram.

    `leq` is the order relation over `elements`, a partial order, given
    as an m x m bool array or as the (bits, columns) pair of
    order.packed_dominance: int columns, a permutation of range(m) in a
    linear extension, and uint64 bits of shape (m, ceil(m / 64)), row p
    the up-set of element columns[p], bit q for columns[q] (RookError
    otherwise).  A bool array is packed once into such a pair, in
    down-set-size order, and not kept: the pair is the only form of the
    relation held.  `hasse` lists the cover edges as sorted (lower_index,
    upper_index) pairs.  The elements must be distinct placements on the
    board of size n (RookError, AmbientError).

    The covers are the transitive reduction (Aho, Garey and Ullman, "The
    transitive reduction of a directed graph", SIAM J. Comput. 1, 1972):
    the upper covers of a are the minimal elements of its strict up-set,
    and in a linear extension the first element left of it is one.  The
    packed rows are scanned a block at a time; in each step every row
    not yet empty takes its lowest set bit as a cover c and clears c's
    row from itself, so a block takes as many steps as its most upper
    covers.  Each cover a < c is checked for c not <= a and up(c) a
    subset of up(a); with reflexivity these checks prove `leq`
    antisymmetric and transitive, so a relation that is not a partial
    order raises RookError, naming the first offending a in index order.
    Once no row is seen to have a bit before its own, as in an order, a
    block is scanned from its first row's word on, and c <= a cannot hold.
    """

    def __init__(
        self,
        n: int,
        kind: Kind,
        elements: tuple[RookPlacement, ...],
        leq: np.ndarray | tuple[np.ndarray, np.ndarray],
    ) -> None:
        self.n, self.kind = _board(n), _kind(kind)
        self.elements = elements = _as_tuple(elements, "elements")
        for e in elements:
            if _placement(e).n != n:
                raise AmbientError(f"placement {e.to_text()!r} is on board {e.n}, not {n}")
        m = len(elements)
        if isinstance(leq, tuple):
            if len(leq) != 2:
                raise RookError(f"packed leq must be a (bits, columns) pair, not {len(leq)}")
            bits, columns = map(np.asarray, leq)
        else:
            leq = np.asarray(leq, dtype=bool)
            if leq.shape != (m, m):
                raise RookError(f"leq must be {m}x{m}, got {leq.shape}")
            columns = np.argsort(leq.sum(axis=0), kind="stable")
            bits = pack_rows(leq[np.ix_(columns, columns)])
        if bits.dtype != np.uint64 or bits.shape != (m, -(-m // 64)):
            raise RookError(f"packed leq must cover {m} elements in uint64 words")
        if columns.dtype.kind not in "iu" or not np.array_equal(np.sort(columns), np.arange(m)):
            raise RookError(f"packed leq columns must be ints, a permutation of range({m})")
        pos = np.argsort(columns)  # row and bit pos[x] stand for element x
        lower, upper = _cover_scan(bits, columns)
        self._bits, self._columns, self._pos = bits, columns, pos
        self.hasse: tuple[tuple[int, int], ...] = tuple(zip(lower.tolist(), upper.tolist()))
        # lower covers of x: _below[_below_at[x] : _below_at[x + 1]], by index
        by_upper = np.argsort(upper, kind="stable")
        self._below = lower[by_upper]
        self._below_at = np.searchsorted(upper[by_upper], np.arange(m + 1))
        self._index = dict(zip(self.elements, range(m)))
        if len(self._index) < m:  # a repeat that leq orders both ways failed the scan
            twice = next(e for i, e in enumerate(self.elements) if self._index[e] != i)
            raise RookError(f"placement {twice.to_text()!r} is listed twice")

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, placement: RookPlacement) -> int:
        try:
            return self._index[_placement(placement)]
        except KeyError:
            raise RookError(
                f"placement {placement.to_text()!r} (n={placement.n}) is not "
                f"an element of this poset"
            ) from None

    def leq_elements(self, a: RookPlacement, b: RookPlacement) -> bool:
        p, q = (int(self._pos[self.index_of(x)]) for x in (a, b))
        # a row has no bit before its own position
        return q >= p and bool(int(self._bits[p, q >> 6]) >> (q & 63) & 1)


def _poset(p: object) -> Poset:
    if not isinstance(p, Poset):
        raise RookError(f"{p!r} is not a Poset")
    return p


def _cover_scan(bits: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cover edges as sorted (lower, upper) index arrays, by the block
    scan of the Poset docstring; RookError if the relation is no order."""
    m, width = bits.shape
    p = np.arange(m)
    own = np.left_shift(np.uint64(1), (p & 63).astype(np.uint64))
    if not (bits[p, p >> 6] & own).all():
        raise RookError("order relation is not reflexive")
    # if some row has a bit before its own (a non-order, or a repeated
    # element), every block is scanned from word 0, with the check c <= a
    triangular = not (bits[p, p >> 6] & (own - np.uint64(1))).any() and not any(
        bits[r : r + 64, : r >> 6].any() for r in range(64, m, 64)
    )
    steps, offences = [(np.empty(0, dtype=np.intp),) * 2], []
    p0 = 0
    while p0 < m:
        w0 = p0 >> 6 if triangular else 0
        # left, outside, up and escape share the byte budget of one block
        rows = max(1, order_module._BLOCK_BYTES // (32 * (width - w0)))
        ids = p[p0 : p0 + rows]
        outside = ~bits[p0 : p0 + rows, w0:]
        # the strict up-sets still to scan: clear each row's own bit
        left = bits[p0 : p0 + rows, w0:].copy()
        left[ids - p0, (ids >> 6) - w0] ^= own[ids]
        p0 += rows
        while True:
            # lowest set bit: first nonzero word, then frexp of its lowest bit
            nonzero = left != 0
            word = nonzero.argmax(axis=1)
            live = nonzero[np.arange(len(ids)), word]
            if not live.all():
                keep = np.flatnonzero(live)
                ids, word, left, outside = (x.take(keep, 0) for x in (ids, word, left, outside))
            if not len(ids):
                break
            w = left[np.arange(len(ids)), word]
            low = np.frexp((w & (~w + 1)).astype(np.float64))[1] - 1
            covers = 64 * (w0 + word) + low
            steps.append((ids, covers))
            up = bits[covers, w0:]
            escape = up & outside
            back = np.zeros(len(ids), dtype=bool)
            if not triangular:
                back = (bits[covers, ids >> 6] & own[ids]) != 0
            if back.any() or escape.max():
                offences.append((ids, covers, back, escape.any(axis=1)))
            np.invert(up, out=up)
            left &= up
    if offences:
        _raise_first_offence(bits, columns, offences)
    ids, covers = map(np.concatenate, zip(*steps))
    if (ids > covers).any():
        raise RookError("columns are not a linear extension of the order relation")
    # sorted by lower, then upper index, through one key
    index = columns.astype(np.intp)
    return np.divmod(np.sort(index[ids] * m + index[covers]), m)


def _raise_first_offence(
    bits: np.ndarray, columns: np.ndarray, offences: list[tuple[np.ndarray, ...]]
) -> None:
    """Given the scan's steps that hold an offence, in the order taken, as
    (rows, covers, c <= a, up(c) not in up(a)) arrays, rows and covers by
    position, raise the RookError of the offending row a of least index:
    for its first cover c <= a if there is one, else for its first cover
    c with some x >= c but not x >= a, the smallest such x."""
    ids, covers, back, escaped = map(np.concatenate, zip(*offences))
    a = int(columns[ids[back | escaped]].min())
    mine = columns[ids] == a
    if back[mine].any():
        c = int(columns[covers[mine][back[mine].argmax()]])
        raise RookError(
            f"order relation is not antisymmetric: elements {a} and "
            f"{c} are each <= the other"
        )
    pa, pc = ids[mine][0], covers[mine][escaped[mine].argmax()]
    x = int(columns[np.flatnonzero(unpack_rows(bits[pc] & ~bits[pa], len(columns)))].min())
    raise RookError(
        f"order relation is not transitive: elements {a} <= "
        f"{columns[pc]} <= {x} but not {a} <= {x}"
    )


def build_poset(n: int, kind: Kind = "general", cap: int = DEFAULT_CAP) -> Poset:
    """Enumerate all placements of the given kind and materialize their
    dominance order."""
    elements = enumerate_placements(n, kind, cap=cap)
    return Poset(n, kind, elements, packed_dominance(elements))


def brute_force_covers(poset: Poset, placement: RookPlacement) -> set[RookPlacement]:
    """Lower covers of an element, read off the materialized relation only."""
    idx = _poset(poset).index_of(placement)
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
    min_element: RookPlacement | None = None
    max_element: RookPlacement | None = None
    rank_of: dict[RookPlacement, int] = field(default_factory=dict)
    max_chain_length: int | None = None
    witness: str | None = None
    witness_chains: (
        tuple[tuple[RookPlacement, ...], tuple[RookPlacement, ...]] | None
    ) = None
    rank_formula_ok: bool | None = None


def check_graded(poset: Poset) -> GradedReport:
    """Decide gradedness: unique extrema and no Hasse cover a < x that
    skips a level, i.e. the longest Hasse path from the minimum to x is
    one longer than the one to a (it then is the rank of x).  These
    longest paths come from numpy rounds over the lower covers: each
    round sets every element but the minimum to one more than the most
    of its lower covers, and after the round that changes nothing, one
    round per level, they hold.  The skip test is then one compare over
    all covers.  On success the ranks are cross-checked against the
    closed formulas; on failure a witness is produced.
    """
    m = len(_poset(poset))
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
            witness=(
                f"expected exactly one {which} element, found "
                f"{[poset.elements[i].to_text() for i in offenders]}"
            ),
        )
    bottom, top = minimal[0], maximal[0]

    longest = np.zeros(m, dtype=np.intp)
    above = at[:-1] != at[1:]  # every element but the minimum
    starts = at[:-1][above]
    if len(below):  # reduceat needs a cover
        while True:
            step = np.maximum.reduceat(longest[below], starts) + 1
            if np.array_equal(step, longest[above]):
                break
            longest[above] = step
    upper = np.repeat(np.arange(m), np.diff(at))  # the upper end of each cover in below
    skips = np.flatnonzero(longest[below] + 1 < longest[upper])
    if len(skips):
        # the skip a sweep along the linear extension meets first: least
        # column position of x, then first in below order of a
        k = skips[np.argmin(poset._pos[upper[skips]])]
        a, x = int(below[k]), int(upper[k])
        # Both chains go on from x to the top the same way, through the
        # first upper cover of each element: hasse is sorted by lower index.
        tail = [x]
        while tail[-1] != top:
            tail.append(poset.hasse[bisect_left(poset.hasse, (tail[-1],))][1])

        def parent(y: int) -> int:
            # the first lower cover of y on a longest path to y
            lower = below[at[y] : at[y + 1]]
            return int(lower[(longest[lower] + 1 == longest[y]).argmax()])

        def _chain(path: list[int]) -> tuple[RookPlacement, ...]:
            while path[0] != bottom:
                path.insert(0, parent(path[0]))
            return tuple(poset.elements[i] for i in path + tail)

        chain_long, chain_short = _chain([parent(x)]), _chain([a])
        return GradedReport(
            is_graded=False,
            min_element=poset.elements[bottom],
            max_element=poset.elements[top],
            witness=(
                f"maximal chains of lengths {len(chain_long) - 1} and "
                f"{len(chain_short) - 1} both end at "
                f"{poset.elements[top].to_text()!r}"
            ),
            witness_chains=(chain_long, chain_short),
        )

    longest = longest.tolist()
    return GradedReport(
        is_graded=True,
        min_element=poset.elements[bottom],
        max_element=poset.elements[top],
        rank_of=dict(zip(poset.elements, longest)),
        max_chain_length=longest[top],
        rank_formula_ok=ranks_of(poset.elements, poset.kind) == longest,
    )


def export_dot(poset: Poset, include_ranks: bool = False) -> str:
    """Render the Hasse diagram as a DOT digraph, edges oriented upward.

    Node labels are the placement strings.  With include_ranks, each
    node also carries a rank attribute and same-rank elements are tied
    into one layer.
    """
    lines = [f'digraph "{_poset(poset).kind}_{poset.n}" {{', "  rankdir=BT;"]
    ranks = ranks_of(poset.elements, poset.kind) if include_ranks else None
    same: dict[int, list[str]] = {}
    for i, e in enumerate(poset.elements):
        if ranks is None:
            lines.append(f'  {i} [label="{e.to_text()}"];')
        else:
            lines.append(f'  {i} [label="{e.to_text()}", rank={ranks[i]}];')
            same.setdefault(ranks[i], []).append(str(i))
    for level in sorted(same):
        lines.append("  { rank=same; " + "; ".join(same[level]) + "; }")
    for a, b in poset.hasse:
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(poset: Poset) -> dict:
    """JSON-ready dump: elements in canonical order, Hasse edges by index,
    and the closed-form rank of every element."""
    return {
        "n": _poset(poset).n,
        "kind": poset.kind,
        "elements": [e.to_json()["roots"] for e in poset.elements],
        "hasse": [list(edge) for edge in poset.hasse],
        "ranks": ranks_of(poset.elements, poset.kind),
    }

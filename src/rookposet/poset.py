"""Materialized posets of placements: Hasse diagrams, gradedness, export.

A Poset computes the dominance order of its elements, R(n) or I(n) in
build_poset, from their counting matrices alone (order.packed_dominance),
so everything here is independent of the move generators in covers.py
and can serve as an oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import order as order_module
from .errors import AmbientError, RookError
from .kerov import _ranks
from .order import _counting_entries, _packed_dominance
from .placements import DEFAULT_CAP, Kind, RookPlacement, _as_tuple, _board, _check_orthogonal
from .placements import _kind, _placement, enumerate_placements, root_arrays


class Poset:
    """A finite poset of placements with its Hasse diagram: the dominance
    order of `elements`, which must be distinct placements on the board of
    size n (RookError, AmbientError otherwise), orthogonal ones for kind
    "orthogonal" (OrthogonalityError).

    The relation is built from the elements alone: their root arrays
    (placements.root_arrays), kept for the closed-form ranks, give their
    counting entries, and order._packed_dominance packs those in a linear
    extension, a (bits, columns) pair.  Row p of bits is the up-set of
    element columns[p], bit q for columns[q]; distinct placements have
    distinct counting matrices, so no row has a bit before its own.
    Every Poset, build_poset's too, flattens its elements once, here.
    `hasse` holds the covers as a read-only (E, 2) integer array of sorted
    (lower_index, upper_index) rows; `.tolist()` gives the pairs.

    The covers are the transitive reduction (Aho, Garey and Ullman, "The
    transitive reduction of a directed graph", SIAM J. Comput. 1, 1972):
    the upper covers of a are the minimal elements of its strict up-set,
    and in a linear extension the first element left of it is one.  The
    packed rows are scanned a block at a time, each block from its first
    row's word on; in each step every row not yet empty takes its lowest
    set bit as a cover c and clears c's row from itself, so a block takes
    as many steps as its most upper covers.
    """

    def __init__(self, n: int, kind: Kind, elements: tuple[RookPlacement, ...]) -> None:
        self.n, self.kind = _board(n), _kind(kind)
        self.elements = elements = _as_tuple(elements, "elements")
        # the types and the boards as two sets; only if one fails, the
        # loop that raises for the first offender
        if not (
            set(map(type, elements)) <= {RookPlacement}
            and set(map(attrgetter("n"), elements)) <= {n}
        ):
            for e in elements:
                if _placement(e).n != n:
                    raise AmbientError(f"placement {e.to_text()!r} is on board {e.n}, not {n}")
        m = len(elements)
        self._index = dict(zip(elements, range(m)))
        # a repeat would give a row a bit before its own, and the scan wrong covers
        if len(self._index) < m:
            twice = next(e for i, e in enumerate(elements) if self._index[e] != i)
            raise RookError(f"placement {twice.to_text()!r} is listed twice")
        self._roots = root_arrays(elements)
        if kind == "orthogonal":
            _check_orthogonal(elements, *self._roots)
        bits, columns = _packed_dominance(_counting_entries(n, *self._roots))
        pos = np.argsort(columns)  # row and bit pos[x] stand for element x
        lower, upper = _cover_scan(bits, columns)
        self._bits, self._pos = bits, pos
        self.hasse = np.stack((lower, upper), axis=1)
        self.hasse.flags.writeable = False  # check_graded reads views of it
        # covers of x by index, upper ones hasse[_above_at[x] : _above_at[x + 1], 1]
        # (hasse is sorted by lower index), lower ones likewise in _below
        self._above_at = _starts(lower, m)
        self._below = np.sort(upper * m + lower) % max(m, 1)  # no % 0 when m = 0
        self._below_at = _starts(upper, m)

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


def _starts(keys: np.ndarray, m: int) -> np.ndarray:
    """The offsets at[x] : at[x + 1] of the run of each x in range(m) in
    the sorted `keys`, ints in range(m)."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=m))))


def _poset(p: object) -> Poset:
    if not isinstance(p, Poset):
        raise RookError(f"{p!r} is not a Poset")
    return p


def _cover_scan(bits: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cover edges as sorted (lower, upper) index arrays of the partial
    order packed as (bits, columns) (order.packed_dominance: no row has a
    bit before its own), by the block scan of the Poset docstring."""
    m, width = bits.shape
    p = np.arange(m)
    own = np.left_shift(np.uint64(1), (p & 63).astype(np.uint64))
    steps = [(np.empty(0, dtype=np.intp),) * 2]
    p0 = 0
    while p0 < m:
        w0 = p0 >> 6
        # left and up share the byte budget of one block
        rows = max(1, order_module._BLOCK_BYTES // (16 * (width - w0)))
        ids = p[p0 : p0 + rows]
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
                ids, word, left = (x.take(keep, 0) for x in (ids, word, left))
            if not len(ids):
                break
            w = left[np.arange(len(ids)), word]
            low = np.frexp((w & (~w + 1)).astype(np.float64))[1] - 1
            covers = 64 * (w0 + word) + low
            steps.append((ids, covers))
            up = bits[covers, w0:]
            np.invert(up, out=up)
            left &= up
    ids, covers = map(np.concatenate, zip(*steps))
    # sorted by lower, then upper index, through one key
    index = columns.astype(np.intp)
    return np.divmod(np.sort(index[ids] * m + index[covers]), m)


def build_poset(n: int, kind: Kind = "general", cap: int = DEFAULT_CAP) -> Poset:
    """Enumerate all placements of the given kind and materialize their
    dominance order."""
    return Poset(n, kind, enumerate_placements(n, kind, cap))


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


def _longest_paths(poset: Poset) -> np.ndarray:
    """The length of the longest Hasse path from a minimal element to each
    element, by the levels of Kahn's topological sort (CACM 5(11), 1962):
    an element joins the frontier once its last lower cover has left it,
    one level above that cover, so each cover is read once."""
    m, above, at = len(poset), poset.hasse[:, 1], poset._above_at
    waiting = np.diff(poset._below_at)  # lower covers yet to leave the frontier
    longest = np.zeros(m, dtype=np.intp)
    frontier = np.flatnonzero(waiting == 0)
    level = 0
    while len(frontier):
        longest[frontier] = level
        # the upper covers of the frontier: one gather of their runs in above
        starts = at[frontier]
        runs = at[frontier + 1] - starts
        ends = np.cumsum(runs)
        ups = above[np.repeat(starts - ends + runs, runs) + np.arange(ends[-1])]
        left = np.bincount(ups, minlength=m)
        waiting -= left
        frontier = np.flatnonzero((waiting == 0) & (left != 0))
        level += 1
    return longest


def check_graded(poset: Poset) -> GradedReport:
    """Decide gradedness: unique extrema and no Hasse cover a < x that
    skips a level, i.e. the longest Hasse path from the minimum to x is
    one longer than the one to a (it then is the rank of x).  These
    longest paths come from Kahn's levels over the upper covers
    (_longest_paths), and the skip test is then one compare over all
    covers.  On success the ranks are cross-checked against the closed
    formulas (kerov._ranks, over the root arrays the poset holds); on
    failure a witness is produced.
    """
    m = len(_poset(poset))
    below, at = poset._below, poset._below_at
    minimal = np.flatnonzero(at[1:] == at[:-1]).tolist()
    maximal = np.flatnonzero(poset._above_at[1:] == poset._above_at[:-1]).tolist()
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

    longest = _longest_paths(poset)
    upper = np.repeat(np.arange(m), np.diff(at))  # the upper end of each cover in below
    skips = np.flatnonzero(longest[below] + 1 < longest[upper])
    if len(skips):
        # the skip a sweep along the linear extension meets first: least
        # column position of x, then first in below order of a
        k = skips[np.argmin(poset._pos[upper[skips]])]
        a, x = int(below[k]), int(upper[k])
        # Both chains go on from x to the top the same way, through the
        # first upper cover of each element.
        tail = [x]
        while tail[-1] != top:
            tail.append(int(poset.hasse[poset._above_at[tail[-1]], 1]))

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
        rank_formula_ok=_ranks(*poset._roots, poset.kind) == longest,
    )


def export_dot(poset: Poset, include_ranks: bool = False) -> str:
    """Render the Hasse diagram as a DOT digraph, edges oriented upward.

    Node labels are the placement strings.  With include_ranks, each
    node also carries a rank attribute and same-rank elements are tied
    into one layer.
    """
    lines = [f'digraph "{_poset(poset).kind}_{poset.n}" {{', "  rankdir=BT;"]
    ranks = _ranks(*poset._roots, poset.kind) if include_ranks else None
    same: dict[int, list[str]] = {}
    for i, e in enumerate(poset.elements):
        if ranks is None:
            lines.append(f'  {i} [label="{e.to_text()}"];')
        else:
            lines.append(f'  {i} [label="{e.to_text()}", rank={ranks[i]}];')
            same.setdefault(ranks[i], []).append(str(i))
    for level in sorted(same):
        lines.append("  { rank=same; " + "; ".join(same[level]) + "; }")
    for a, b in poset.hasse.tolist():
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
        "hasse": poset.hasse.tolist(),
        "ranks": _ranks(*poset._roots, poset.kind),
    }

from __future__ import annotations

from hypothesis import strategies as st

from rookposet import validate_placement


@st.composite
def placements(draw, max_n: int = 8, min_n: int = 1):
    """Random placement: per row, either no rook or one in a free column."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    used_cols: set[int] = set()
    roots = []
    for row in range(2, n + 1):
        options = [0] + [c for c in range(1, row) if c not in used_cols]
        col = draw(st.sampled_from(options))
        if col:
            roots.append((row, col))
            used_cols.add(col)
    return validate_placement(roots, n)


@st.composite
def orthogonal_placements(draw, max_n: int = 8, min_n: int = 1):
    """Random orthogonal placement: pair up free indices left to right."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    free = list(range(1, n + 1))
    roots = []
    while len(free) >= 2:
        k = free.pop(0)
        partner = draw(st.sampled_from([0] + free))
        if partner:
            roots.append((partner, k))
            free.remove(partner)
    return validate_placement(roots, n)

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import orthogonal_placements, placements
from rookposet import (
    AmbientError,
    AttackError,
    CapError,
    Permutation,
    Poset,
    Root,
    RookError,
    RookPlacement,
    build_poset,
    count_placements,
    enumerate_placements,
    involution_of,
    kerov_map,
    leq_placement,
    parse_placement,
    placement_from_json,
    rank_general,
    rank_orthogonal,
    render_board,
    validate_placement,
)
import rookposet.placements as placements_module
from rookposet.kerov import ranks_of
from rookposet.poset import brute_force_covers
from rookposet.verify import subset_filter_placements

# n = 0..20 of OEIS A000110 (Bell) and A000085 (involutions): the counts
# that the enumeration checks the length of its search against
GENERAL_COUNTS = [
    1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, 27644437,
    190899322, 1382958545, 10480142147, 82864869804, 682076806159, 5832742205057,
    51724158235372,
]
ORTHOGONAL_COUNTS = [
    1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152, 568504, 2390480,
    10349536, 46206736, 211799312, 997313824, 4809701440, 23758664096,
]


class Index(int):
    """An int subclass that is not bool: it misses the exact-type fast
    paths of Root and RookPlacement and must pass their full checks."""

    def __str__(self) -> str:
        return f"Index({int(self)})"


def test_make_root_accepts_cells_below_diagonal():
    r = Root(6, 2)
    assert (r.row, r.col) == (6, 2)


@pytest.mark.parametrize("i,j", [(Index(6), 2), (6, Index(2)), (Index(6), Index(2))])
def test_int_subclass_coordinates_are_accepted_as_plain_ints(i, j):
    r = Root(i, j)
    assert r == (6, 2) and list(map(type, r)) == [int, int]
    assert str(r) == "6,2" and RookPlacement(6, (r,)).to_text() == "6,2"


@pytest.mark.parametrize("i,j", [(2, 2), (1, 3), (3, 0), (1, 1),
                                 pytest.param(Index(2), Index(2), id="Index-Index")])
def test_make_root_rejects_bad_cells(i, j):
    with pytest.raises(RookError, match="is not a root"):
        Root(i, j)


@pytest.mark.parametrize(
    "i,j",
    [("3", 1), (3, 1.0), (2.5, 1), (2, True), (True, 0),
     pytest.param(np.int64(3), 1, id="int64-1"), pytest.param(3, np.int64(1), id="3-int64")],
)
def test_make_root_rejects_coordinates_that_are_not_ints(i, j):
    with pytest.raises(RookError, match=re.escape(f"root ({i!r}, {j!r}) needs int coordinates")):
        Root(i, j)


def test_root_is_the_plain_pair_in_order_hash_and_equality():
    pairs = [(i, j) for i in range(2, 7) for j in range(1, i)]
    roots = [Root(i, j) for i, j in reversed(pairs)]
    assert sorted(roots) == sorted(pairs) == pairs
    assert all(type(r) is Root for r in sorted(roots))
    for r, pair in zip(reversed(roots), pairs):
        assert r == pair and hash(r) == hash(pair) and tuple(r) == pair
        assert (r.row, r.col) == r
    assert {Root(6, 2): "x"}[(6, 2)] == "x"


def test_root_repr_and_text():
    assert repr(Root(6, 2)) == "Root(row=6, col=2)"
    assert str(Root(6, 2)) == "6,2"
    assert repr((Root(3, 1),)) == "(Root(row=3, col=1),)"
    assert repr(parse_placement("2,1", 3)) == "RookPlacement(n=3, roots=(Root(row=2, col=1),))"
    assert repr(RookPlacement(3, ())) == "RookPlacement(n=3, roots=())"


@pytest.mark.parametrize("attribute", ["row", "col", "n", "roots", "other"])
def test_root_is_immutable(attribute):
    # and so is a placement: neither has a setter or a __dict__
    r = Root(6, 2)
    d = RookPlacement(6, (r,))
    for value in (r, d):
        with pytest.raises(AttributeError):
            setattr(value, attribute, 3)
    assert r == (6, 2) and d == (6, (r,))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_root_pickle_round_trip(protocol):
    # the reduction calls Root itself, so that loading checks the cell again
    assert Root(6, 2).__reduce_ex__(protocol) == (Root, (6, 2))
    r = pickle.loads(pickle.dumps(Root(6, 2), protocol))
    assert type(r) is Root and r == (6, 2) and r.row == 6
    d = pickle.loads(pickle.dumps(parse_placement("3,1;6,2", 6), protocol))
    assert d == parse_placement("3,1;6,2", 6) and all(type(r) is Root for r in d.roots)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
def test_root_copy_round_trip(clone):
    r = clone(Root(6, 2))
    assert type(r) is Root and r == (6, 2)
    d, w = parse_placement("3,1;6,2", 6), Permutation((3, 1, 2))
    assert clone(d) == d and clone(w) == w


def _small_int(value: int, protocol: int) -> bytes:
    """How pickle writes an int below 256: INT in protocol 0, BININT1 after."""
    return b"I%d\n" % value if protocol == 0 else b"K" + bytes([value])


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize(
    "cls,args,old,new,error",
    [
        # the board of a placement shrunk below its root (3,1)
        (RookPlacement, (6, (Root(3, 1),)), 6, 2, AmbientError),
        # an image of a permutation repeated
        (Permutation, ((1, 2, 3),), 1, 2, RookError),
    ],
    ids=["placement", "permutation"],
)
def test_a_pickle_edited_to_an_invalid_value_is_refused(protocol, cls, args, old, new, error):
    # the reduction calls the class itself, so that loading checks again
    value = cls(*args)
    assert value.__reduce_ex__(protocol) == (cls, args)
    assert pickle.loads(pickle.dumps(value, protocol)) == value
    payload = pickle.dumps(value, protocol)
    assert payload.count(_small_int(old, protocol)) == 1
    with pytest.raises(error):
        pickle.loads(payload.replace(_small_int(old, protocol), _small_int(new, protocol)))


class _Forged:
    """Pickles as the reduction `cls(*args)`, with arguments cls refuses."""

    def __init__(self, cls, *args):
        self.reduction = cls, args

    def __reduce__(self):
        return self.reduction


def test_no_route_builds_a_root_that_is_not_one():
    # nor a placement
    for cls in (Root, RookPlacement):
        assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")
    with pytest.raises(RookError, match="not a root"):
        Root.__new__(Root, 2, 2)
    with pytest.raises(RookError, match="int coordinates"):
        Root.__new__(Root, 2.0, 1)
    with pytest.raises(RookError, match="not a root"):
        pickle.loads(pickle.dumps(_Forged(Root, 2, 2)))
    with pytest.raises(TypeError):
        Root((6, 2))
    with pytest.raises(AttackError, match=r"rooks \(2,1\) and \(3,1\) share column 1"):
        RookPlacement.__new__(RookPlacement, 3, (Root(2, 1), Root(3, 1)))
    with pytest.raises(AmbientError, match="outside board of size 2"):
        pickle.loads(pickle.dumps(_Forged(RookPlacement, 2, (Root(3, 1),))))
    with pytest.raises(TypeError):
        RookPlacement((3, ()))


def test_enumeration_refuses_an_unknown_kind():
    with pytest.raises(RookError, match="unknown kind 'bogus'"):
        enumerate_placements(4, "bogus")
    with pytest.raises(RookError, match="unknown kind 'bogus'"):
        count_placements(4, "bogus")
    with pytest.raises(RookError, match="unknown kind 'bogus'"):
        subset_filter_placements(3, "bogus")


def test_a_single_root_is_not_an_iterable_of_roots():
    with pytest.raises(RookError, match=r"roots must be an iterable, got Root\(row=2, col=1\)"):
        RookPlacement(3, Root(2, 1))
    with pytest.raises(RookError, match="roots must be an iterable"):
        validate_placement(Root(2, 1), 3)


def test_a_single_placement_is_not_a_collection():
    # a placement is an (n, roots) tuple, but no collection of roots or placements
    d = parse_placement("2,1", 3)
    got = re.escape(f"must be an iterable, got {d!r}")
    for what, call in [
        ("roots", lambda: RookPlacement(3, d)),
        ("roots", lambda: validate_placement(d, 3)),
        ("elements", lambda: Poset(3, "general", d)),
        ("placements", lambda: placements_module.root_arrays(d)),
        ("placements", lambda: ranks_of(d, "general")),
    ]:
        with pytest.raises(RookError, match=f"^{what} {got}$"):
            call()


@pytest.mark.parametrize("roots,n", [([(2, True)], 2), ([(2.5, 1)], 3)])
def test_validate_placement_rejects_coordinates_that_are_not_ints(roots, n):
    with pytest.raises(RookError):
        validate_placement(roots, n)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None, pytest.param(np.int64(3), id="int64")])
def test_board_size_that_is_not_an_int_is_rejected(n):
    message = re.escape(f"board size must be a non-negative int, got {n!r}")
    with pytest.raises(AmbientError, match=message):
        parse_placement("2,1", n)
    with pytest.raises(AmbientError, match=message):
        RookPlacement(n, ())
    with pytest.raises(AmbientError, match=message):
        count_placements(n)
    with pytest.raises(AmbientError, match=message):
        enumerate_placements(n)
    with pytest.raises(AmbientError):
        build_poset(n)


def test_int_subclass_board_size_is_accepted():
    d = RookPlacement(Index(3), (Root(3, 1),))
    assert d == RookPlacement(3, (Root(3, 1),)) and d.to_text() == "3,1"
    assert enumerate_placements(Index(3)) == enumerate_placements(3)
    with pytest.raises(AmbientError, match=r"^root \(4,1\) outside board of size"):
        RookPlacement(Index(3), (Root(4, 1),))


class _SubRoot(Root):
    __slots__ = ()


def test_placement_roots_must_be_root_objects():
    with pytest.raises(RookError, match="not a Root"):
        RookPlacement(3, ((2, 1),))
    with pytest.raises(RookError, match=r"^\(2, 1\) is not a Root$"):
        RookPlacement(3, [Root(3, 1), (2, 1)])
    # the exact-type test comes first; a Root subclass and a list still pass
    d = RookPlacement(3, [_SubRoot(3, 2), Root(2, 1)])
    assert d.roots == ((2, 1), (3, 2)) and type(d.roots) is tuple


def test_placement_roots_must_be_iterable():
    with pytest.raises(RookError, match="iterable"):
        RookPlacement(3, None)


def test_validate_placement_needs_iterable_roots():
    with pytest.raises(RookError, match="iterable"):
        validate_placement(None, 3)


def test_validate_placement_rejects_triples():
    with pytest.raises(RookError, match=r"\(2, 1, 0\) is not a Root or a \(row, col\) pair"):
        validate_placement([(2, 1, 0)], 3)


def test_parse_placement_needs_a_string():
    with pytest.raises(RookError, match="must be a str"):
        parse_placement(None, 3)


def test_enumeration_cap_must_be_an_int():
    with pytest.raises(RookError, match="cap must be an int"):
        enumerate_placements(3, cap="x")


def test_roots_are_stored_in_canonical_order():
    d = validate_placement([(8, 5), (3, 1), (5, 4), (7, 3), (6, 2)], 8)
    assert [(r.row, r.col) for r in d.roots] == [(3, 1), (5, 4), (6, 2), (7, 3), (8, 5)]
    assert d.to_text() == "3,1;5,4;6,2;7,3;8,5"


def test_shared_row_is_an_attack_and_names_both_rooks():
    with pytest.raises(AttackError) as err:
        validate_placement([(4, 1), (4, 3)], 5)
    assert "4,1" in str(err.value) and "4,3" in str(err.value)


def test_shared_column_is_an_attack():
    with pytest.raises(AttackError):
        validate_placement([(3, 2), (5, 2)], 5)


def test_root_off_the_board_is_rejected():
    with pytest.raises(AmbientError):
        validate_placement([(7, 1)], 6)


@pytest.mark.parametrize(
    "roots,n,error,message",
    [
        ([(4, 1), (4, 3)], 5, AttackError, "rooks (4,1) and (4,3) share row 4"),
        ([(3, 2), (5, 2)], 5, AttackError, "rooks (3,2) and (5,2) share column 2"),
        ([(3, 1), (3, 1)], 5, AttackError, "rooks (3,1) and (3,1) share row 3"),
        ([(3, 1), (4, 1), (5, 2), (5, 3)], 5, AttackError, "rooks (3,1) and (4,1) share column 1"),
        ([(7, 1)], 6, AmbientError, "root (7,1) outside board of size 6"),
        ([(7, 1), (7, 2)], 6, AmbientError, "root (7,1) outside board of size 6"),
        ([(4, 1), (4, 3), (7, 2)], 6, AttackError, "rooks (4,1) and (4,3) share row 4"),
    ],
)
def test_constructor_names_the_first_violation_in_root_order(roots, n, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        RookPlacement(n, tuple(Root(i, j) for i, j in reversed(roots)))


cells = st.tuples(st.integers(2, 9), st.integers(1, 8)).filter(lambda c: c[0] > c[1])


@given(st.integers(0, 9), st.lists(cells, max_size=5))
def test_constructor_accepts_exactly_the_non_attacking_roots_on_the_board(n, pairs):
    fits = all(i <= n for i, _ in pairs) and not any(
        p[0] == q[0] or p[1] == q[1] for p, q in combinations(pairs, 2)
    )
    try:
        d = validate_placement(pairs, n)
    except (AttackError, AmbientError):
        assert not fits
    else:
        assert fits and d.roots == tuple(sorted(pairs))
        assert (d.rows, d.cols) == ({i for i, _ in pairs}, {j for _, j in pairs})


@pytest.mark.parametrize(
    "roots,expected",
    [
        ([], True),
        ([(3, 1), (6, 2), (5, 4)], True),
        ([(3, 1), (6, 2), (7, 3), (5, 4), (8, 5)], False),  # 3 is a row and a column
        ([(2, 1), (4, 3)], True),
        ([(3, 2), (4, 3)], False),
    ],
)
def test_is_orthogonal(roots, expected):
    assert validate_placement(roots, 8).is_orthogonal() is expected


def test_is_orthogonal_means_no_row_is_a_column_exhaustive():
    outcomes = set()
    for n in range(1, 8):
        for d in enumerate_placements(n):
            assert d.is_orthogonal() is not (d.rows & d.cols)
            outcomes.add(d.is_orthogonal())
    assert outcomes == {True, False}


@given(st.one_of(placements(max_n=12), orthogonal_placements(max_n=12)))
def test_is_orthogonal_means_no_row_is_a_column(d):
    assert d.is_orthogonal() is not (d.rows & d.cols)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("kind", ["general", "orthogonal"])
def test_counts_match_known_sequences(n, kind):
    known = GENERAL_COUNTS if kind == "general" else ORTHOGONAL_COUNTS
    assert count_placements(n, kind) == known[n]
    assert len(enumerate_placements(n, kind)) == known[n]


@pytest.mark.parametrize("n", range(21))
def test_counts_are_the_oeis_values(n):
    assert count_placements(n) == GENERAL_COUNTS[n]
    assert count_placements(n, "orthogonal") == ORTHOGONAL_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", ["general", "orthogonal"])
def test_enumeration_matches_subset_filter_oracle(n, kind):
    assert set(enumerate_placements(n, kind)) == subset_filter_placements(n, kind)


@pytest.mark.parametrize(
    "kind,largest", [("general", 8), ("orthogonal", 9)], ids=["general", "orthogonal"]
)
def test_enumeration_is_sorted_and_duplicate_free(kind, largest):
    for n in range(1, largest + 1):
        keys = [e.roots for e in enumerate_placements(n, kind)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_orthogonal_enumeration_filters_the_general_one():
    for n in range(1, 7):
        general = enumerate_placements(n)
        assert enumerate_placements(n, "orthogonal") == tuple(
            d for d in general if d.is_orthogonal()
        )


@pytest.mark.parametrize(
    "n,kind,digest",
    [
        (8, "general", "f1d54057ef860db984be5ace2e80fe97eb382bf8024769c1b74190183faeb149"),
        (9, "orthogonal", "5f02355587e2c1187d68c248f8ed5cd7451d4019f3eb202508746d830848097b"),
        pytest.param(
            10,
            "general",
            "a6d9472c44a9b8c145497db3da8e5337fa3699bc643427cd397305f24b2f5f58",
            marks=pytest.mark.slow,
        ),
        pytest.param(
            12,
            "orthogonal",
            "cf7497c0d9975df3628eeb6a2d47cda9c210238d77bfa09a08ed665cc8187d4e",
            marks=pytest.mark.slow,
        ),
    ],
    ids=["general-8", "orthogonal-9", "general-10", "orthogonal-12"],
)
def test_enumeration_text_is_pinned(n, kind, digest):
    text = "\n".join(e.to_text() for e in enumerate_placements(n, kind))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kind,largest", [("general", 8), ("orthogonal", 9)], ids=["general", "orthogonal"]
)
def test_enumerated_placements_are_their_checked_twins(kind, largest):
    # enumeration builds its placements without the constructor's checks
    for n in range(1, largest + 1):
        elements = enumerate_placements(n, kind)
        for e in elements:
            twin = RookPlacement(n, e.roots)
            assert e == twin and hash(e) == hash(twin) and tuple(e) == tuple(twin)
            assert type(e) is type(twin) is RookPlacement and type(e.n) is int
            assert type(e.roots) is tuple and all(type(r) is Root for r in e.roots)
            # the pair a placement is, and so the hash it always had
            assert e == (n, e.roots) and hash(e) == hash((e.n, e.roots))
            assert str(e) == e.to_text()
        assert pickle.loads(pickle.dumps(elements)) == elements
    assert str(RookPlacement(3, ())) == ""


# the real search on the board of size 6, changed so that its length is
# not B(6) = 203: one tuple short, one tuple twice, or one bad tuple more
FORGED_SEARCHES = {
    "last-dropped": lambda found: found[:-1],
    "one-repeated": lambda found: found + [found[40]],
    "shared-column-appended": lambda found: found + [(Root(3, 2), Root(5, 2))],
}


@pytest.mark.parametrize("forge", FORGED_SEARCHES.values(), ids=list(FORGED_SEARCHES))
@pytest.mark.parametrize("build", [enumerate_placements, build_poset])
def test_a_search_of_the_wrong_length_is_refused(monkeypatch, forge, build):
    forged = forge(placements_module._search(6, False))
    assert len(forged) != 203
    monkeypatch.setattr(placements_module, "_search", lambda n, orthogonal: forged)
    message = f"^the search found {len(forged)} placements on board 6, not 203$"
    with pytest.raises(RookError, match=message) as got:
        build(6)
    assert type(got.value) is RookError


def test_smallest_board_has_only_the_empty_placement():
    assert enumerate_placements(1) == (RookPlacement(1, ()),)
    with pytest.raises(AmbientError):
        enumerate_placements(0)


def test_enumeration_cap_is_checked_before_work():
    with pytest.raises(CapError):
        enumerate_placements(5, cap=51)
    assert len(enumerate_placements(5, cap=52)) == 52


def test_the_cap_lower_bounds_hold():
    # B(n) >= 2^(n-1) and t(n) >= 2^(n//2)
    for n in range(1, 60):
        assert count_placements(n) >= 2 ** (n - 1)
        assert count_placements(n, "orthogonal") >= 2 ** (n // 2)


def _never(*args):
    raise AssertionError("counted the placements of a board past the cap")


@pytest.mark.parametrize(
    "n,kind", [(21, "general"), (2500, "general"), (40, "orthogonal"), (9000, "orthogonal")]
)
def test_a_board_past_the_cap_is_refused_without_counting(monkeypatch, n, kind):
    # 2^(n-1), or 2^(n//2), already exceeds the default cap of 10^6
    monkeypatch.setattr(placements_module, "count_placements", _never)
    message = f"^board {n} has more than 1000000 placements of kind '{kind}'$"
    with pytest.raises(CapError, match=message):
        enumerate_placements(n, kind)
    with pytest.raises(CapError, match=message):
        build_poset(n, kind)


@pytest.mark.parametrize("n,kind", [(20, "general"), (39, "orthogonal")])
def test_a_board_below_the_bound_is_refused_by_its_count(n, kind):
    # the lower bound is under 10^6 here, the count above it
    assert count_placements(n, kind) > 10**6
    with pytest.raises(CapError, match=f"^board {n} has more than 1000000 placements"):
        enumerate_placements(n, kind)


def test_render_board_known_picture():
    d = parse_placement("3,1;6,2;5,3", 6)
    assert render_board(d) == "\n".join(
        [
            "......",
            "......",
            "X.....",
            "......",
            "..X...",
            ".X....",
        ]
    )


def test_render_board_custom_symbol():
    d = parse_placement("2,1", 2)
    assert render_board(d, symbol="⊗") == "..\n⊗."


@pytest.mark.parametrize("symbol", [5, None, b"X"])
def test_render_board_refuses_a_symbol_that_is_not_a_str(symbol):
    with pytest.raises(RookError, match="symbol must be a str"):
        render_board(parse_placement("2,1", 2), symbol=symbol)


@pytest.mark.parametrize("symbol", ["", "XX", "."])
def test_render_board_refuses_a_symbol_that_is_not_one_other_character(symbol):
    # "" and "XX" would change the width of a row, "." would hide the rook
    with pytest.raises(RookError, match="symbol must be one character other than '.'"):
        render_board(parse_placement("2,1", 2), symbol=symbol)


@pytest.mark.parametrize(
    "value", [None, "x", Root(2, 1), [1, 2]], ids=["None", "str", "Root", "list"]
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda v: leq_placement(RookPlacement(2, ()), v),
        lambda v: leq_placement(v, RookPlacement(2, ())),
        kerov_map,
        rank_general,
        rank_orthogonal,
        involution_of,
        render_board,
        lambda v: build_poset(2).index_of(v),
        lambda v: build_poset(2).leq_elements(RookPlacement(2, ()), v),
        lambda v: brute_force_covers(build_poset(2), v),
    ],
    ids=["leq_placement-right", "leq_placement-left", "kerov_map", "rank_general",
         "rank_orthogonal", "involution_of", "render_board", "index_of", "leq_elements",
         "brute_force_covers"],
)
def test_placement_functions_refuse_what_is_not_a_placement(entry, value):
    with pytest.raises(RookError, match=f"^{re.escape(repr(value))} is not a RookPlacement$"):
        entry(value)


def test_parse_placement_ignores_whitespace():
    assert parse_placement(" 3,1 ;\t6,2 ", 6) == parse_placement("3,1;6,2", 6)


def test_parse_empty_string_is_the_empty_placement():
    assert parse_placement("", 4) == RookPlacement(4, ())
    assert parse_placement("  \n ", 4) == RookPlacement(4, ())


# '1_0', '+3' and '٣' (an Arabic-Indic three) are int() literals, not digits,
# and int() refuses a literal of over 4300 digits
@pytest.mark.parametrize(
    "text",
    ["3;1", "3,1;", "a,b", "3,1,2", "3", "1_0,1", "+3,1", "٣,1", "3,-1",
     pytest.param("9" * 5000 + ",1", id="5000-digits")],
)
def test_parse_rejects_malformed_tokens(text):
    with pytest.raises(RookError, match="^bad root token"):
        parse_placement(text, 10)


def test_parse_rejects_repeated_roots():
    with pytest.raises(AttackError):
        parse_placement("3,1;3,1", 6)


def test_json_round_trip():
    d = parse_placement("3,1;6,2;5,4", 6)
    blob = json.dumps(d.to_json())
    assert placement_from_json(json.loads(blob)) == d
    assert d.to_json() == {"n": 6, "roots": [[3, 1], [5, 4], [6, 2]]}


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"n": 4},
        {"n": "4", "roots": []},
        {"n": 4, "roots": 3},
        {"n": 3, "roots": [[2, 1, 5]]},
        {"n": 3, "roots": [5]},
        {"n": True, "roots": []},
        {"n": 3, "roots": [["2", "1"]]},
        {"n": 3, "roots": [[2.0, 1]]},
        {"n": 3, "roots": "21"},
    ],
)
def test_json_rejects_malformed_payloads(data):
    with pytest.raises(RookError):
        placement_from_json(data)


@given(placements())
def test_text_round_trip(d):
    assert parse_placement(d.to_text(), d.n) == d


@given(orthogonal_placements())
def test_orthogonal_strategy_builds_orthogonal_placements(d):
    assert d.is_orthogonal()
    assert placement_from_json(d.to_json()) == d

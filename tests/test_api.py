from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import rookposet
from rookposet import RookError
from rookposet.order import (
    bruhat_leq,
    bruhat_matrix,
    counting_entries,
    dominance_matrix,
    inversion_length,
    rank_matrix,
)
from rookposet.placements import root_arrays
from rookposet.poset import brute_force_covers

PUBLIC_NAMES = {
    "AmbientError",
    "AttackError",
    "CapError",
    "CoverMove",
    "DEFAULT_CAP",
    "GradedReport",
    "OrthogonalityError",
    "Permutation",
    "Poset",
    "RookError",
    "Root",
    "RookPlacement",
    "build_poset",
    "check_graded",
    "count_placements",
    "enumerate_placements",
    "export_dot",
    "involution_of",
    "kerov_map",
    "leq_placement",
    "moves_general",
    "moves_orthogonal",
    "parse_placement",
    "placement_from_json",
    "poset_to_json",
    "predecessors_general",
    "predecessors_orthogonal",
    "rank_general",
    "rank_orthogonal",
    "render_board",
    "validate_placement",
}


def test_public_names_are_pinned():
    assert len(rookposet.__all__) == len(PUBLIC_NAMES) == 31
    assert set(rookposet.__all__) == PUBLIC_NAMES
    assert all(hasattr(rookposet, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize(
    "module,name",
    [
        ("order", "RankMatrix"),
        ("order", "rank_matrix"),
        ("order", "inversion_length"),
        ("order", "bruhat_leq"),
        ("poset", "brute_force_covers"),
    ],
)
def test_check_only_routes_live_in_their_modules(module, name):
    assert name not in dir(rookposet)
    assert callable(getattr(importlib.import_module(f"rookposet.{module}"), name))


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


_D = rookposet.parse_placement("2,1", 2)
# calls that leaked AttributeError or TypeError on input of the wrong type;
# each batch kernel gets the bad value as its whole argument and in a list
LEAKS = {
    "check_graded": rookposet.check_graded,
    "export_dot": rookposet.export_dot,
    "poset_to_json": rookposet.poset_to_json,
    "brute_force_covers": lambda p: brute_force_covers(p, _D),
    "Poset": lambda elements: rookposet.Poset(3, "general", elements),
    "Permutation": rookposet.Permutation,
    "bruhat_leq": lambda w: bruhat_leq(w, rookposet.Permutation((1,))),
    "rank_matrix": rank_matrix,
    "inversion_length": inversion_length,
    "RankMatrix.__le__": lambda other: rank_matrix(_D) <= other,
}
for _name, _kernel in {
    "root_arrays": root_arrays,
    "counting_entries": counting_entries,
    "dominance_matrix": dominance_matrix,
    "bruhat_matrix": bruhat_matrix,
}.items():
    LEAKS[f"{_name}(bad)"] = _kernel
    LEAKS[f"{_name}([bad])"] = lambda x, kernel=_kernel: kernel([x])


@pytest.mark.parametrize("bad", ["x", None, 3])
@pytest.mark.parametrize("call", sorted(LEAKS))
def test_input_of_the_wrong_type_raises_rook_error(call, bad):
    with pytest.raises(RookError):
        LEAKS[call](bad)


def test_permutation_images_must_be_a_tuple_of_ints():
    for images in ([2, 1], (2.0, 1.0), (True,), "21"):
        with pytest.raises(RookError, match="must be a tuple of ints"):
            rookposet.Permutation(images)
    assert hash(rookposet.Permutation((2, 1))) == hash(rookposet.Permutation((2, 1)))

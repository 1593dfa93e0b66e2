from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import rookposet

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

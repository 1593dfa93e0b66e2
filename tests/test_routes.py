"""Two independent routes to each theorem-level answer, checked on the source.

Every verify suite compares a fast kernel with a route that exists to
check it.  These tests read src/rookposet with `ast` and pin what keeps
the two apart: the import graph of the package, that no fast kernel
reaches a check-only route, and which pair each verify suite compares.
"Reaches" follows every name and attribute a definition mentions, calls
and annotations alike, to the top-level definitions of the package, and
from those on; it over-approximates the calls a kernel can make.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import rookposet

SRC = Path(rookposet.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}

# the modules of the package each module imports
IMPORTS = {
    "errors": set(),
    "placements": {"errors"},
    "order": {"errors", "placements"},
    "covers": {"errors", "placements"},
    "kerov": {"errors", "placements"},
    "poset": {"errors", "kerov", "order", "placements"},
    "verify": {"covers", "errors", "kerov", "order", "placements", "poset"},
    "cli": {"covers", "errors", "kerov", "order", "placements", "poset", "verify"},
    "__init__": {"covers", "errors", "kerov", "order", "placements", "poset"},
}

# routes that exist to check another one
ORACLES = {
    "rank_matrix",
    "RankMatrix",
    "inversion_length",
    "bruhat_matrix",
    "bruhat_leq",
    "brute_force_covers",
    "subset_filter_placements",
    "rank_general",
    "rank_orthogonal",
}

# fast kernel -> what it must not reach; leq_placement is the pairwise
# oracle of packed_dominance, and a kernel in its own right elsewhere
KERNELS = {
    ("order", "counting_entries"): ORACLES,
    ("order", "_counting_entries"): ORACLES,
    ("order", "packed_dominance"): ORACLES | {"leq_placement"},
    ("order", "_packed_dominance"): ORACLES | {"leq_placement"},
    ("order", "leq_placement"): ORACLES,
    ("kerov", "ranks_of"): ORACLES,
    ("kerov", "_ranks"): ORACLES,
    ("poset", "Poset"): ORACLES,
    ("poset", "_cover_scan"): ORACLES,
    ("poset", "_longest_paths"): ORACLES,
    ("poset", "check_graded"): ORACLES,
    ("cli", "cmd_compare"): ORACLES,
}
KERNELS.update(
    {
        ("covers", node.name): ORACLES
        for node in TREES["covers"].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
)

# verify suite -> (fast route, oracle route).  graded: check_graded
# compares the longest Hasse paths of build_poset's diagram with the rank
# kernel of ranks_of, _ranks, over the root arrays the poset keeps.
PAIRS = {
    "verify_counts": ("enumerate_placements", "subset_filter_placements"),
    "verify_covers_general": ("predecessors_general", "brute_force_covers"),
    "verify_covers_orthogonal": ("predecessors_orthogonal", "brute_force_covers"),
    "verify_kerov_order": ("dominance_matrix", "bruhat_matrix"),
    "verify_kerov_covers": ("predecessors_general", "predecessors_orthogonal"),
    "verify_graded_general": ("build_poset", "_ranks"),
    "verify_graded_orthogonal": ("build_poset", "_ranks"),
    "verify_bruhat": ("dominance_matrix", "bruhat_matrix"),
}
# kerov-covers checks the general move rule against the orthogonal one, so
# both sides run the one engine of covers.py; covers-general and
# covers-orthogonal pin each rule to materialized covers.
SHARED_ENGINE = "verify_kerov_covers"


def _imports(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rookposet"):
            parts = node.module.split(".")
            found.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("rookposet.")
            )
    return found


def _definitions() -> dict[str, tuple[str, ast.AST]]:
    defs: dict[str, tuple[str, ast.AST]] = {}
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in defs, f"{node.name} defined twice"
                defs[node.name] = (module, node)
    return defs


DEFS = _definitions()


def reaches(name: str) -> set[str]:
    """The top-level definitions that `name` mentions, and those they do."""
    seen, todo = {name}, [name]
    while todo:
        for node in ast.walk(DEFS[todo.pop()][1]):
            ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ref in DEFS and ref not in seen:
                seen.add(ref)
                todo.append(ref)
    return seen


def test_import_graph_is_pinned():
    assert {module: _imports(tree) for module, tree in TREES.items()} == IMPORTS


@pytest.mark.parametrize("kernel", sorted(f"{module}.{name}" for module, name in KERNELS))
def test_fast_kernels_reach_no_route_that_checks_them(kernel):
    module, name = kernel.split(".")
    assert DEFS[name][0] == module
    assert not reaches(name) & KERNELS[module, name]


def test_every_verify_suite_is_pinned():
    suites = {n.name for n in TREES["verify"].body if isinstance(n, ast.FunctionDef)}
    assert {s for s in suites if s.startswith("verify_")} == set(PAIRS)


@pytest.mark.parametrize("suite", sorted(PAIRS))
def test_verify_suites_compare_two_independent_routes(suite):
    fast, oracle = PAIRS[suite]
    assert fast != oracle
    assert {fast, oracle} <= reaches(suite)
    assert oracle not in reaches(fast) and fast not in reaches(oracle)
    # what both routes run beyond the placement type and the errors
    common = {
        name
        for name in reaches(fast) & reaches(oracle)
        if DEFS[name][0] not in ("placements", "errors")
    }
    if suite == SHARED_ENGINE:
        assert common and {DEFS[name][0] for name in common} == {"covers"}
    else:
        assert not common


def test_rank_general_does_not_go_through_the_kerov_image():
    # so that rank_general(d) == rank_orthogonal(kerov_map(d)) in
    # tests/test_kerov.py compares two routes
    assert not reaches("rank_general") & {"kerov_map", "rank_orthogonal"}


# guard message -> the one definition that raises it
GUARDS = {
    "board size must be a non-negative int": ("placements", "_board"),
    "unknown kind": ("placements", "_kind"),
    "is not orthogonal": ("placements", "_orthogonal"),
    "is not a RookPlacement": ("placements", "_placement"),
    "is not a Poset": ("poset", "_poset"),
    "is not a Permutation": ("order", "_permutation"),
}


@pytest.mark.parametrize("message", sorted(GUARDS))
def test_each_input_rule_is_raised_from_one_guard(message):
    sites = [
        (module, getattr(top, "name", None))
        for module, tree in TREES.items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Raise) and message in ast.unparse(node)
    ]
    assert sites == [GUARDS[message]]


def test_placements_skip_their_checks_only_in_the_checked_batch():
    # enumeration builds placements past __post_init__, and one bulk check
    # over the whole batch stands in for it
    sites = [
        (module, top.name)
        for module, tree in TREES.items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node).endswith("__new__(RookPlacement)")
    ]
    assert sites == [("placements", "_batch")]
    batch = DEFS["_batch"][1]
    calls = {ast.unparse(node.func) for node in ast.walk(batch) if isinstance(node, ast.Call)}
    assert "_check_batch" in calls
    assert "root_arrays" in reaches("_check_batch")


def _sites(match) -> list[tuple[str, str | None]]:
    """(module, top-level definition) of each node of the package that matches."""
    return [
        (module, getattr(top, "name", None))
        for module, tree in TREES.items()
        for top in tree.body
        for node in ast.walk(top)
        if match(node)
    ]


def test_a_poset_builds_its_relation_from_its_own_elements():
    # Poset takes no relation: its one route to one is the dominance order
    # of its elements, from the root arrays it builds and keeps itself
    init = next(node for node in DEFS["Poset"][1].body if getattr(node, "name", None) == "__init__")
    assert [arg.arg for arg in init.args.args] == ["self", "n", "kind", "elements"]
    relation = {"root_arrays", "_counting_entries", "_packed_dominance", "_cover_scan"}
    assert relation <= reaches("Poset")
    assert _sites(
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "Poset"
    ) == [("poset", "build_poset")]
    assert _sites(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "_roots"
        and isinstance(node.ctx, ast.Store)
    ) == [("poset", "Poset")]


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__"}))
def test_each_module_uses_every_name_it_imports(module):
    # __init__ imports only to re-export
    used = {node.id for node in ast.walk(TREES[module]) if isinstance(node, ast.Name)}
    assert not _imported_names(TREES[module]) - used

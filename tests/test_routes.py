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
    "_prefix_counts",
    "brute_force_covers",
    "subset_filter_placements",
    "rank_general",
    "rank_orthogonal",
    "_length_and_crossings",
}

# fast kernel -> what it must not reach; leq_placement is the pairwise
# oracle of _packed_dominance, and a kernel in its own right elsewhere
KERNELS = {
    ("order", "counting_entries"): ORACLES,
    ("order", "_counting_entries"): ORACLES,
    ("order", "_packed_dominance"): ORACLES | {"leq_placement"},
    ("order", "leq_placement"): ORACLES,
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
# compares the longest Hasse paths of build_poset's diagram with the batch
# rank kernel _ranks, over the root arrays the poset keeps.
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
    "is on board": ("placements", "_on_board"),
    "is not a Poset": ("poset", "_poset"),
    "is not a Permutation": ("order", "_permutation"),
}


@pytest.mark.parametrize("message", sorted(GUARDS))
def test_each_input_rule_is_raised_from_one_guard(message):
    assert _raises(message) == [GUARDS[message]]


def test_a_batch_checks_its_boards_in_root_arrays_and_poset_only():
    # every batch names its first placement off the board in Poset's words,
    # through root_arrays, and has no message of its own for it
    assert sorted(_sites(
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "_on_board"
    )) == [("placements", "root_arrays"), ("poset", "Poset")]
    assert _raises("placements on boards of sizes") == []


def test_a_move_that_leaves_the_orthogonal_family_is_raised_from_one_site():
    # the mask test of each result in the move engine, which both
    # moves_orthogonal and predecessors_orthogonal run
    assert _raises("left the orthogonal family") == [("covers", "_cover_moves")]


def _raises(message: str) -> list[tuple[str, str | None]]:
    """(module, top-level definition) of each raise whose text holds `message`."""
    return _sites(lambda node: isinstance(node, ast.Raise) and message in ast.unparse(node))


def _tuple_new(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "tuple.__new__"


def _calls(name: str) -> set[str]:
    """What the top-level definition `name` calls, as written."""
    nodes = ast.walk(DEFS[name][1])
    return {ast.unparse(node.func) for node in nodes if isinstance(node, ast.Call)}


def test_placements_skip_their_checks_only_in_the_checked_batch():
    # every route checks first and builds last: Root and RookPlacement
    # build themselves with tuple.__new__ after the checks of their
    # __new__; enumeration builds placements past those from the search's
    # root tuples, which keep every rule by construction, once their
    # number has been checked against the count of the board; a cover
    # move builds its target Roots and its result past them, after the
    # checks of the targets that are all a valid placement needs, and
    # falls back to the constructors for their error when one fails
    assert _sites(_tuple_new) == [
        ("placements", "Root"),
        ("placements", "RookPlacement"),
        ("placements", "_replaced"),
        ("placements", "_replaced"),
        ("placements", "enumerate_placements"),
    ]
    assert _sites(
        lambda node: _tuple_new(node) and ast.unparse(node.args[0]) == "RookPlacement"
    ) == [("placements", "_replaced"), ("placements", "enumerate_placements")]
    assert _sites(
        lambda node: _tuple_new(node) and ast.unparse(node.args[0]) == "Root"
    ) == [("placements", "_replaced")]
    # each tuple.__new__ is called where it is written, so no alias (a
    # name bound to it, a functools.partial) hides a site from these pins
    assert _sites(
        lambda node: isinstance(node, ast.Attribute) and ast.unparse(node) == "tuple.__new__"
    ) == _sites(_tuple_new)
    # the builds of a move's result run only once every target has passed:
    # in the else of the loop that a failing target breaks, under the test
    # that two targets share no row or column
    replaced = DEFS["_replaced"][1]
    (loop,) = [
        node
        for node in ast.walk(replaced)
        if isinstance(node, ast.For)
        and ast.unparse(node.iter) == "targets"
        and any(isinstance(n, ast.Break) for n in ast.walk(node))
    ]
    (pair,) = loop.orelse
    assert isinstance(pair, ast.If) and "targets[1]" in ast.unparse(pair.test)
    builds = {id(node) for node in ast.walk(replaced) if _tuple_new(node)}
    assert builds == {id(node) for stmt in pair.body for node in ast.walk(stmt) if _tuple_new(node)}
    assert {"Root", "RookPlacement"} <= _calls("_replaced")
    # the search builds each cell through the checked Root, and the only
    # tuple.__new__ it reaches is the one that ends Root.__new__
    assert "Root" in _calls("_search")
    assert {
        name for name in reaches("_search") if any(map(_tuple_new, ast.walk(DEFS[name][1])))
    } == {"Root"}
    # the enumeration builds nothing before the length of the search is
    # compared with the count, and a mismatch raises
    enumerate_ = DEFS["enumerate_placements"][1]
    assert {"_search", "count_placements"} <= _calls("enumerate_placements")
    (check,) = [
        node
        for node in ast.walk(enumerate_)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "len(found) != count"
    ]
    assert [type(stmt) for stmt in check.body] == [ast.Raise]
    (build,) = filter(_tuple_new, ast.walk(enumerate_))
    assert check.lineno < build.lineno
    # and the constructor builds itself once, in its last statement
    new = next(n for n in DEFS["RookPlacement"][1].body if getattr(n, "name", None) == "__new__")
    (build,) = filter(_tuple_new, ast.walk(new))
    assert isinstance(new.body[-1], ast.Return) and new.body[-1].value is build


def _sites(match) -> list[tuple[str, str | None]]:
    """(module, top-level definition) of each node of the package that matches."""
    return [
        (module, getattr(top, "name", None))
        for module, tree in TREES.items()
        for top in tree.body
        for node in ast.walk(top)
        if match(node)
    ]


def test_no_value_is_built_or_changed_past_its_class():
    # the only route past a constructor is the checked batch above
    assert _sites(
        lambda node: isinstance(node, ast.Call)
        and ast.unparse(node.func) in {"object.__new__", "object.__setattr__"}
    ) == []


def test_a_poset_builds_its_relation_from_its_own_elements():
    # Poset takes no relation: its one route to one is the dominance order
    # of its elements, from the root arrays it keeps, which it always
    # builds itself from them
    init = next(node for node in DEFS["Poset"][1].body if getattr(node, "name", None) == "__init__")
    assert [arg.arg for arg in init.args.args] == ["self", "n", "kind", "elements"]
    assert not init.args.kwonlyargs and not init.args.vararg and not init.args.kwarg
    assert _sites(lambda node: isinstance(node, ast.keyword) and node.arg == "_roots") == []
    (store,) = [
        node
        for node in ast.walk(init)
        if isinstance(node, ast.Assign) and list(map(ast.unparse, node.targets)) == ["self._roots"]
    ]
    assert ast.unparse(store.value) == "root_arrays(elements)"
    assert "enumerate_placements" in _calls("build_poset")
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

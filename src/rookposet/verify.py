"""Exhaustive self-checks over full boards, used by tests and the CLI.

Every suite sweeps a range of board sizes and compares two independent
routes to the same answer: move generators vs materialized covers,
dominance vs Bruhat order, Hasse ranks vs closed formulas, and so on.
tests/test_routes.py pins the pair of each suite; kerov-covers, the one
exception, checks the general move rule against the orthogonal one,
each of which a covers suite pins to materialized covers.  A suite
reports how many instances it checked and describes any failures
instead of stopping at the first one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .covers import predecessors_general, predecessors_orthogonal
from .errors import RookError
from .kerov import kerov_map
from .order import bruhat_matrix, dominance_matrix, involution_of
from .placements import (
    Kind,
    Root,
    RookPlacement,
    _is_int,
    _kind,
    count_placements,
    enumerate_placements,
)
from .poset import brute_force_covers, build_poset, check_graded

GENERAL_COUNTS = (1, 2, 5, 15, 52, 203, 877)
ORTHOGONAL_COUNTS = (1, 2, 4, 10, 26, 76, 232)

#: Default largest board of each sub-suite, keyed by its result name.
DEFAULT_BOUNDS = {
    "counts": 7,
    "covers-general": 6,
    "covers-orthogonal": 7,
    "kerov-order": 7,
    "kerov-covers": 7,
    "graded-general": 6,
    "graded-orthogonal": 7,
    "bruhat": 8,
}
SUBSET_ORACLE_BOUND = 5


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"{self.name}: {'PASS' if self.ok else 'FAIL'} ({self.checked} checked)"]
        lines += ["  " + f for f in self.failures[:10]]
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(lines)


def _boards(name: str, low: int, max_n: int) -> range:
    """Board sizes low..max_n; a bound that leaves none is refused, since
    a suite that checks nothing would report a vacuous PASS."""
    if not _is_int(max_n):
        raise RookError(f"{name} needs an int bound, got {max_n!r}")
    if max_n < low:
        raise RookError(f"{name} checks boards from n={low}; max_n={max_n} checks none")
    return range(low, max_n + 1)


def subset_filter_placements(n: int, kind: Kind = "general") -> set[RookPlacement]:
    """Brute-force oracle: test every subset of the board's roots."""
    kind = _kind(kind)
    all_roots = [Root(i, j) for i in range(2, n + 1) for j in range(1, i)]
    found = set()
    for size in range(len(all_roots) + 1):
        for combo in itertools.combinations(all_roots, size):
            rows = [r.row for r in combo]
            cols = [r.col for r in combo]
            if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
                continue
            if kind == "orthogonal" and set(rows) & set(cols):
                continue
            found.add(RookPlacement(n, combo))
    return found


def verify_counts(max_n: int = DEFAULT_BOUNDS["counts"]) -> SuiteResult:
    res = SuiteResult("counts")
    for n in _boards(res.name, 1, max_n):
        for kind, known in (("general", GENERAL_COUNTS), ("orthogonal", ORTHOGONAL_COUNTS)):
            elements = enumerate_placements(n, kind)
            res.checked += len(elements)
            if len(elements) != count_placements(n, kind):
                res.failures.append(
                    f"{kind} n={n}: enumerated {len(elements)}, "
                    f"counted {count_placements(n, kind)}"
                )
            if n <= len(known) and len(elements) != known[n - 1]:
                res.failures.append(
                    f"{kind} n={n}: enumerated {len(elements)}, expected {known[n - 1]}"
                )
            if len(set(elements)) != len(elements):
                res.failures.append(f"{kind} n={n}: enumeration repeats an element")
            if n <= SUBSET_ORACLE_BOUND and set(elements) != subset_filter_placements(n, kind):
                res.failures.append(f"{kind} n={n}: subset-filter oracle disagrees")
    return res


def _verify_covers(kind: Kind, max_n: int) -> SuiteResult:
    res = SuiteResult(f"covers-{kind}")
    generator = predecessors_general if kind == "general" else predecessors_orthogonal
    for n in _boards(res.name, 3, max_n):
        poset = build_poset(n, kind)
        for d in poset.elements:
            res.checked += 1
            got = generator(d)
            want = brute_force_covers(poset, d)
            if got != want:
                missing = {p.to_text() for p in want - got}
                extra = {p.to_text() for p in got - want}
                res.failures.append(
                    f"{kind} n={n} D={d.to_text()!r}: missing {sorted(missing)}, "
                    f"extra {sorted(extra)}"
                )
    return res


def verify_covers_general(max_n: int = DEFAULT_BOUNDS["covers-general"]) -> SuiteResult:
    """Move generators vs materialized covers over every placement of R(3..max_n)."""
    return _verify_covers("general", max_n)


def verify_covers_orthogonal(
    max_n: int = DEFAULT_BOUNDS["covers-orthogonal"],
) -> SuiteResult:
    """Move generators vs materialized covers over every placement of I(3..max_n)."""
    return _verify_covers("orthogonal", max_n)


def _dominance_vs_bruhat(
    name: str, kind: Kind, image: Callable, failure: str, max_n: int
) -> SuiteResult:
    """Dominance on the placements of 3..max_n against Bruhat order of
    their images; `failure` words a disagreeing pair from n, a and b."""
    res = SuiteResult(name)
    for n in _boards(name, 3, max_n):
        elements = enumerate_placements(n, kind)
        res.checked += len(elements) ** 2
        perms = [image(e) for e in elements]
        for a, b in np.argwhere(dominance_matrix(elements) != bruhat_matrix(perms)):
            res.failures.append(
                failure.format(n=n, a=elements[a].to_text(), b=elements[b].to_text())
            )
    return res


def verify_kerov_order(max_n: int = DEFAULT_BOUNDS["kerov-order"]) -> SuiteResult:
    """The doubling map preserves and reflects order on all pairs: dominance
    on R(n) equals Bruhat order of the images read as involutions, so the
    two sides share no kernel."""
    return _dominance_vs_bruhat("kerov-order", "general", lambda d: involution_of(kerov_map(d)),
                                "n={n}: order disagrees on {a!r} vs {b!r}", max_n)


def verify_kerov_covers(max_n: int = DEFAULT_BOUNDS["kerov-covers"]) -> SuiteResult:
    """The doubling map κ preserves and reflects cover relations on all pairs:
    it is injective and maps the covers below d onto those below κ(d) in κ(R(n))."""
    res = SuiteResult("kerov-covers")
    for n in _boards(res.name, 3, max_n):
        elements = enumerate_placements(n)
        res.checked += len(elements) ** 2
        image = {d: kerov_map(d) for d in elements}
        source = {x: d for d, x in image.items()}
        if len(source) != len(elements):
            res.failures.append(f"n={n}: the doubling map is not injective on R({n})")
            continue
        for d in elements:
            got = {image[t] for t in predecessors_general(d)}
            want = predecessors_orthogonal(image[d]) & source.keys()
            res.failures += [
                f"n={n}: cover disagrees on {t!r} below {d.to_text()!r}"
                for t in sorted(source[x].to_text() for x in got ^ want)
            ]
    return res


def _verify_graded(kind: Kind, max_n: int) -> SuiteResult:
    res = SuiteResult(f"graded-{kind}")
    for n in _boards(res.name, 2, max_n):
        poset = build_poset(n, kind)
        res.checked += len(poset)
        report = check_graded(poset)
        if not report.is_graded:
            res.failures.append(f"{kind} n={n}: not graded: {report.witness}")
        elif not report.rank_formula_ok:
            res.failures.append(f"{kind} n={n}: Hasse rank disagrees with formula")
    return res


def verify_graded_general(max_n: int = DEFAULT_BOUNDS["graded-general"]) -> SuiteResult:
    """R(2..max_n) is graded with ranks matching the closed formula."""
    return _verify_graded("general", max_n)


def verify_graded_orthogonal(
    max_n: int = DEFAULT_BOUNDS["graded-orthogonal"],
) -> SuiteResult:
    """I(2..max_n) is graded with ranks matching the closed formula."""
    return _verify_graded("orthogonal", max_n)


def verify_bruhat(max_n: int = DEFAULT_BOUNDS["bruhat"]) -> SuiteResult:
    """Dominance on I(3..max_n) equals Bruhat order of the involutions."""
    return _dominance_vs_bruhat("bruhat", "orthogonal", involution_of,
                                "n={n}: {a!r} vs {b!r} disagree with Bruhat order", max_n)


#: Sub-suites of each named suite, keyed by result name; "all" runs every one.
SUITES: dict[str, dict[str, Callable[[int], SuiteResult]]] = {
    "counts": {"counts": verify_counts},
    "covers-general": {"covers-general": verify_covers_general},
    "covers-orthogonal": {"covers-orthogonal": verify_covers_orthogonal},
    "kerov": {"kerov-order": verify_kerov_order, "kerov-covers": verify_kerov_covers},
    "graded": {
        "graded-general": verify_graded_general,
        "graded-orthogonal": verify_graded_orthogonal,
    },
    "bruhat": {"bruhat": verify_bruhat},
}
SUITES["all"] = {key: fn for part in SUITES.values() for key, fn in part.items()}


def run_suite(name: str, max_n: int | None = None) -> list[SuiteResult]:
    """Run one named suite ('all' for every one); None runs each sub-suite
    up to its DEFAULT_BOUNDS entry."""
    if not isinstance(name, str) or name not in SUITES:
        raise RookError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [
        fn(DEFAULT_BOUNDS[key] if max_n is None else max_n)
        for key, fn in SUITES[name].items()
    ]

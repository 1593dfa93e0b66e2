"""The four benchmark workloads: seeded inputs, the operations, and their checks.

Each workload is three functions.  `generate(seed)` makes the raw inputs
(plain ints and strings, so they can be hashed and compared across
commits; hasse and oracle have fixed job lists and ignore the seed);
`prepare(rp, raw)` turns them into package objects; and
`run_pass(rp, prepared, rec)` runs the whole fixed job list once, timing
every operation through `rec`.  `rp` is the `rookposet` package.  Every
call into it goes through a module attribute (`rp.poset.build_poset`,
never a name bound at import), so a tracer that swaps those attributes
sees each call.

Every operation checks its answer against a reference that does not come
from the code path being timed.  These references are the Bell and
telephone numbers, Hasse edge counts confirmed by the move generators,
rank formulas, and the dominance order.  A wrong answer raises `Mismatch`,
which the recorder counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

# OEIS A000110 (Bell) and A000085 (telephone) for n = 0..9: the number of
# general and of orthogonal placements on the board of size n.
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)
TELEPHONE = (1, 1, 2, 4, 10, 26, 76, 232, 764, 2620)
COUNTS = {"general": BELL, "orthogonal": TELEPHONE}

# Hasse edges of R(n) and I(n).  Each was confirmed two ways: by the
# transitive reduction of build_poset, and as the sum of the number of
# move-generated predecessors over all elements.
HASSE_EDGES = {
    ("general", 4): 24,
    ("general", 6): 631,
    ("general", 7): 3501,
    ("general", 8): 20500,
    ("orthogonal", 5): 63,
    ("orthogonal", 7): 959,
    ("orthogonal", 8): 3884,
    ("orthogonal", 9): 15892,
}

# The ROADMAP size ladder: general n=6..8 and orthogonal n=7..9.
HASSE_LADDER = (
    ("general", 6),
    ("general", 7),
    ("general", 8),
    ("orthogonal", 7),
    ("orthogonal", 8),
    ("orthogonal", 9),
)

# `rookposet verify` suites and the largest board each one checks.
ORACLE_SUITES = (
    ("covers-general", 7),
    ("covers-orthogonal", 8),
    ("kerov", 6),
    ("bruhat", 7),
    ("counts", 8),
    ("graded", 7),
)

# Boards past the materialization horizon, with the number of queries per
# board and kind.  There are about n/5 rooks, so the O(n^2) counting
# matrices cost more than the moves.  One query on n=48 costs about 50
# on n=16, so each board takes a similar share of the time, and the
# quantiles fall inside a board's group, not between two.
BEYOND_QUERIES = {16: 160, 24: 60, 32: 20, 48: 3}

# Chain walks start from n // 3 rooks; that keeps the chains long (up to
# about 100 steps on n=24) while every step stays cheap.
CHAIN_BOARDS = tuple(range(10, 25))
CHAIN_STARTS_PER_BOARD = 18  # per board and kind

KINDS = ("general", "orthogonal")


class Mismatch(Exception):
    """An operation returned a wrong answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# A fixed piece of interpreter work that measures how fast the machine
# runs right now, repeated every CALIBRATE_EVERY_S during a pass.
CALIBRATION_LOOP = 30_000
CALIBRATE_EVERY_S = 0.1


def calibration_s() -> float:
    """Seconds taken by CALIBRATION_LOOP steps of pure-Python arithmetic.

    A shared host changes speed by up to 2x within seconds, as neighbours
    load the cores, and this loop slows down with the package's code.  It
    runs no package code, so a change to the package cannot move it.
    """
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i * i
    return time.perf_counter() - start


@dataclass
class Recorder:
    """Latency, time and outcome of every operation in one pass, and the
    calibration samples taken around them."""

    # Flat arrays keep the memory these take small, so peak RSS does not
    # depend on how many passes fit in a run.
    latencies: array = field(default_factory=lambda: array("d"))
    midpoints: array = field(default_factory=lambda: array("d"))
    calibrations: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def calibrate(self) -> None:
        start = time.perf_counter()
        took = calibration_s()
        self.calibrations.append((start + took / 2, took))

    def time(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one operation; a raised exception marks it failed and gives None."""
        if not self.calibrations or time.perf_counter() - self.calibrations[-1][0] > CALIBRATE_EVERY_S:
            self.calibrate()
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # any exception is a failed operation
            self.fail(f"{fn.__name__}: {exc!r}")
            return None
        finally:
            end = time.perf_counter()
            self.latencies.append(end - start)
            self.midpoints.append((start + end) / 2)
            self.attempted += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def random_roots(rng: random.Random, n: int, k: int, kind: str) -> list[list[int]]:
    """k random non-attacking roots on the board of size n, as [row, col]."""
    rows: set[int] = set()
    cols: set[int] = set()
    roots = []
    while len(roots) < k:
        i = rng.randint(2, n)
        j = rng.randint(1, i - 1)
        if i in rows or j in cols:
            continue
        if kind == "orthogonal" and (i in cols or j in rows):
            continue
        rows.add(i)
        cols.add(j)
        roots.append([i, j])
    return sorted(roots)


def _placement(rp, n: int, roots: list[list[int]]):
    return rp.placements.validate_placement([tuple(r) for r in roots], n)


def _rank(rp, kind: str):
    return rp.kerov.rank_general if kind == "general" else rp.kerov.rank_orthogonal


# --- hasse: materialize the ladder and check gradedness -------------------


def hasse_generate(seed: int) -> list:
    """The ladder in a fixed order, whatever the seed: the order of the big
    allocations changes heap fragmentation, and with it peak RSS by 10%."""
    return [list(job) for job in HASSE_LADDER]


def hasse_job(rp, kind: str, n: int) -> None:
    poset = rp.poset.build_poset(n, kind)
    report = rp.poset.check_graded(poset)
    expect(
        len(poset) == COUNTS[kind][n] == rp.placements.count_placements(n, kind),
        f"{kind} n={n}: {len(poset)} elements, expected {COUNTS[kind][n]}",
    )
    expect(
        len(poset.hasse) == HASSE_EDGES[kind, n],
        f"{kind} n={n}: {len(poset.hasse)} Hasse edges, "
        f"expected {HASSE_EDGES[kind, n]}",
    )
    expect(report.is_graded, f"{kind} n={n}: not graded: {report.witness}")
    expect(report.rank_formula_ok, f"{kind} n={n}: rank formula disagrees")


def hasse_pass(rp, jobs: list, rec: Recorder) -> None:
    for kind, n in jobs:
        rec.time(hasse_job, rp, kind, n)


# --- oracle: the verify CLI in-process --------------------------------------


def expected_verify_lines(suite: str, max_n: int) -> list[str]:
    """The report `rookposet verify` must print, counted from OEIS numbers."""

    def total(seq, low, power=1):
        return sum(seq[n] ** power for n in range(low, max_n + 1))

    checked = {
        "counts": [("counts", total(BELL, 1) + total(TELEPHONE, 1))],
        "covers-general": [("covers-general", total(BELL, 3))],
        "covers-orthogonal": [("covers-orthogonal", total(TELEPHONE, 3))],
        "kerov": [
            ("kerov-order", total(BELL, 3, 2)),
            ("kerov-covers", total(BELL, 3, 2)),
        ],
        "bruhat": [("bruhat", total(TELEPHONE, 3, 2))],
        "graded": [
            ("graded-general", total(BELL, 2)),
            ("graded-orthogonal", total(TELEPHONE, 2)),
        ],
    }[suite]
    return [f"{name}: PASS ({count} checked)" for name, count in checked]


def oracle_generate(seed: int) -> list:
    """The suites in a fixed order, whatever the seed, as for hasse."""
    return [list(job) for job in ORACLE_SUITES]


def oracle_job(rp, suite: str, max_n: int) -> None:
    out = io.StringIO()
    # The CLI warns on stderr when a bound is above its default; that is expected.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = rp.cli.main(["verify", "--suite", suite, "--max-n", str(max_n)])
    expect(code == 0, f"verify {suite} {max_n}: exit code {code}")
    want = expected_verify_lines(suite, max_n)
    got = out.getvalue().splitlines()
    expect(got == want, f"verify {suite} {max_n}: printed {got}, expected {want}")


def oracle_pass(rp, jobs: list, rec: Recorder) -> None:
    for suite, max_n in jobs:
        rec.time(oracle_job, rp, suite, max_n)


# --- beyond-horizon: differential checks on large boards --------------------


def beyond_generate(seed: int) -> list:
    rng = random.Random(seed)
    queries = [
        [kind, n, random_roots(rng, n, round(n / 5), kind)]
        for n, count in BEYOND_QUERIES.items()
        for kind in KINDS
        for _ in range(count)
    ]
    rng.shuffle(queries)
    return queries


def beyond_prepare(rp, raw: list) -> list:
    return [(kind, _placement(rp, n, roots)) for kind, n, roots in raw]


def beyond_query(rp, kind: str, d) -> None:
    """Every cover move of d lowers the rank by one and lands strictly below
    d; for general d, its Kerov image is also an orthogonal cover."""
    if kind == "general":
        moves = rp.covers.moves_general(d)
        image_covers = rp.covers.predecessors_orthogonal(rp.kerov.kerov_map(d))
    else:
        moves = rp.covers.moves_orthogonal(d)
        image_covers = None
    expect(bool(moves), f"{d.to_text()!r}: no cover moves")
    rank = _rank(rp, kind)
    target = rank(d) - 1
    for move in moves:
        t = move.result
        where = f"{move.kind} on {d.to_text()!r} gave {t.to_text()!r}"
        expect(rank(t) == target, f"{where}: rank is not {target}")
        expect(
            rp.order.leq_placement(t, d) and not rp.order.leq_placement(d, t),
            f"{where}: not strictly below",
        )
        if image_covers is not None:
            expect(
                rp.kerov.kerov_map(t) in image_covers,
                f"{where}: Kerov image is not an orthogonal cover",
            )


def beyond_pass(rp, queries: list, rec: Recorder) -> None:
    for kind, d in queries:
        rec.time(beyond_query, rp, kind, d)


# --- chain-walk: saturated chains down to the empty placement ---------------


def chain_generate(seed: int) -> list:
    rng = random.Random(seed)
    starts = [
        [kind, n, random_roots(rng, n, n // 3, kind), rng.getrandbits(32)]
        for n in CHAIN_BOARDS
        for kind in KINDS
        for _ in range(CHAIN_STARTS_PER_BOARD)
    ]
    rng.shuffle(starts)
    return starts


def chain_prepare(rp, raw: list) -> list:
    return [
        (kind, _placement(rp, n, roots), walk_seed)
        for kind, n, roots, walk_seed in raw
    ]


def chain_step(predecessors, d, rng: random.Random):
    below = predecessors(d)
    expect(bool(below), f"{d.to_text()!r}: no predecessors")
    return rng.choice(sorted(below, key=lambda p: p.roots))


def chain_pass(rp, starts: list, rec: Recorder) -> None:
    """One operation is one step; a chain whose length differs from the rank
    of its start counts one more failure."""
    for kind, start, walk_seed in starts:
        try:
            length = _rank(rp, kind)(start)
        except Exception as exc:  # the rank itself is part of the check
            rec.fail(f"rank of {start.to_text()!r}: {exc!r}")
            continue
        predecessors = (
            rp.covers.predecessors_general
            if kind == "general"
            else rp.covers.predecessors_orthogonal
        )
        rng = random.Random(walk_seed)
        d, steps = start, 0
        while d is not None and d.roots and steps <= length:
            d = rec.time(chain_step, predecessors, d, rng)
            steps += 1
        if d is not None and (d.roots or steps != length):
            rec.fail(
                f"chain from {start.to_text()!r} ({kind}): {steps} steps to "
                f"{d.to_text()!r}, rank is {length}"
            )


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int], list]
    prepare: Callable[[Any, list], Any]
    run_pass: Callable[[Any, Any, Recorder], None]


def _as_is(rp, raw: list) -> list:
    return raw


WORKLOADS = {
    "hasse": Workload(hasse_generate, _as_is, hasse_pass),
    "oracle": Workload(oracle_generate, _as_is, oracle_pass),
    "beyond-horizon": Workload(beyond_generate, beyond_prepare, beyond_pass),
    "chain-walk": Workload(chain_generate, chain_prepare, chain_pass),
}

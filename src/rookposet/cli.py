"""Command-line interface.

Exit codes: 0 on success (and on verified suites), 1 when a verify
suite finds a discrepancy, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .covers import moves_general, moves_orthogonal
from .errors import RookError
from .kerov import kerov_map, rank_general, rank_orthogonal
from .order import counting_entries, involution_of, leq_placement
from .placements import (
    DEFAULT_CAP,
    enumerate_placements,
    parse_placement,
    render_board,
    roots_to_text,
)
from .poset import build_poset, export_dot, poset_to_json
from .verify import DEFAULT_BOUNDS, SUITES, run_suite


def _matrix_lines(title: str, entries) -> list[str]:
    lines = [title + ":"]
    for row in entries:
        lines.append("  " + " ".join(str(v) for v in row))
    return lines


def cmd_enumerate(args) -> int:
    elements = enumerate_placements(args.n, args.kind, cap=args.cap)
    if args.format == "json":
        payload = {
            "n": args.n,
            "kind": args.kind,
            "count": len(elements),
            "placements": [[[r.row, r.col] for r in e.roots] for e in elements],
        }
        print(json.dumps(payload))
    else:
        for e in elements:
            print(e.to_text())
    return 0


def cmd_compare(args) -> int:
    a = parse_placement(args.a, args.n)
    b = parse_placement(args.b, args.n)
    if not args.summary:
        # both counting matrices, zero on and above the diagonal
        matrices = np.zeros((2, args.n, args.n), dtype=int)
        below = np.tril_indices(args.n, -1)
        matrices[:, below[0], below[1]] = counting_entries((a, b)).T
        for name, matrix in zip(("R(a)", "R(b)"), matrices.tolist()):
            for line in _matrix_lines(name, matrix):
                print(line)
    le, ge = leq_placement(a, b), leq_placement(b, a)
    if le and ge:
        print("a == b")
    elif le:
        print("a <= b")
    elif ge:
        print("a >= b")
    else:
        print("a and b are incomparable")
    return 0


def cmd_covers(args) -> int:
    d = parse_placement(args.d, args.n)
    moves = moves_general(d) if args.kind == "general" else moves_orthogonal(d)
    if args.format == "json":
        print(json.dumps([m.to_json() for m in moves]))
        return 0
    for m in moves:
        print(f"{m.kind}: {roots_to_text(m.source)} -> "
              f"{roots_to_text(m.target) or '-'} gives {m.result.to_text()}")
    distinct = {m.result for m in moves}
    print(f"{len(moves)} moves, {len(distinct)} distinct predecessors")
    return 0


def cmd_hasse(args) -> int:
    poset = build_poset(args.n, args.kind, cap=args.cap)
    if args.format == "json":
        text = json.dumps(poset_to_json(poset))
    else:
        text = export_dot(poset, include_ranks=args.ranks)
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise RookError(f"cannot write {args.out}: {exc.strerror}") from exc
        with fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def cmd_kerov(args) -> int:
    d = parse_placement(args.d, args.n)
    image = kerov_map(d)
    print(image.to_text())
    print(json.dumps(involution_of(image).to_json()))
    return 0


def cmd_rank(args) -> int:
    d = parse_placement(args.d, args.n)
    value = rank_general(d) if args.kind == "general" else rank_orthogonal(d)
    print(value)
    return 0


def cmd_render(args) -> int:
    d = parse_placement(args.d, args.n)
    print(render_board(d, symbol="⊗" if args.unicode else "X"))
    return 0


def cmd_verify(args) -> int:
    default = min(DEFAULT_BOUNDS[key] for key in SUITES[args.suite])
    if args.max_n is not None and args.max_n > default:
        print(
            f"warning: --max-n {args.max_n} is above the default {default}; "
            f"runtime grows steeply with board size",
            file=sys.stderr,
        )
    results = run_suite(args.suite, args.max_n)
    for res in results:
        print(res.summary())
    return 0 if all(res.ok for res in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookposet",
        description="Posets of non-attacking rook placements on the staircase board.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=fn)
        return p

    p = add("enumerate", cmd_enumerate, "list all placements of a board")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["general", "orthogonal"], default="general")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = add("compare", cmd_compare, "compare two placements in dominance order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--summary", action="store_true", help="print only the verdict")

    p = add("covers", cmd_covers, "cover moves and predecessors of a placement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--kind", choices=["general", "orthogonal"], default="general")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("hasse", cmd_hasse, "materialize a full poset as DOT or JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["general", "orthogonal"], default="general")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument("--ranks", action="store_true", help="annotate nodes with ranks")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = add("kerov", cmd_kerov, "image of a placement under the doubling map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", required=True)

    p = add("rank", cmd_rank, "rank of a placement in its poset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["general", "orthogonal"], default="general")
    p.add_argument("--d", required=True)

    p = add("render", cmd_render, "draw a placement on its board")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--unicode", action="store_true")

    p = add("verify", cmd_verify, "run an exhaustive self-check suite")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--max-n", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

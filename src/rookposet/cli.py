"""Command-line interface.

Exit codes: 0 on success (and on verified suites, and when the reader
of stdout stops early), 1 when a verify suite finds a discrepancy, 2 on
usage or input errors, a stdout that cannot be written included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import get_args

from .covers import moves_general, moves_orthogonal
from .errors import RookError
from .kerov import kerov_map, rank_general, rank_orthogonal
from .order import counting_entries, involution_of, leq_placement
from .placements import (
    DEFAULT_CAP,
    Kind,
    enumerate_placements,
    parse_placement,
    render_board,
    roots_to_text,
)
from .poset import build_poset, export_dot, poset_to_json
from .verify import DEFAULT_BOUNDS, SUITES, run_suite


def cmd_enumerate(args) -> int:
    elements = enumerate_placements(args.n, args.kind, cap=args.cap)
    if args.format == "json":
        payload = {
            "n": args.n,
            "kind": args.kind,
            "count": len(elements),
            "placements": [e.to_json()["roots"] for e in elements],
        }
        print(json.dumps(payload))
    else:
        for e in elements:
            print(e.to_text())
    return 0


def cmd_compare(args) -> int:
    a, b = args.a, args.b
    if not args.summary:
        # both counting matrices: board row i + 1 holds the i entries from
        # i(i - 1)/2 on, then zeros on and above the diagonal
        for name, entries in zip(("R(a)", "R(b)"), counting_entries((a, b)).T.tolist()):
            print(name + ":")
            for i in range(args.n):
                row = entries[i * (i - 1) // 2 : i * (i + 1) // 2] + [0] * (args.n - i)
                print("  " + " ".join(map(str, row)))
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
    d = args.d
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
        text = json.dumps(poset_to_json(poset)) + "\n"
    else:
        text = export_dot(poset, include_ranks=args.ranks)
    if args.out:
        # a full device fails the write or the close, not the open
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise RookError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        print(text, end="")
    return 0


def cmd_kerov(args) -> int:
    image = kerov_map(args.d)
    print(image.to_text())
    print(json.dumps(involution_of(image).to_json()))
    return 0


def cmd_rank(args) -> int:
    print(rank_general(args.d) if args.kind == "general" else rank_orthogonal(args.d))
    return 0


def cmd_render(args) -> int:
    print(render_board(args.d, symbol="⊗" if args.unicode else "X"))
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

    def option(*names, **kwargs) -> argparse.ArgumentParser:
        # one option as a parent parser, for the subcommands that share it
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    n = option("--n", type=int, required=True)
    kind = option("--kind", choices=get_args(Kind), default="general")
    d = option("--d", required=True)
    cap = option("--cap", type=int, default=DEFAULT_CAP)
    text_or_json = option("--format", choices=["text", "json"], default="text")

    def add(name, fn, helptext, *parents):
        p = sub.add_parser(name, help=helptext, parents=parents)
        p.set_defaults(func=fn)
        return p

    add("enumerate", cmd_enumerate, "list all placements of a board",
        n, kind, text_or_json, cap)

    p = add("compare", cmd_compare, "compare two placements in dominance order", n)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--summary", action="store_true", help="print only the verdict")

    add("covers", cmd_covers, "cover moves and predecessors of a placement",
        n, d, kind, text_or_json)

    p = add("hasse", cmd_hasse, "materialize a full poset as DOT or JSON", n, kind, cap)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument("--ranks", action="store_true", help="annotate nodes with ranks")

    add("kerov", cmd_kerov, "image of a placement under the doubling map", n, d)
    add("rank", cmd_rank, "rank of a placement in its poset", n, kind, d)

    p = add("render", cmd_render, "draw a placement on its board", n, d)
    p.add_argument("--unicode", action="store_true")

    p = add("verify", cmd_verify, "run an exhaustive self-check suite")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--max-n", type=int, default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call of main, not at
    import, and reused by every later call in the process; parsing leaves
    it as it was, so each call reads as the first."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for key in ("a", "b", "d"):  # the placements, read on the board of --n
            if hasattr(args, key):
                setattr(args, key, parse_placement(getattr(args, key), args.n))
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except RookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the reader stopped early, as `rookposet enumerate | head` does
        # (exit 0), or stdout cannot take the output, as on a full device
        # (an input error): either way what is still buffered goes to
        # devnull, so that the interpreter's final flush stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import rookposet
import rookposet.cli as cli_module
import rookposet.order as order_module
from rookposet import CapError, build_poset
from rookposet.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert out.split("\n")[:-1] == ["", "2,1", "2,1;3,2", "3,1", "3,2"]


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--kind", "orthogonal",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["placements"][0] == []


def _child(*argv, stdout) -> subprocess.Popen:
    """The CLI in a process of its own, writing to `stdout`: main() in
    this process writes to a capture, not to a file descriptor."""
    src = os.path.dirname(os.path.dirname(rookposet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen(
        [sys.executable, "-m", "rookposet.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


def test_enumerate_into_a_pipe_closed_after_one_line_exits_quietly():
    # as `rookposet enumerate --n 9 | head -1`: 382 kB of text, far more
    # than a pipe holds, so the writes go on after the reader has gone
    child = _child("enumerate", "--n", "9", stdout=subprocess.PIPE)
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert first == b"\n" and err == b""  # the empty placement comes first


def test_compare_prints_verdict_and_matrices(capsys):
    code, out, _ = run(capsys, "compare", "--n", "4", "--a", "2,1;4,2", "--b", "3,1;4,2")
    assert code == 0
    assert "a <= b" in out
    assert "R(a):" in out and "R(b):" in out
    assert "  1 2 0 0" in out  # third row of the right matrix
    assert out == (
        "R(a):\n  0 0 0 0\n  1 0 0 0\n  0 1 0 0\n  0 1 1 0\n"
        "R(b):\n  0 0 0 0\n  1 0 0 0\n  1 2 0 0\n  0 1 1 0\n"
        "a <= b\n"
    )


@pytest.mark.parametrize(
    "a,b,verdict",
    [
        ("3000,1", "2999,2", "a >= b"),
        ("2999,2", "3000,1", "a <= b"),
        ("2999,2", "2999,2", "a == b"),
        ("2,1", "3000,2999", "a and b are incomparable"),
    ],
)
def test_compare_summary_prints_only_the_verdict_on_a_large_board(
    capsys, a, b, verdict
):
    code, out, _ = run(
        capsys, "compare", "--n", "3000", "--a", a, "--b", b, "--summary"
    )
    assert code == 0
    assert out == verdict + "\n"


def test_compare_incomparable(capsys):
    code, out, _ = run(capsys, "compare", "--n", "3", "--a", "2,1", "--b", "3,2")
    assert code == 0
    assert "incomparable" in out


def test_covers_lists_moves_and_summary(capsys):
    code, out, _ = run(capsys, "covers", "--n", "8", "--d", "3,1;6,2;7,3;5,4;8,5")
    assert code == 0
    assert "remove: 5,4 -> - gives 3,1;6,2;7,3;8,5" in out
    assert "5 distinct predecessors" in out


def test_covers_json(capsys):
    code, out, _ = run(capsys, "covers", "--n", "4", "--kind", "orthogonal",
                       "--d", "4,1", "--format", "json")
    assert code == 0
    moves = json.loads(out)
    assert {m["result"] for m in moves} == {"3,1", "4,2", "2,1;4,3"}


def test_kerov_prints_image_and_involution(capsys):
    code, out, _ = run(capsys, "kerov", "--n", "8", "--d", "3,1;6,2;7,3;5,4;8,6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "4,1;8,7;10,3;12,5;14,11"
    assert json.loads(lines[1]) == [4, 2, 10, 1, 12, 6, 8, 7, 9, 3, 14, 5, 13, 11]


def test_rank_of_empty_placement(capsys):
    code, out, _ = run(capsys, "rank", "--n", "3", "--kind", "general", "--d", "")
    assert code == 0
    assert out.strip() == "0"


def test_rank_on_the_one_cell_board(capsys):
    code, out, _ = run(capsys, "rank", "--n", "1", "--d", "")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "hasse", "--n", "1", "--ranks")
    assert code == 0
    assert '0 [label="", rank=0];' in out


def test_rank_orthogonal(capsys):
    code, out, _ = run(capsys, "rank", "--n", "4", "--kind", "orthogonal",
                       "--d", "3,2;4,1")
    assert code == 0
    assert out.strip() == "4"


def test_render(capsys):
    code, out, _ = run(capsys, "render", "--n", "3", "--d", "3,1")
    assert code == 0
    assert out == "...\n...\nX..\n"


def test_render_unicode(capsys):
    code, out, _ = run(capsys, "render", "--n", "2", "--d", "2,1", "--unicode")
    assert code == 0
    assert out == "..\n⊗.\n"


def test_hasse_dot_stdout(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "2")
    assert code == 0
    assert out.startswith('digraph "general_2" {')
    assert "0 -> 1;" in out


def test_hasse_json_to_file(tmp_path, capsys):
    target = tmp_path / "poset.json"
    code, out, _ = run(capsys, "hasse", "--n", "4", "--kind", "orthogonal",
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert len(payload["elements"]) == 10
    assert payload["kind"] == "orthogonal"


def test_hasse_to_an_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, "hasse", "--n", "3", "--out", str(target))
    assert code == 2
    assert out == ""
    assert str(target) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_hasse_to_a_full_device_exits_2(capsys):
    # the open succeeds; the write or the close fails
    code, out, err = run(capsys, "hasse", "--n", "3", "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err == "error: cannot write /dev/full: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "8"),
        ("hasse", "--n", "3"),
        # exit 1 would report a discrepancy that the suite did not find
        ("verify", "--suite", "counts", "--max-n", "3"),
    ],
    ids=["enumerate", "hasse", "verify"],
)
def test_a_stdout_that_cannot_be_written_exits_2(argv):
    with open("/dev/full", "w") as full:
        child = _child(*argv, stdout=full)
    _, err = child.communicate(timeout=60)
    assert child.returncode == 2
    assert err == b"error: cannot write to stdout: No space left on device\n"


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-n", "4")
    assert code == 0
    assert "counts: PASS" in out


def test_verify_warns_above_default_bound(capsys):
    code, out, err = run(capsys, "verify", "--suite", "counts", "--max-n", "8")
    assert code == 0
    assert "warning" in err
    # bruhat defaults to 8, so the same bound there is no warning
    code, out, err = run(capsys, "verify", "--suite", "bruhat", "--max-n", "8")
    assert code == 0
    assert err == ""


def test_verify_all_at_the_default_bounds(capsys):
    # R(n) has Bell(n) elements and I(n) the telephone number t(n)
    bell = dict(enumerate([1, 1, 2, 5, 15, 52, 203, 877, 4140]))
    tel = dict(enumerate([1, 1, 2, 4, 10, 26, 76, 232, 764]))

    def total(seq, low, high, power=1):
        return sum(seq[n] ** power for n in range(low, high + 1))

    assert total(bell, 3, 7, 2) == 813292 and total(tel, 3, 8, 2) == 644088
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        f"counts: PASS ({total(bell, 1, 7) + total(tel, 1, 7)} checked)",
        f"covers-general: PASS ({total(bell, 3, 6)} checked)",
        f"covers-orthogonal: PASS ({total(tel, 3, 7)} checked)",
        f"kerov-order: PASS ({total(bell, 3, 7, 2)} checked)",
        f"kerov-covers: PASS ({total(bell, 3, 7, 2)} checked)",
        f"graded-general: PASS ({total(bell, 2, 6)} checked)",
        f"graded-orthogonal: PASS ({total(tel, 2, 7)} checked)",
        f"bruhat: PASS ({total(tel, 3, 8, 2)} checked)",
    ]


def test_verify_warns_above_default_bound_for_graded(capsys):
    # graded-general defaults to 6, so 7 is above it even though
    # graded-orthogonal defaults to 7
    code, out, err = run(capsys, "verify", "--suite", "graded", "--max-n", "7")
    assert code == 0
    assert "above the default 6" in err
    assert "graded-general: PASS (1154 checked)" in out


@pytest.mark.parametrize("suite,max_n", [("counts", "0"), ("graded", "1"), ("kerov", "2")])
def test_verify_bound_below_smallest_board_exits_2(capsys, suite, max_n):
    # a bound that leaves a suite no board to check is refused, not a PASS
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert f"max_n={max_n} checks none" in err


def test_bad_placement_token_exits_2(capsys):
    code, _, err = run(capsys, "rank", "--n", "3", "--kind", "general", "--d", "3;1")
    assert code == 2
    assert "'3'" in err or "3;1" in err


def test_attacking_placement_exits_2(capsys):
    code, _, err = run(capsys, "compare", "--n", "4", "--a", "3,1;3,2", "--b", "")
    assert code == 2
    assert "share row" in err


def test_an_int_literal_that_is_not_digits_exits_2(capsys):
    code, out, err = run(capsys, "rank", "--n", "10", "--d", "1_0,1")
    assert (code, out) == (2, "")
    assert err == "error: bad root token '1_0,1': expected integers\n"


@pytest.mark.parametrize(
    "argv", [["hasse", "--n", "2500"], ["enumerate", "--n", "9000", "--kind", "orthogonal"]]
)
def test_a_board_past_the_cap_exits_2_with_a_short_message(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: board {argv[2]} has more than 1000000 placements")
    assert len(err) < 200


def test_missing_required_argument_exits_2(capsys):
    assert run(capsys, "enumerate")[0] == 2


def test_unknown_suite_exits_2(capsys):
    assert run(capsys, "verify", "--suite", "nope")[0] == 2


class _RefusingNumpy:
    """numpy, except that zeros() refuses the relation of R(5): 52 rows of
    one uint64 word, as numpy refuses an array the OS will not give it."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def zeros(shape, dtype=float, **kwargs):
        if shape == (52, 1) and np.dtype(dtype) == np.uint64:
            raise MemoryError("Unable to allocate 416. B for an array")
        return np.zeros(shape, dtype, **kwargs)


def test_a_relation_the_os_cannot_map_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(order_module, "np", _RefusingNumpy())
    message = "cannot allocate 52 rows x 1 words (416 bytes)"
    with pytest.raises(CapError, match=f"^{re.escape(message)}$"):
        build_poset(5)
    assert run(capsys, "hasse", "--n", "5") == (2, "", f"error: {message}\n")


_KIND = ("general", ["general", "orthogonal"], False, None)
_REQUIRED_INT = (None, None, True, "int")
_REQUIRED_TEXT = (None, None, True, None)
# subcommand -> option -> (default, choices, required, type)
OPTIONS = {
    "enumerate": {
        "--n": _REQUIRED_INT,
        "--kind": _KIND,
        "--format": ("text", ["text", "json"], False, None),
        "--cap": (10**6, None, False, "int"),
    },
    "compare": {
        "--n": _REQUIRED_INT,
        "--a": _REQUIRED_TEXT,
        "--b": _REQUIRED_TEXT,
        "--summary": (False, None, False, None),
    },
    "covers": {
        "--n": _REQUIRED_INT,
        "--d": _REQUIRED_TEXT,
        "--kind": _KIND,
        "--format": ("text", ["text", "json"], False, None),
    },
    "hasse": {
        "--n": _REQUIRED_INT,
        "--kind": _KIND,
        "--format": ("dot", ["dot", "json"], False, None),
        "--out": (None, None, False, None),
        "--ranks": (False, None, False, None),
        "--cap": (10**6, None, False, "int"),
    },
    "kerov": {"--n": _REQUIRED_INT, "--d": _REQUIRED_TEXT},
    "rank": {"--n": _REQUIRED_INT, "--kind": _KIND, "--d": _REQUIRED_TEXT},
    "render": {
        "--n": _REQUIRED_INT,
        "--d": _REQUIRED_TEXT,
        "--unicode": (False, None, False, None),
    },
    "verify": {
        "--suite": (
            None,
            ["counts", "covers-general", "covers-orthogonal", "kerov", "graded",
             "bruhat", "all"],
            True,
            None,
        ),
        "--max-n": (None, None, False, "int"),
    },
}


def _subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_every_subcommand_has_its_pinned_options():
    found = {
        name: {
            action.option_strings[0]: (
                action.default,
                None if action.choices is None else list(action.choices),
                action.required,
                getattr(action.type, "__name__", None),
            )
            for action in sub._actions
            if "--help" not in action.option_strings
        }
        for name, sub in _subcommands().items()
    }
    assert found == OPTIONS


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_subcommand_help_exits_0(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: rookposet {command}")


def test_calls_in_one_process_print_what_fresh_processes_print(monkeypatch, capsys):
    # one parser serves every call after the first, a usage error and
    # --help among them; COLUMNS fixes the help's width on both sides
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("enumerate",),
        ("--help",),
        ("verify", "--suite", "counts", "--max-n", "3"),
        ("rank", "--n", "8", "--kind", "general", "--d", "3,1;6,2;7,3;5,4;8,5"),
    ]
    built = []
    monkeypatch.setattr(cli_module, "build_parser", lambda: built.append(1) or build_parser())
    cli_module._parser.cache_clear()
    try:
        got = [run(capsys, *argv) for argv in calls]
    finally:
        cli_module._parser.cache_clear()
    assert built == [1]
    want = []
    for argv in calls:
        child = _child(*argv, stdout=subprocess.PIPE)
        out, err = child.communicate(timeout=60)
        want.append((child.returncode, out.decode(), err.decode()))
    assert got == want
    assert [code for code, _, _ in got] == [2, 0, 0, 0]
    assert got[3][1] == "19\n"


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import rookposet.cli\n"
        "print(len(built))\n"
    )
    src = os.path.dirname(os.path.dirname(rookposet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=60, check=True)
    assert done.stdout == b"0\n"

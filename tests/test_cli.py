from __future__ import annotations

import json

import pytest

from rookposet.cli import main


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


def test_compare_prints_verdict_and_matrices(capsys):
    code, out, _ = run(capsys, "compare", "--n", "4", "--a", "2,1;4,2", "--b", "3,1;4,2")
    assert code == 0
    assert "a <= b" in out
    assert "R(a):" in out and "R(b):" in out
    assert "  1 2 0 0" in out  # third row of the right matrix


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


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-n", "4")
    assert code == 0
    assert "counts: PASS" in out


def test_verify_warns_above_default_bound(capsys):
    code, out, err = run(capsys, "verify", "--suite", "bruhat", "--max-n", "7")
    assert code == 0
    assert "warning" in err


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


def test_missing_required_argument_exits_2(capsys):
    assert run(capsys, "enumerate")[0] == 2


def test_unknown_suite_exits_2(capsys):
    assert run(capsys, "verify", "--suite", "nope")[0] == 2

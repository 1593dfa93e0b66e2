"""Failure output of the verify suites, with a disagreement injected."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

import rookposet.verify as verify_module
from rookposet import RookError, involution_of, kerov_map, parse_placement


def test_kerov_order_reports_every_disagreeing_pair(monkeypatch):
    # Send the maximum '3,1' of R(3) to the image of the minimum ''.  Of
    # the m = 5 elements, the maximum then compares wrongly with every
    # other one from below (m - 1 pairs, '3,1' vs x) and with each of
    # the m - 2 elements between the extrema from above (x vs '3,1').
    top, bottom = parse_placement("3,1", 3), parse_placement("", 3)
    monkeypatch.setattr(
        verify_module, "kerov_map", lambda d: kerov_map(bottom if d == top else d)
    )
    res = verify_module.verify_kerov_order(3)
    assert not res.ok
    assert res.summary().startswith("kerov-order: FAIL (25 checked)")
    assert len(res.failures) == 7
    # row-major order: '2,1' is the first element between the extrema
    assert res.failures[0] == "n=3: order disagrees on '2,1' vs '3,1'"
    assert "n=3: order disagrees on '3,1' vs ''" in res.failures


def test_bruhat_reports_the_disagreeing_pair(monkeypatch):
    # Deny exactly one relation of I(3): the minimum below the maximum.
    low = involution_of(parse_placement("", 3))
    high = involution_of(parse_placement("3,1", 3))
    real = verify_module.bruhat_matrix

    def denying(perms):
        leq = real(perms)
        if low in perms and high in perms:
            leq[perms.index(low), perms.index(high)] = False
        return leq

    monkeypatch.setattr(verify_module, "bruhat_matrix", denying)
    res = verify_module.verify_bruhat(3)
    assert not res.ok
    assert res.summary() == (
        "bruhat: FAIL (16 checked)\n"
        "  n=3: '' vs '3,1' disagree with Bruhat order"
    )


@pytest.mark.parametrize(
    "change,t",
    [
        # R(3) is '' < '2,1', '3,2' < '2,1;3,2' < '3,1': drop the one cover
        # below the maximum, or add a non-cover below it
        (lambda covers, t: covers - {t}, "2,1;3,2"),
        (lambda covers, t: covers | {t}, ""),
    ],
    ids=["missing", "extra"],
)
def test_kerov_covers_reports_a_wrong_cover(monkeypatch, change, t):
    top, wrong = parse_placement("3,1", 3), parse_placement(t, 3)
    real = verify_module.predecessors_general
    monkeypatch.setattr(
        verify_module,
        "predecessors_general",
        lambda d: change(real(d), wrong) if d == top else real(d),
    )
    res = verify_module.verify_kerov_covers(3)
    assert res.summary() == (
        "kerov-covers: FAIL (25 checked)\n"
        f"  n=3: cover disagrees on {t!r} below '3,1'"
    )


def test_kerov_covers_refuses_a_map_that_is_not_injective(monkeypatch):
    # With '3,1' and '' sharing an image, a wrong cover could hide behind
    # the other element of the same image, so the board is not checked.
    top, bottom = parse_placement("3,1", 3), parse_placement("", 3)
    monkeypatch.setattr(
        verify_module, "kerov_map", lambda d: kerov_map(bottom if d == top else d)
    )
    res = verify_module.verify_kerov_covers(4)
    assert res.summary() == (
        "kerov-covers: FAIL (250 checked)\n"
        "  n=3: the doubling map is not injective on R(3)"
    )


@pytest.mark.parametrize(
    "change,checked,failures",
    [
        # one element twice: the count, the known count and the repeat fail
        (
            lambda elements: elements + elements[:1],
            7,
            [
                "general n=2: enumerated 3, counted 2",
                "general n=2: enumerated 3, expected 2",
                "general n=2: enumeration repeats an element",
            ],
        ),
        # the last element replaced by the first: the count holds, the set not
        (
            lambda elements: elements[:-1] + elements[:1],
            6,
            [
                "general n=2: enumeration repeats an element",
                "general n=2: subset-filter oracle disagrees",
            ],
        ),
    ],
    ids=["repeated", "replaced"],
)
def test_counts_reports_a_wrong_enumeration(monkeypatch, change, checked, failures):
    real = verify_module.enumerate_placements
    monkeypatch.setattr(
        verify_module,
        "enumerate_placements",
        lambda n, kind: change(real(n, kind)) if (n, kind) == (2, "general") else real(n, kind),
    )
    res = verify_module.verify_counts(2)
    assert res.summary() == "\n".join(
        [f"counts: FAIL ({checked} checked)"] + ["  " + f for f in failures]
    )


@pytest.mark.parametrize(
    "kind,checked,missing",
    [("general", 5, "['2,1;3,2']"), ("orthogonal", 4, "['2,1', '3,2']")],
)
def test_covers_reports_missing_and_extra_covers(monkeypatch, kind, checked, missing):
    # Below the maximum '3,1' of R(3) or I(3), report the minimum '' as
    # its only cover: its real covers go missing and '' is extra.
    top, bottom = parse_placement("3,1", 3), parse_placement("", 3)
    name = f"predecessors_{kind}"
    real = getattr(verify_module, name)
    monkeypatch.setattr(verify_module, name, lambda d: {bottom} if d == top else real(d))
    res = getattr(verify_module, f"verify_covers_{kind}")(3)
    assert res.summary() == (
        f"covers-{kind}: FAIL ({checked} checked)\n"
        f"  {kind} n=3 D='3,1': missing {missing}, extra ['']"
    )


@pytest.mark.parametrize("kind,checked", [("general", 7), ("orthogonal", 6)])
@pytest.mark.parametrize(
    "change,failure",
    [
        ({"is_graded": False, "witness": "chains of 2 and 3"}, "not graded: chains of 2 and 3"),
        ({"rank_formula_ok": False}, "Hasse rank disagrees with formula"),
    ],
    ids=["not-graded", "formula"],
)
def test_graded_reports_a_failed_report(monkeypatch, kind, checked, change, failure):
    real = verify_module.check_graded
    monkeypatch.setattr(
        verify_module,
        "check_graded",
        lambda poset: replace(real(poset), **change) if poset.n == 3 else real(poset),
    )
    res = getattr(verify_module, f"verify_graded_{kind}")(3)
    assert res.summary() == f"graded-{kind}: FAIL ({checked} checked)\n  {kind} n=3: {failure}"


@pytest.mark.parametrize("count", [10, 12])
def test_summary_shows_ten_failures_and_counts_the_rest(count):
    res = verify_module.SuiteResult("x", 99, [f"failure {i}" for i in range(count)])
    lines = res.summary().split("\n")
    assert lines[:11] == ["x: FAIL (99 checked)"] + [f"  failure {i}" for i in range(10)]
    assert lines[11:] == ([f"  ... and {count - 10} more"] if count > 10 else [])


@pytest.mark.parametrize(
    "args,message",
    [
        (("bogus",), "unknown suite 'bogus'; choose from ['all', 'bruhat', "),
        ((None,), "unknown suite None"),
        (("counts", "3"), "counts needs an int bound, got '3'"),
        (("counts", 2.5), "counts needs an int bound, got 2.5"),
        (("graded", True), "graded-general needs an int bound, got True"),
    ],
)
def test_run_suite_refuses_bad_input(args, message):
    with pytest.raises(RookError, match=f"^{re.escape(message)}"):
        verify_module.run_suite(*args)


@pytest.mark.slow
@pytest.mark.parametrize("suite", ["covers-general", "graded"])
def test_suites_pass_on_boards_of_nine(suite):
    results = verify_module.run_suite(suite, 9)
    assert results and all(res.ok and res.checked for res in results)

"""Failure output of the verify suites, with a disagreement injected."""

from __future__ import annotations

import pytest

import rookposet.verify as verify_module
from rookposet import involution_of, kerov_map, parse_placement


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


@pytest.mark.slow
@pytest.mark.parametrize("suite", ["covers-general", "graded"])
def test_suites_pass_on_boards_of_nine(suite):
    results = verify_module.run_suite(suite, 9)
    assert results and all(res.ok and res.checked for res in results)

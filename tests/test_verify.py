"""Failure output of the verify suites, with a disagreement injected."""

from __future__ import annotations

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
    real = verify_module.bruhat_leq
    monkeypatch.setattr(
        verify_module, "bruhat_leq", lambda u, v: real(u, v) and (u, v) != (low, high)
    )
    res = verify_module.verify_bruhat(3)
    assert not res.ok
    assert res.summary() == (
        "bruhat: FAIL (16 checked)\n"
        "  n=3: '' vs '3,1' disagree with Bruhat order"
    )

"""Tests for vector clocks."""

from __future__ import annotations

from repro.net.vectorclock import VectorClock


def test_tick_and_get():
    vc = VectorClock()
    assert vc.get("a") == 0
    vc.tick("a")
    vc.tick("a")
    vc.tick("b")
    assert vc.get("a") == 2
    assert vc.get("b") == 1


def test_partial_order():
    a = VectorClock({"p": 1})
    b = VectorClock({"p": 2})
    assert a <= b
    assert a < b
    assert not b <= a


def test_concurrency():
    a = VectorClock({"p": 1})
    b = VectorClock({"q": 1})
    assert a.concurrent_with(b)
    assert not a <= b and not b <= a


def test_dominates_with_missing_entries():
    big = VectorClock({"p": 2, "q": 1})
    small = VectorClock({"p": 1})
    assert big.dominates(small)
    assert not small.dominates(big)


def test_empty_clock_dominated_by_all():
    assert VectorClock().dominates(VectorClock())
    assert VectorClock({"p": 1}).dominates(VectorClock())


def test_merge_is_pointwise_max():
    a = VectorClock({"p": 3, "q": 1})
    b = VectorClock({"q": 4, "r": 2})
    a.merge(b)
    assert a == VectorClock({"p": 3, "q": 4, "r": 2})


def test_merged_does_not_mutate():
    a = VectorClock({"p": 1})
    b = VectorClock({"q": 1})
    c = a.merged(b)
    assert a == VectorClock({"p": 1})
    assert c == VectorClock({"p": 1, "q": 1})


def test_copy_is_independent():
    a = VectorClock({"p": 1})
    b = a.copy()
    b.tick("p")
    assert a.get("p") == 1
    assert b.get("p") == 2


def test_equality_ignores_zero_entries():
    assert VectorClock({"p": 0}) == VectorClock()


def test_hashable():
    assert hash(VectorClock({"p": 1})) == hash(VectorClock({"p": 1}))
    assert len({VectorClock({"p": 1}), VectorClock({"p": 1})}) == 1


def test_heads_ride_beside_the_components():
    a = VectorClock({"p": 2, "q": 1})
    a.heads = (("p", 2),)
    b = VectorClock({"q": 3})
    b.heads = (("q", 3),)
    assert a.missing(b) == "q" and b.missing(a) == "p"
    both = a.merged(b)
    assert both.heads == (("p", 2), ("q", 3))
    assert both.missing(a) is None and both.missing(b) is None
    assert both.merged(a).heads == both.heads      # a's head is shared, kept once
    assert a.copy().heads == ()                    # a copy is a new clock
    assert a == VectorClock({"p": 2, "q": 1})      # heads take no part in ==

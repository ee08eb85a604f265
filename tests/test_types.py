"""Tests for node ids and proxy references (``repro.types``)."""

from __future__ import annotations

import pytest

from repro.types import ProxyRef, is_mss, mh_id, mss_id, server_id


def test_node_id_builders_and_predicates():
    assert mss_id("a") == "mss:a" and is_mss(mss_id("a"))
    assert mh_id("b") == "mh:b" and server_id("c") == "srv:c"
    assert not is_mss(mh_id("b")) and not is_mss(server_id("c"))


def test_proxy_ref_is_hashable_value_object():
    a = ProxyRef(mss=mss_id("x"), proxy_id="p1")
    b = ProxyRef(mss=mss_id("x"), proxy_id="p1")
    assert a == b and hash(a) == hash(b)
    assert str(a) == "mss:x/p1"
    with pytest.raises(Exception):
        a.mss = mss_id("y")  # frozen


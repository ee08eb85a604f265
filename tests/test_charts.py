"""Tests for the plain-text chart helpers."""

from __future__ import annotations

import pytest

from repro.analysis.charts import curve, hbar_chart


def test_hbar_scales_to_peak():
    text = hbar_chart({"a": 10.0, "b": 5.0, "c": 0.0}, width=10, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].count("#") == 10
    assert lines[2].count("#") == 5
    assert lines[3].count("#") == 0
    assert "10" in lines[1]


def test_hbar_empty_and_invalid():
    assert "(no data)" in hbar_chart({})
    with pytest.raises(ValueError):
        hbar_chart({"a": 1.0}, width=0)


def test_hbar_all_zero():
    text = hbar_chart({"a": 0.0, "b": 0.0}, width=8)
    assert "#" not in text


def test_curve_places_extremes():
    text = curve([(1.0, 0.0), (10.0, 100.0)], width=10, height=5, title="C")
    lines = text.splitlines()
    assert lines[0] == "C"
    body = [l for l in lines if l.startswith("|")]
    assert body[0].strip("|").rstrip()[-1] == "*"   # max y at top-right
    assert body[-1].lstrip("|")[0] == "*"           # min y at bottom-left


def test_curve_log_x():
    text = curve([(0.1, 1.0), (1.0, 2.0), (10.0, 3.0)], log_x=True)
    assert "log10(x): -1 .. 1" in text


def test_curve_empty():
    assert curve([], title="empty") == "empty"

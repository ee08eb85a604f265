"""Tests reproducing the paper's figures (see DESIGN.md: FIG1/FIG3/FIG4)."""

from __future__ import annotations

import pytest

from repro.analysis.sequence import subsequence_present
from repro.experiments.scenarios import (
    FIG3_EXPECTED_KINDS,
    FIG4_EXPECTED_KINDS,
    run_fig1,
    run_fig3,
    run_fig4,
)

from tests.invariants import assert_invariants


@pytest.fixture(scope="module")
def fig1():
    return run_fig1()


@pytest.fixture(scope="module")
def fig3():
    return run_fig3()


@pytest.fixture(scope="module")
def fig4():
    return run_fig4()


# -- Figure 1 -----------------------------------------------------------------

def test_fig1_query_answered_in_destination_cell(fig1):
    assert fig1.facts["query_done"]
    assert fig1.facts["mh1_final_cell"] == "cell2"
    assert fig1.facts["query_result"] == [{"ask": "traffic"}]


def test_fig1_mcast_reaches_group_145(fig1):
    assert fig1.facts["mcast_done"]
    assert fig1.facts["mcast_receivers"] == ["mh1", "mh4", "mh5"]


def test_fig1_all_proxies_retired(fig1):
    assert fig1.facts["live_proxies"] == 0


def test_fig1_invariants(fig1):
    assert_invariants(fig1.world)


# -- Figure 3 -----------------------------------------------------------------

def test_fig3_message_sequence_matches_paper(fig3):
    assert subsequence_present(fig3.kinds(), FIG3_EXPECTED_KINDS), fig3.kinds()


def test_fig3_result_chases_mh_with_one_retransmission(fig3):
    assert fig3.facts["done"]
    assert fig3.facts["result"] == ["answer"]
    assert fig3.facts["retransmissions"] == 1
    assert fig3.facts["missed_forwards"] == 1


def test_fig3_single_proxy_created_and_deleted(fig3):
    assert fig3.facts["proxies_created"] == 1
    assert fig3.facts["live_proxies"] == 0


def test_fig3_no_duplicate_deliveries(fig3):
    assert fig3.facts["duplicates_at_mh"] == 0


def test_fig3_invariants(fig3):
    assert_invariants(fig3.world)


# -- Figure 4 -----------------------------------------------------------------

def test_fig4_message_sequence_matches_paper(fig4):
    assert subsequence_present(fig4.kinds(), FIG4_EXPECTED_KINDS), fig4.kinds()


def test_fig4_special_del_pref_message_sent_once(fig4):
    assert fig4.facts["del_pref_notices"] == 1


def test_fig4_single_proxy_serves_all_three_requests(fig4):
    assert fig4.facts["all_done"]
    assert fig4.facts["proxies_created"] == 1
    assert fig4.facts["proxies_deleted"] == 1
    assert fig4.facts["live_proxies"] == 0


def test_fig4_ack_a_carries_del_proxy_false(fig4):
    """requestB slipped in before AckA, so RKpR was reset and the first
    fwd_ack must not carry del-proxy."""
    ack_forwards = [e for e in fig4.chart if e.kind == "ack_forward"]
    assert len(ack_forwards) == 3
    assert "del-proxy" not in ack_forwards[0].detail
    assert "del-proxy" not in ack_forwards[1].detail
    assert "del-proxy" in ack_forwards[2].detail


def test_fig4_results_b_c_forwarded_without_del_pref(fig4):
    forwards = [e for e in fig4.chart if e.kind == "result_forward"]
    assert len(forwards) == 3
    assert "del-pref" in forwards[0].detail      # resultA: sole pending
    assert "del-pref" not in forwards[1].detail  # resultB: {B, C} pending
    assert "del-pref" not in forwards[2].detail  # resultC: {B, C} pending


def test_fig4_invariants(fig4):
    assert_invariants(fig4.world)

"""Smoke + shape tests for the analytical experiments (AN1-AN7).

Each test runs a scaled-down version of the experiment and asserts the
*shape* the paper predicts (who wins, where the knee falls), not absolute
numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments.an1_reliability import run_reliability
from repro.experiments.an2_exactly_once import run_race
from repro.experiments.an3_retransmission import THRESHOLD, run_point
from repro.experiments.an4_overhead import run_overhead
from repro.experiments.an5_load_balance import run_policy
from repro.experiments.an6_causal_ablation import run_ordering
from repro.experiments.an7_handoff_cost import run_protocol
from repro.experiments.harness import Table, drain
from repro.config import WorldConfig
from repro.errors import ReproError


# -- harness -----------------------------------------------------------------

def test_table_rendering():
    table = Table(title="T", columns=["a", "b"])
    table.add_row(1, 2.34567)
    table.notes.append("hello")
    text = table.render()
    assert "T" in text and "2.346" in text and "note: hello" in text
    with pytest.raises(ValueError):
        table.add_row(1)


# -- AN1 ----------------------------------------------------------------------

@pytest.mark.parametrize("protocol,expect_full", [
    ("rdp", True),
    ("itcp", True),
    ("direct", False),
])
def test_an1_reliability_shape(protocol, expect_full):
    result = run_reliability(protocol, n_hosts=4, duration=120.0,
                             wireless_loss=0.05, seed=1)
    assert result.requests > 0
    if expect_full:
        assert result.delivery_ratio == 1.0
    else:
        assert result.delivery_ratio < 1.0


# -- AN2 ----------------------------------------------------------------------

def test_an2_app_exactly_once_always():
    for offset in (0.0, 0.004, 0.02):
        out = run_race(offset)
        assert out.app_deliveries == 1


def test_an2_transmission_regimes():
    early = run_race(0.001)   # migrate before the Ack leaves
    late = run_race(0.05)     # Ack long gone
    assert not early.exactly_once_transmission
    assert early.retransmissions == 1
    assert late.exactly_once_transmission


# -- AN3 ----------------------------------------------------------------------

def test_an3_threshold_shape():
    below = run_point(THRESHOLD * 0.5, n_hosts=2, requests_per_host=10, seed=2)
    above = run_point(THRESHOLD * 40, n_hosts=2, requests_per_host=10, seed=2)
    assert below.delivered == below.requests
    assert above.delivered == above.requests
    assert below.retransmission_rate > 10 * max(above.retransmission_rate, 0.01)
    assert above.retransmission_rate < 0.3


# -- AN4 ----------------------------------------------------------------------

@pytest.mark.parametrize("migrations,reactivations,requests", [
    (5, 2, 4),
    (20, 10, 15),
])
def test_an4_overhead_bounds_hold_exactly(migrations, reactivations,
                                          requests):
    result = run_overhead(n_migrations=migrations,
                          n_reactivations=reactivations, n_requests=requests)
    assert result.update_bound_holds, result
    assert result.ack_bound_holds, result
    assert result.migrations == migrations
    assert result.reactivations == reactivations


# -- AN5 ----------------------------------------------------------------------

def test_an5_dynamic_placement_beats_home():
    kwargs = dict(n_hosts=10, grid=3, duration=120.0, seed=3)
    home = run_policy("home", **kwargs)
    current = run_policy("current", **kwargs)
    least = run_policy("least_loaded", **kwargs)
    assert home.requests == current.requests == least.requests
    assert current.fairness > home.fairness
    assert least.fairness >= current.fairness
    assert home.hottest_share > current.hottest_share


# -- AN6 ----------------------------------------------------------------------

def test_an6_app_duplicates_zero_for_all_orderings():
    for ordering in ("causal", "fifo", "raw"):
        result = run_ordering(ordering, n_hosts=3, requests_per_host=8,
                              seed=4)
        assert result.app_duplicates == 0
        assert result.delivered == result.requests


def test_an6_default_world_is_causally_ordered():
    """AN6's workload on the ordering ``WorldConfig`` ships with gives
    the causal result: 5 duplicate transmissions at seed 4, where FIFO
    gives 12 (every AN6 run otherwise names its ordering explicitly)."""
    result = run_ordering(WorldConfig().ordering, seed=4)
    assert result.delivered == result.requests
    assert result.duplicate_transmissions == 5


# -- AN7 ----------------------------------------------------------------------

def test_an7_itcp_pays_for_handoffs():
    rdp = run_protocol("rdp", n_hosts=2, n_migrations=5, seed=5)
    itcp = run_protocol("itcp", n_hosts=2, n_migrations=5, seed=5)
    assert rdp.delivered == itcp.delivered
    assert rdp.forwarding_pointers == 0
    assert itcp.forwarding_pointers > 0
    assert itcp.deregack_bytes_mean > 5 * rdp.deregack_bytes_mean


# -- drain helper ---------------------------------------------------------------

def test_drain_raises_when_impossible():
    from repro.servers.echo import ManualServer
    from tests.conftest import make_world

    world = make_world()
    world.add_server("manual", ManualServer)  # never replies
    client = world.add_host("m", world.cells[0])
    client.request("manual", 1)
    with pytest.raises(ReproError):
        drain(world, max_rounds=2)

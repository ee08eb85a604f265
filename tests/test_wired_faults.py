"""Fault-injectable wired fabric, reliable transport and crash healing.

The paper's assumption 1 (reliable, ordered inter-MSS network) is broken
on purpose by :mod:`repro.net.faults`; :mod:`repro.net.reliable` is the
machinery that restores exactly-once wired delivery on top.  These tests
pin both layers plus the first-class MSS crash/recovery API and the
crash-healing protocol extensions (result bounce, MH paging, foreign-ack
routing).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.config import WiredFaultSpec
from repro.errors import ConfigError
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.reliable import RetryPolicy
from repro.net.wired import WiredNetwork
from repro.net.wireless import WirelessChannel
from repro.servers.echo import ManualServer
from repro.sim import Simulator, TraceRecorder
from repro.types import CellId, MhState, NodeId, mss_id

from tests.conftest import make_world, trace_filter


@dataclass(slots=True, kw_only=True)
class _Ping(Message):
    kind: ClassVar[str] = "ping"
    tag: str = ""


class _StaticNode:
    def __init__(self, name: str) -> None:
        self.node_id = NodeId(name)
        self.received = []

    def on_wired_message(self, message: Message) -> None:
        self.received.append(message)


def _wired(sim, **kw):
    return WiredNetwork(sim, latency=ConstantLatency(0.01), **kw)


# -- FaultPlan unit tests ----------------------------------------------------

def test_fault_plan_validates_rates():
    rng = random.Random(0)
    with pytest.raises(ConfigError):
        FaultPlan(rng, loss=1.5)
    with pytest.raises(ConfigError):
        FaultPlan(rng, duplication=-0.1)
    with pytest.raises(ConfigError):
        FaultPlan(rng, spike=-1.0)
    with pytest.raises(ConfigError):
        FaultPlan(rng, partitions=((NodeId("a"), NodeId("b"), 5.0, 5.0),))
    plan = FaultPlan(rng, loss=0.5)
    with pytest.raises(ConfigError):
        plan.set_loss(2.0)


def test_fault_plan_validate_rejects_overlapping_partitions():
    a, b = NodeId("mss:a"), NodeId("mss:b")
    plan = FaultPlan(random.Random(0),
                     partitions=((a, b, 10.0, 20.0), (b, a, 15.0, 25.0)))
    with pytest.raises(ConfigError, match="overlapping partition windows"):
        plan.validate()  # same undirected link, windows overlap
    # Touching windows and other links are fine.
    ok = FaultPlan(random.Random(0), partitions=(
        (a, b, 10.0, 20.0), (a, b, 20.0, 25.0),
        (a, NodeId("mss:c"), 12.0, 18.0)))
    ok.validate()


def test_fault_plan_validate_exempts_dynamic_windows():
    """Mid-run cuts (the fuzzer's wired_loss/partition ops) may overlap;
    only the static spec is validated at world build time."""
    a, b = NodeId("mss:a"), NodeId("mss:b")
    plan = FaultPlan(random.Random(0), partitions=((a, b, 10.0, 20.0),))
    plan.validate()
    plan.partition(a, b, 15.0, 30.0)  # dynamic overlap: legal schedule
    assert plan.cut(a, b, 25.0)


def test_wireless_plan_validate_rejects_overlapping_blackouts():
    from repro.net.faults import WirelessFaultPlan
    plan = WirelessFaultPlan(random.Random(0), blackouts=(
        (CellId("cell0"), 5.0, 10.0), (CellId("cell0"), 8.0, 12.0)))
    with pytest.raises(ConfigError, match="overlapping blackout windows"):
        plan.validate()
    ok = WirelessFaultPlan(random.Random(0), blackouts=(
        (CellId("cell0"), 5.0, 10.0), (CellId("cell0"), 10.0, 12.0),
        (CellId("cell1"), 6.0, 9.0)))
    ok.validate()


def test_fault_window_negative_durations_rejected():
    a, b = NodeId("mss:a"), NodeId("mss:b")
    with pytest.raises(ConfigError, match="empty partition window"):
        FaultPlan(random.Random(0), partitions=((a, b, 5.0, 4.0),))
    from repro.net.faults import WirelessFaultPlan
    with pytest.raises(ConfigError, match="empty blackout window"):
        WirelessFaultPlan(random.Random(0),
                          blackouts=((CellId("cell0"), 3.0, 3.0),))


def test_world_rejects_overlapping_static_windows():
    """The world validates both static plans at build time, so a config
    typo dies loudly instead of silently double-counting windows."""
    from repro.config import WirelessFaultSpec
    with pytest.raises(ConfigError, match="overlapping partition windows"):
        make_world(wired_faults=WiredFaultSpec(partitions=(
            (mss_id("s0"), mss_id("s1"), 1.0, 5.0),
            (mss_id("s1"), mss_id("s0"), 4.0, 8.0))))
    with pytest.raises(ConfigError, match="overlapping blackout windows"):
        make_world(wireless_faults=WirelessFaultSpec(blackouts=(
            ("cell1", 1.0, 5.0), ("cell1", 2.0, 3.0))))


def test_fault_plan_partition_windows():
    a, b, c = NodeId("mss:a"), NodeId("mss:b"), NodeId("mss:c")
    plan = FaultPlan(random.Random(0), partitions=((a, b, 10.0, 20.0),))
    # Undirected, half-open window, only the named link.
    assert plan.cut(a, b, 10.0) and plan.cut(b, a, 19.999)
    assert not plan.cut(a, b, 9.999) and not plan.cut(a, b, 20.0)
    assert not plan.cut(a, c, 15.0)


def test_fault_plan_seeded_determinism():
    plan1 = FaultPlan(random.Random(7), loss=0.5)
    plan2 = FaultPlan(random.Random(7), loss=0.5)
    draws1 = [plan1.lost() for _ in range(20)]
    assert draws1 == [plan2.lost() for _ in range(20)]
    assert any(draws1) and not all(draws1)


def test_fault_plan_set_loss_retargets_midrun():
    plan = FaultPlan(random.Random(1))
    assert not plan.lost()
    plan.set_loss(1.0)
    assert plan.lost()


def test_wired_fault_spec_validation():
    with pytest.raises(ConfigError):
        WiredFaultSpec(loss=1.2)
    with pytest.raises(ConfigError):
        WiredFaultSpec(partitions=((mss_id("s0"), mss_id("s1"), 3.0, 2.0),))


# -- RetryPolicy -------------------------------------------------------------

def test_retry_policy_backoff_progression():
    policy = RetryPolicy(timeout=0.25, backoff=2.0, max_timeout=8.0, jitter=0.0)
    timeouts = [policy.timeout_for(n, 0.0) for n in range(1, 8)]
    assert timeouts == [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 8.0]  # capped


def test_retry_policy_jitter_stretches_deterministically():
    policy = RetryPolicy(timeout=1.0, backoff=1.0, max_timeout=4.0, jitter=0.5)
    assert policy.timeout_for(1, 0.0) == 1.0
    assert policy.timeout_for(1, 1.0) == pytest.approx(1.5)
    assert policy.timeout_for(1, 0.5) == pytest.approx(1.25)


def test_retry_policy_jitter_never_exceeds_cap():
    # Regression: the cap used to apply before jitter, so a fully
    # backed-off delay could stretch to max_timeout * (1 + jitter).
    policy = RetryPolicy(timeout=1.0, backoff=1.0, max_timeout=1.0, jitter=0.5)
    assert policy.timeout_for(1, 1.0) == 1.0
    deep = RetryPolicy(timeout=0.25, backoff=2.0, max_timeout=8.0, jitter=0.1)
    for attempt in range(1, 12):
        for draw in (0.0, 0.37, 0.999):
            assert deep.timeout_for(attempt, draw) <= deep.max_timeout
    # jittered() (the adaptive transport's path) honours the same cap.
    assert deep.jittered(8.0, 0.999) == 8.0
    assert deep.jittered(1.0, 0.5) == pytest.approx(1.05)


def test_retry_policy_delay_stops_at_the_cap_past_float_range():
    # Regression: backoff ** (attempt - 1) overflowed past attempt ~1025,
    # so a LegacyReliableLink with a large budget crashed the run during
    # a long partition.  Every attempt that did not overflow keeps its
    # exact float.
    policy = RetryPolicy(max_retries=5000)
    assert policy.timeout_for(1100, 0.5) == policy.max_timeout
    assert policy.timeout_for(5000, 0.0) == policy.max_timeout
    for attempt in range(1, 1025):
        for draw in (0.0, 0.5):
            base = min(policy.max_timeout,
                       policy.timeout * policy.backoff ** (attempt - 1))
            assert policy.timeout_for(attempt, draw) == min(
                policy.max_timeout, base * (1.0 + policy.jitter * draw))


def test_retry_policy_validation():
    with pytest.raises(ConfigError):
        RetryPolicy(timeout=0.0)
    with pytest.raises(ConfigError):
        RetryPolicy(timeout=2.0, max_timeout=1.0)
    with pytest.raises(ConfigError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ConfigError):
        RetryPolicy(max_retries=-1)


# -- ReliableLink over a faulty fabric --------------------------------------

def test_transport_defaults_follow_faults():
    sim = Simulator()
    assert _wired(sim).transport is None
    plan = FaultPlan(random.Random(0), loss=0.2)
    assert _wired(sim, faults=plan).transport is not None
    assert _wired(sim, faults=plan, reliable=False).transport is None
    assert _wired(sim, reliable=True).transport is not None


def test_reliable_link_bridges_heavy_loss():
    sim = Simulator()
    plan = FaultPlan(random.Random(3), loss=0.5)
    net = _wired(sim, faults=plan)
    a, b = _StaticNode("mss:a"), _StaticNode("mss:b")
    net.attach(a)
    net.attach(b)
    for i in range(30):
        net.send(a.node_id, b.node_id, _Ping(tag=str(i)))
    sim.run()
    # Exactly once, in order, despite a 50% lossy wire.
    assert [m.tag for m in b.received] == [str(i) for i in range(30)]
    assert net.monitor.drops_of(net.name, reason="loss") > 0
    assert net.transport.retransmissions > 0
    assert net.transport.pending_count() == 0


def test_reliable_link_suppresses_injected_duplicates():
    sim = Simulator()
    plan = FaultPlan(random.Random(5), duplication=1.0)
    net = _wired(sim, faults=plan)
    a, b = _StaticNode("mss:a"), _StaticNode("mss:b")
    net.attach(a)
    net.attach(b)
    for i in range(10):
        net.send(a.node_id, b.node_id, _Ping(tag=str(i)))
    sim.run()
    assert [m.tag for m in b.received] == [str(i) for i in range(10)]
    assert net.dup_injected > 0
    assert net.transport.duplicates_suppressed > 0


def test_reliable_link_gives_up_after_retry_budget():
    sim = Simulator()
    a_id, b_id = NodeId("mss:a"), NodeId("mss:b")
    plan = FaultPlan(random.Random(0), partitions=((a_id, b_id, 0.0, 1e9),))
    net = _wired(sim, faults=plan,
                 retry=RetryPolicy(timeout=0.1, max_timeout=0.4, max_retries=3))
    a, b = _StaticNode(a_id), _StaticNode(b_id)
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _Ping(tag="doomed"))
    sim.run()
    assert b.received == []
    assert len(net.failures) == 1
    failure = net.failures[0]
    assert failure.src == a.node_id and failure.dst == b.node_id
    assert failure.attempts == 4  # 1 original + max_retries
    assert net.transport.pending_count() == 0


def test_reliable_link_bridges_node_downtime():
    """Frames toward a down node are dropped silently (no transport ack),
    so the sender keeps retransmitting and delivery completes once the
    node comes back: the fabric keeps custody across the outage."""
    sim = Simulator()
    net = _wired(sim, reliable=True,
                 retry=RetryPolicy(timeout=0.2, max_timeout=0.4, jitter=0.0))
    a, b = _StaticNode("mss:a"), _StaticNode("mss:b")
    net.attach(a)
    net.attach(b)
    net.set_down(b.node_id)
    net.send(a.node_id, b.node_id, _Ping(tag="bridged"))
    sim.run(until=1.0)
    assert b.received == []
    assert net.monitor.drops_of(net.name, reason="down") > 0
    net.set_up(b.node_id)
    sim.run()
    assert [m.tag for m in b.received] == ["bridged"]


def test_fault_free_network_has_no_transport_traffic():
    """Default construction stays a zero-overhead pass-through."""
    sim = Simulator()
    net = _wired(sim)
    a, b = _StaticNode("mss:a"), _StaticNode("mss:b")
    net.attach(a)
    net.attach(b)
    for i in range(5):
        net.send(a.node_id, b.node_id, _Ping(tag=str(i)))
    sim.run()
    assert len(b.received) == 5
    assert net.transport is None
    assert net.monitor.drops_of(net.name) == 0


def test_station_ids_lists_only_stations():
    sim = Simulator()
    net = _wired(sim)
    net.attach(_StaticNode("mss:b"))
    net.attach(_StaticNode("mss:a"))
    net.attach(_StaticNode("srv:echo"))
    assert net.station_ids() == ["mss:a", "mss:b"]


# -- wireless drop reasons (satellite: counters and trace agree) -------------

class _Station:
    def __init__(self, name: str, cell: str) -> None:
        self.node_id = NodeId(name)
        self.cell_id = CellId(cell)
        self.received = []

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)


class _Host:
    def __init__(self, name: str, cell: str) -> None:
        self.node_id = NodeId(name)
        self.current_cell = CellId(cell)
        self.state = MhState.ACTIVE
        self.received = []

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)


def test_every_wireless_drop_reason_counted_and_traced_once():
    """Each downlink drop reason — ``inactive``, ``not_in_cell``,
    ``loss``, plus the mid-flight ``host_inactive`` fault — shows up
    exactly once in the monitor counters AND exactly once as a trace row
    for a scenario constructed to hit each once."""
    sim = Simulator()
    recorder = TraceRecorder()
    channel = WirelessChannel(sim, latency=ConstantLatency(0.005),
                              recorder=recorder)
    station = _Station("mss:s0", "cell0")
    channel.register_station(station)
    host = _Host("mh:m", "cell0")
    channel.register_host(host)

    # 1: inactive — the host was already asleep when the frame was sent
    # (the ordinary send-to-sleeping case the proxy expects).
    host.state = MhState.INACTIVE
    channel.downlink(station, host.node_id, _Ping(tag="to-sleeper"))
    sim.run()
    host.state = MhState.ACTIVE

    # 2: not_in_cell — the host moves away mid-flight.
    channel.downlink(station, host.node_id, _Ping(tag="to-mover"))
    host.current_cell = CellId("cell1")
    sim.run()
    host.current_cell = CellId("cell0")

    # 3: loss — a total blackout (loss_probability == 1.0 is legal).
    channel.loss_probability = 1.0
    channel.downlink(station, host.node_id, _Ping(tag="to-void"))
    sim.run()
    channel.loss_probability = 0.0

    # 4: host_inactive — deliverable at send time, deactivated while the
    # frame was in the air: a distinct wireless_drop, not plain inactive.
    channel.downlink(station, host.node_id, _Ping(tag="to-dozer"))
    host.state = MhState.INACTIVE
    sim.run()
    host.state = MhState.ACTIVE

    assert host.received == []
    for reason in ("inactive", "not_in_cell", "loss"):
        assert channel.monitor.drops_of(channel.name, reason=reason) == 1, reason
        rows = [r for r in trace_filter(recorder, kind="drop")
                if r.get("reason") == reason]
        assert len(rows) == 1, reason
    assert channel.monitor.drops_of(channel.name, reason="host_inactive") == 1
    wireless_rows = trace_filter(recorder, kind="wireless_drop")
    assert len(wireless_rows) == 1
    assert wireless_rows[0].get("reason") == "host_inactive"
    # Nothing else was dropped, and the totals agree with the rows.
    assert channel.monitor.drops_of(channel.name) == 4
    assert len(trace_filter(recorder, kind="drop")) == 3


def test_uplink_loss_dropped_with_reason():
    sim = Simulator()
    channel = WirelessChannel(sim, latency=ConstantLatency(0.005),
                              loss_probability=1.0)
    station = _Station("mss:s0", "cell0")
    channel.register_station(station)
    host = _Host("mh:m", "cell0")
    channel.register_host(host)
    channel.uplink(host, _Ping(tag="up"))
    sim.run()
    assert station.received == []
    assert channel.monitor.drops_of(channel.name, reason="loss") == 1


# -- first-class crash/recovery API -----------------------------------------

def test_crash_mss_accepts_cell_name_and_node_id():
    world = make_world()
    by_cell = world.crash_mss(world.cells[0])
    assert by_cell.down
    world.restart_mss(by_cell.name)
    assert not by_cell.down
    assert world.crash_mss(by_cell.name) is by_cell
    world.restart_mss(mss_id(by_cell.name))
    assert not by_cell.down
    with pytest.raises(ConfigError):
        world.crash_mss("nope")


def test_crash_wipes_volatile_state_and_restart_reregisters():
    world = make_world()
    world.add_server("echo")
    client = world.add_host("m", world.cells[0], retry_interval=2.0)
    world.run(until=1.0)
    station = world.stations[world.cells[0]]
    assert station.pref_of(world.hosts["m"].node_id) is not None

    world.crash_mss(world.cells[0])
    assert station.entries == {}
    assert station.proxies == {}
    assert world.metrics.count("mss_crashes") == 1

    world.restart_mss(world.cells[0])
    p = client.request("echo", "back")
    world.run(until=20.0)
    assert p.done and p.result == "back"
    assert world.metrics.count("mss_restarts") == 1
    assert station.pref_of(world.hosts["m"].node_id) is not None


# -- crash-healing protocol extensions --------------------------------------

def _healing_world():
    """A deterministic world with the crash-healing machinery armed
    (a fault plan with zero rates keeps the run loss-free)."""
    return make_world(wired_faults=WiredFaultSpec(loss=0.0),
                      greet_retry_interval=1.0)


def test_orphaned_proxy_healed_by_bounce_and_page():
    """An MSS crash wipes the pref the proxy depends on while the MH
    moves on: the stale forward bounces, the proxy pages, the hosting
    station answers, and the result still arrives exactly once."""
    world = _healing_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0], retry_interval=60.0)
    host = world.hosts["m"]
    p = client.request("manual", "homework")
    world.run(until=1.0)
    # Proxy lives at s0; hand the MH off to s1 so the pref moves there.
    host.migrate_to(world.cells[1])
    world.run(until=3.0)
    # Crash s1: the pref pointing at the proxy is gone.  The MH then
    # moves to s2 and (custody chain dead) registers there.
    world.crash_mss(world.cells[1])
    world.run(until=4.0)
    world.restart_mss(world.cells[1])
    host.migrate_to(world.cells[2])
    world.run(until=8.0)
    assert world.stations[world.cells[2]].pref_of(host.node_id) is not None
    # Now the server answers: the proxy forwards to its stale currentloc.
    server.release(p.request_id, "done")
    world.run(until=40.0)
    assert p.done and p.result == "done"
    metrics = world.metrics
    assert metrics.count("results_for_absent_mh") >= 1
    assert metrics.count("proxy_bounce_retries") >= 1
    assert metrics.count("mh_pages_sent") >= 1
    assert metrics.count("mh_page_hits") >= 1
    # The healed proxy got its ack and retired: no zombies anywhere.
    world.run_until_idle()
    assert all(not s.proxies for s in world.stations.values())


def test_del_proxy_confirm_gated_to_fault_worlds():
    """The explicit del-proxy confirmation only exists to close a race a
    crash can open; fault-free worlds keep the paper's exact piggyback
    sequence."""
    world = make_world()
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    p = client.request("echo", "x")
    world.run(until=10.0)
    assert p.done
    assert world.metrics.count("del_proxy_confirms") == 0
    assert world.stations[world.cells[0]].config.proxy_ack_timeout is None


def test_proxy_ack_timeout_auto_enabled_with_faults():
    armed = _healing_world()
    assert armed.stations[armed.cells[0]].config.proxy_ack_timeout == 5.0
    world = make_world(wired_faults=WiredFaultSpec(loss=0.0),
                       proxy_ack_timeout=2.5)
    assert world.stations[world.cells[0]].config.proxy_ack_timeout == 2.5

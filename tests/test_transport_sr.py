"""Property-test battery for the selective-repeat wired transport.

The sliding-window transport (``net/reliable.py``) is a state machine of
exactly the kind where reordering/duplication bugs hide, so every
mechanism here is pinned twice over:

* **Stress against the schedule** — seeded loss/dup/reorder schedules
  drive the selective-repeat transport, and each channel's delivered
  sequence must equal the one derived from the schedule: exactly-once,
  in send order, with drained windows and bounded memory.
* **Golden units** — hand-computed Jacobson/Karels SRTT/RTTVAR values,
  RTO clamping and Karn backoff; :class:`AckRanges` merge semantics;
  window/batching accounting.
* **Mutation checks** — break retransmit-timer arming, Karn's rule, or
  cumulative-ack advance, and a *named* test in this file must fail
  (each mutation is applied via monkeypatch and asserted to flip the
  corresponding property helper).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

import pytest

from repro.errors import ConfigError
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.reliable import (
    DUPACK_THRESHOLD,
    AckRanges,
    ReliableLink,
    RetryPolicy,
    RtoEstimator,
    SendWindow,
)
from repro.net.wired import WiredNetwork
from repro.sim import Simulator, TraceRecorder
from repro.types import NodeId

from tests.conftest import receiver_ranges


@dataclass(slots=True, kw_only=True)
class _Tagged(Message):
    kind: ClassVar[str] = "tagged"
    tag: str = ""


class _Sink:
    def __init__(self, name: str) -> None:
        self.node_id = NodeId(name)
        self.received: List[_Tagged] = []

    def on_wired_message(self, message: Message) -> None:
        assert isinstance(message, _Tagged)
        self.received.append(message)


class _FailureAware(_Sink):
    """A node implementing the transport-failure hook."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.failed: List[Message] = []

    def on_delivery_failure(self, message: Message) -> None:
        self.failed.append(message)


def _network(sim: Simulator, *,
             faults: Optional[FaultPlan] = None,
             policy: Optional[RetryPolicy] = None,
             seed: int = 1, window: int = 8, max_batch: int = 4,
             latency: float = 0.01, ordering: str = "causal") -> WiredNetwork:
    return WiredNetwork(
        sim, latency=ConstantLatency(latency),
        recorder=TraceRecorder(enabled=False),
        ordering=ordering,
        faults=faults, reliable=True,
        retry=policy if policy is not None else RetryPolicy(),
        retry_rng=random.Random(seed),
        window=window, max_batch=max_batch)


# One randomized traffic schedule: (send time, src index, dst index).
Schedule = List[Tuple[float, int, int]]


def _make_schedule(seed: int, n_nodes: int, n_messages: int) -> Schedule:
    rng = random.Random(seed)
    schedule: Schedule = []
    clock = 0.0
    for _ in range(n_messages):
        clock += rng.random() * 0.2
        src = rng.randrange(n_nodes)
        dst = rng.randrange(n_nodes)
        while dst == src:
            dst = rng.randrange(n_nodes)
        schedule.append((clock, src, dst))
    return schedule


def _run_schedule(schedule: Schedule, seed: int,
                  n_nodes: int, *, loss: float = 0.0, dup: float = 0.0,
                  reorder: float = 0.0, window: int = 8,
                  max_batch: int = 4) -> Tuple[WiredNetwork, List[_Sink],
                                               Dict[Tuple[int, int],
                                                    List[str]]]:
    """Drive one seeded schedule through the transport; returns the
    network, sinks, and the expected per-channel tag sequences."""
    sim = Simulator()
    faults = None
    if loss or dup or reorder:
        faults = FaultPlan(random.Random(seed + 100), loss=loss,
                           duplication=dup, reorder=reorder,
                           reorder_spread=0.25 if reorder else 0.0)
    net = _network(sim, faults=faults, seed=seed,
                   window=window, max_batch=max_batch)
    sinks = [_Sink(f"n{i}") for i in range(n_nodes)]
    for sink in sinks:
        net.attach(sink)
    expected: Dict[Tuple[int, int], List[str]] = {}
    for t, src, dst in schedule:
        tag = f"{src}->{dst}#{len(expected.setdefault((src, dst), []))}"
        expected[(src, dst)].append(tag)
        sim.schedule(t, net.send, sinks[src].node_id, sinks[dst].node_id,
                     _Tagged(tag=tag))
    sim.run()
    return net, sinks, expected


def _channel_sequences(sinks: List[_Sink]) -> Dict[Tuple[int, int],
                                                   List[str]]:
    out: Dict[Tuple[int, int], List[str]] = {}
    index = {sink.node_id: i for i, sink in enumerate(sinks)}
    for sink in sinks:
        for message in sink.received:
            src, arrow = message.tag.split("->")[0], message.tag
            assert message.src is not None
            key = (index[message.src], index[sink.node_id])
            out.setdefault(key, []).append(arrow)
            assert src == str(key[0])
    return out


# -- stress battery -----------------------------------------------------------


FAULT_GRID = (
    {"loss": 0.3},
    {"dup": 0.3},
    {"reorder": 0.5},
    {"loss": 0.25, "dup": 0.15, "reorder": 0.25},
)


def test_sr_matches_reference_across_fault_schedules():
    """The battery: across seeds x fault mixes, the SR transport delivers
    the per-channel sequences the schedule implies — every message
    exactly once, in send order — and the SR window both stays bounded
    and fully drains."""
    total_fast_retx = 0
    for seed in range(6):
        for fault_mix in FAULT_GRID:
            schedule = _make_schedule(seed, n_nodes=4, n_messages=80)
            sr_net, sr_sinks, expected = _run_schedule(
                schedule, seed, 4, **fault_mix)
            label = f"seed={seed} faults={fault_mix}"
            sr_seqs = _channel_sequences(sr_sinks)
            assert sr_seqs == expected, label
            # Exactly-once: per-channel equality above already forbids
            # dups within a channel; the totals close the cross-channel
            # loophole.
            assert sum(len(s.received) for s in sr_sinks) == len(schedule)
            # The transport drained: nothing in flight, queued or
            # buffered once the simulator went quiet.
            assert sr_net.transport is not None
            assert sr_net.transport.pending_count() == 0, label
            assert not sr_net.failures
            total_fast_retx += sr_net.transport.fast_retransmissions
    # The sweep must actually exercise the fast-retransmit path
    # somewhere, or the dupack machinery could rot undetected.
    assert total_fast_retx > 0


def test_sr_window_memory_stays_bounded():
    """Bounded memory: in-flight frames never exceed the configured
    window even under a same-tick burst far larger than it, and the
    receiver's SACK state stays within the window span."""
    sim = Simulator()
    net = _network(sim, seed=3, window=4, max_batch=2,
                   faults=FaultPlan(random.Random(9), loss=0.2))
    a, b = _Sink("a"), _Sink("b")
    net.attach(a)
    net.attach(b)
    transport = net.transport
    assert isinstance(transport, ReliableLink)
    for i in range(200):
        net.send(a.node_id, b.node_id, _Tagged(tag=f"m{i}"))
    peak_ranges = 0

    def probe() -> None:
        nonlocal peak_ranges
        peak_ranges = max(peak_ranges, receiver_ranges(transport))
        if sim.now < 60.0:
            sim.schedule(0.5, probe)
    sim.schedule(0.5, probe)
    sim.run()
    assert [m.tag for m in b.received] == [f"m{i}" for i in range(200)]
    assert transport.max_window_occupancy() <= 4
    # SACK gaps can only exist inside the 4-frame window span.
    assert peak_ranges <= 4
    assert transport.pending_count() == 0


def test_sr_batches_same_tick_sends():
    sim = Simulator()
    net = _network(sim, max_batch=8)
    a, b = _Sink("a"), _Sink("b")
    net.attach(a)
    net.attach(b)
    transport = net.transport
    assert isinstance(transport, ReliableLink)
    for i in range(8):
        net.send(a.node_id, b.node_id, _Tagged(tag=f"m{i}"))
    sim.run()
    assert [m.tag for m in b.received] == [f"m{i}" for i in range(8)]
    # All eight coalesced into one frame, acked by one ack.
    assert transport.frames_sent == 1
    assert transport.batched_frames == 1
    assert transport.acks_sent == 1


def test_sr_batch_splits_at_max_batch_and_ticks_do_not_merge():
    sim = Simulator()
    net = _network(sim, max_batch=3)
    a, b = _Sink("a"), _Sink("b")
    net.attach(a)
    net.attach(b)
    transport = net.transport
    assert isinstance(transport, ReliableLink)
    for i in range(7):  # one tick: frames of 3 + 3 + 1
        net.send(a.node_id, b.node_id, _Tagged(tag=f"x{i}"))
    sim.schedule(1.0, net.send, a.node_id, b.node_id, _Tagged(tag="later"))
    sim.run()
    assert [m.tag for m in b.received] == [f"x{i}" for i in range(7)] + ["later"]
    assert transport.frames_sent == 4
    assert transport.batched_frames == 2  # the two full frames of 3


def test_sr_per_message_delivery_failure_and_node_hook():
    """A frame abandoned after the retry budget surfaces one
    DeliveryFailure *per batched message* and routes each through the
    source node's ``on_delivery_failure`` hook."""
    sim = Simulator()
    net = _network(sim,
                   faults=FaultPlan(random.Random(2), loss=1.0),
                   policy=RetryPolicy(timeout=0.1, max_retries=2,
                                      jitter=0.0),
                   max_batch=4)
    a, b = _FailureAware("a"), _Sink("b")
    net.attach(a)
    net.attach(b)
    for i in range(3):
        net.send(a.node_id, b.node_id, _Tagged(tag=f"m{i}"))
    sim.run()
    assert b.received == []
    assert len(net.failures) == 3
    assert sorted(f.message.tag for f in net.failures) == ["m0", "m1", "m2"]
    assert all(f.attempts == 3 for f in net.failures)  # 1 send + 2 retries
    assert [m.tag for m in a.failed] == sorted(f.message.tag
                                               for f in net.failures)
    assert net.transport is not None and net.transport.pending_count() == 0


def test_sr_abandoned_gap_retires_receiver_state():
    """After the sender abandons a frame, the piggybacked window base on
    later traffic closes the receiver's gap (no unbounded SACK state)."""
    sim = Simulator()
    plan = FaultPlan(random.Random(0))
    # Raw ordering: the causal layer (correctly) wedges a channel behind
    # an abandoned message; here the transport itself is under test.
    net = _network(sim, faults=plan, ordering="raw",
                   policy=RetryPolicy(timeout=0.1, max_retries=1, jitter=0.0))
    a, b = _Sink("a"), _Sink("b")
    net.attach(a)
    net.attach(b)
    transport = net.transport
    assert isinstance(transport, ReliableLink)
    plan.set_loss(1.0)  # m0's frame (and retries) all die
    net.send(a.node_id, b.node_id, _Tagged(tag="m0"))
    sim.run()
    assert len(net.failures) == 1
    plan.set_loss(0.0)
    net.send(a.node_id, b.node_id, _Tagged(tag="m1"))
    sim.run()
    assert [m.tag for m in b.received] == ["m1"]
    assert receiver_ranges(transport) == 0  # gap closed by base
    assert transport.pending_count() == 0


def test_sr_abort_from_preserves_sequence_numbers():
    """abort_from clears custody but must not reset sequence counters:
    a re-attached sender's fresh frames would otherwise replay used
    numbers and be swallowed as duplicates."""
    sim = Simulator()
    plan = FaultPlan(random.Random(0))
    # Raw ordering for the same reason as the abandoned-gap test: the
    # aborted message would (correctly) wedge the causal channel.
    net = _network(sim, faults=plan, ordering="raw")
    a, b = _Sink("a"), _Sink("b")
    net.attach(a)
    net.attach(b)
    transport = net.transport
    assert isinstance(transport, ReliableLink)
    net.send(a.node_id, b.node_id, _Tagged(tag="delivered"))
    sim.run()
    plan.set_loss(1.0)
    net.send(a.node_id, b.node_id, _Tagged(tag="doomed"))
    sim.run(until=sim.now + 0.05)  # in flight, not yet delivered
    assert transport.abort_from(a.node_id) == 1
    plan.set_loss(0.0)
    sim.run()
    net.send(a.node_id, b.node_id, _Tagged(tag="fresh"))
    sim.run()
    assert [m.tag for m in b.received] == ["delivered", "fresh"]
    assert transport.pending_count() == 0
    assert transport.aborted == 1


# -- named properties the mutation checks flip --------------------------------


def _assert_losses_recovered_by_timer(n_messages: int = 30) -> None:
    """Property: with only the retransmit timer to lean on (reordering
    kept off so dupacks stay quiet), every loss is eventually repaired."""
    sim = Simulator()
    net = _network(sim,
                   faults=FaultPlan(random.Random(5), loss=0.4),
                   policy=RetryPolicy(jitter=0.0), seed=5)
    a, b = _Sink("a"), _Sink("b")
    net.attach(a)
    net.attach(b)
    for i in range(n_messages):
        sim.schedule(i * 0.05, net.send, a.node_id, b.node_id,
                     _Tagged(tag=f"m{i}"))
    sim.run(until=120.0)
    assert [m.tag for m in b.received] == [f"m{i}" for i in range(n_messages)]
    assert net.transport is not None and net.transport.pending_count() == 0


def test_retransmit_timer_recovers_all_losses():
    _assert_losses_recovered_by_timer()


def test_mutation_broken_timer_arming_fails_recovery(monkeypatch):
    """Mutation: never arm the retransmit timer -> lost frames stay lost
    and test_retransmit_timer_recovers_all_losses's property fails."""
    monkeypatch.setattr(ReliableLink, "_arm",
                        lambda self, channel, pending: None)
    with pytest.raises(AssertionError):
        _assert_losses_recovered_by_timer()


def _steady_state_retransmissions() -> int:
    """Scenario where Karn's rule is load-bearing: the real RTT (1.0s)
    dwarfs the initial RTO (0.05s), so early frames are always
    retransmitted before their ack returns.  With Karn's rule intact the
    estimator only ever sees clean samples, the backed-off RTO sticks
    above the RTT, and retransmissions stop; sampling the ambiguous acks
    instead feeds retransmission-time deltas into SRTT and collapses the
    RTO into a permanent retransmit storm."""
    sim = Simulator()
    net = _network(sim, latency=0.5,  # RTT = 1.0s
                   policy=RetryPolicy(timeout=0.05, min_timeout=0.02,
                                      max_timeout=8.0, jitter=0.0), seed=7)
    a, b = _Sink("a"), _Sink("b")
    net.attach(a)
    net.attach(b)
    n = 40
    for i in range(n):
        sim.schedule(i * 2.0, net.send, a.node_id, b.node_id,
                     _Tagged(tag=f"m{i}"))
    sim.run()
    assert len(b.received) == n
    assert net.transport is not None
    return net.transport.retransmissions


def test_karns_rule_bounds_retransmissions():
    # A handful of early timeouts while the backoff climbs past the
    # RTT, then silence: far fewer retransmissions than messages.
    assert _steady_state_retransmissions() < 20


def test_mutation_broken_karns_rule_causes_retransmit_storm(monkeypatch):
    """Mutation: sample retransmitted frames too (Karn's rule deleted)
    -> the RTO collapses below the RTT and
    test_karns_rule_bounds_retransmissions's bound fails."""
    monkeypatch.setattr(ReliableLink, "_rtt_sample_ok",
                        staticmethod(lambda pending: True))
    with pytest.raises(AssertionError):
        assert _steady_state_retransmissions() < 20


def _assert_cumulative_ack_drains_window(n_messages: int = 20) -> None:
    """Property: on a clean in-order fabric every ack is purely
    cumulative (no SACK blocks), so cumulative advance alone must drain
    the window — no retransmissions, no stuck frames."""
    sim = Simulator()
    net = _network(sim, policy=RetryPolicy(jitter=0.0),
                   window=4, max_batch=1)
    a, b = _Sink("a"), _Sink("b")
    net.attach(a)
    net.attach(b)
    for i in range(n_messages):
        sim.schedule(i * 0.001, net.send, a.node_id, b.node_id,
                     _Tagged(tag=f"m{i}"))
    sim.run(until=60.0)
    assert [m.tag for m in b.received] == [f"m{i}" for i in range(n_messages)]
    assert net.transport is not None
    assert net.transport.pending_count() == 0
    assert net.transport.retransmissions == 0


def test_cumulative_ack_advances_window():
    _assert_cumulative_ack_drains_window()


def test_mutation_broken_cumulative_advance_wedges_window(monkeypatch):
    """Mutation: ignore the cumulative ack field -> in-order traffic is
    never acked, the window wedges full and
    test_cumulative_ack_advances_window's property fails."""
    monkeypatch.setattr(ReliableLink, "_cumulative_advance",
                        lambda self, window, cum: None)
    with pytest.raises(AssertionError):
        _assert_cumulative_ack_drains_window()


# -- RtoEstimator golden units ------------------------------------------------


def test_rto_estimator_golden_jacobson_karels_sequence():
    est = RtoEstimator(initial=0.25, min_rto=0.02, max_rto=8.0)
    assert est.rto == 0.25 and est.srtt is None
    # First sample seeds SRTT = R, RTTVAR = R/2 -> RTO = R + 4*(R/2).
    assert est.sample(1.0) == pytest.approx(3.0)
    assert est.srtt == pytest.approx(1.0)
    assert est.rttvar == pytest.approx(0.5)
    # Second identical sample: RTTVAR = 0.75*0.5 + 0.25*0 = 0.375.
    assert est.sample(1.0) == pytest.approx(2.5)
    assert est.rttvar == pytest.approx(0.375)
    # A 2.0s outlier: RTTVAR = 0.75*0.375 + 0.25*|1-2| = 0.53125,
    # SRTT = 0.875*1 + 0.125*2 = 1.125 -> RTO = 1.125 + 4*0.53125.
    assert est.sample(2.0) == pytest.approx(3.25)
    assert est.srtt == pytest.approx(1.125)
    assert est.rttvar == pytest.approx(0.53125)
    assert est.samples == 3


def test_rto_estimator_clamps_min_and_max():
    est = RtoEstimator(initial=0.25, min_rto=0.5, max_rto=8.0)
    assert est.rto == 0.5  # initial below the floor is clamped up
    assert est.sample(0.01) == 0.5  # raw 0.01 + 4*0.005 = 0.03 -> floor
    est = RtoEstimator(initial=0.25, min_rto=0.02, max_rto=8.0)
    assert est.sample(10.0) == 8.0  # raw 30.0 -> ceiling


def test_rto_estimator_backoff_doubles_and_fresh_sample_resets():
    est = RtoEstimator(initial=3.0, min_rto=0.02, max_rto=8.0, backoff=2.0)
    assert est.on_timeout() == 6.0
    assert est.on_timeout() == 8.0  # capped, not 12
    assert est.on_timeout() == 8.0
    # A clean sample recomputes from SRTT/RTTVAR: backoff cleared.
    assert est.sample(1.0) == pytest.approx(3.0)


def test_rto_estimator_validation():
    with pytest.raises(ConfigError):
        RtoEstimator(min_rto=0.0)
    with pytest.raises(ConfigError):
        RtoEstimator(min_rto=2.0, max_rto=1.0)
    with pytest.raises(ConfigError):
        RtoEstimator(backoff=0.5)
    with pytest.raises(ConfigError):
        RtoEstimator().sample(-1.0)


# -- AckRanges / SendWindow units ---------------------------------------------


def test_ack_ranges_merge_and_floor():
    ranges = AckRanges()
    assert ranges.add(1) and ranges.cumulative == 1
    assert not ranges.add(1)  # duplicate
    assert ranges.add(5) and ranges.add(3) and ranges.add(7)
    assert ranges.ranges() == ((3, 3), (5, 5), (7, 7))
    assert ranges.add(4)  # bridges 3 and 5
    assert ranges.ranges() == ((3, 5), (7, 7))
    assert ranges.add(2)  # floor absorbs the 3-5 block
    assert ranges.cumulative == 5
    assert ranges.ranges() == ((7, 7),)
    assert ranges.add(6)
    assert ranges.cumulative == 7 and ranges.ranges() == ()
    assert all(s in ranges for s in range(1, 8))
    assert 8 not in ranges


def test_ack_ranges_advance_floor_clips_partial_blocks():
    ranges = AckRanges()
    for seq in (3, 4, 8, 9, 12):
        ranges.add(seq)
    ranges.advance_floor(8)
    assert ranges.cumulative == 9  # absorbed the half-covered 8-9 block
    assert ranges.ranges() == ((12, 12),)
    ranges.advance_floor(2)  # monotone: no going back
    assert ranges.cumulative == 9


def test_send_window_base_and_backlog():
    window = SendWindow(4)
    assert window.base == 1  # empty window: base == next_seq
    frame = window.allocate(NodeId("a"), NodeId("b"), ())
    assert frame.seq == 1 and window.next_seq == 2
    assert window.backlog() == 0  # allocation alone is not custody


def test_dupack_threshold_is_classic_tcp():
    assert DUPACK_THRESHOLD == 3

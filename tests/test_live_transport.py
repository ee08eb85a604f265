"""The live wired transport on real sockets, without a cluster.

Two :class:`LiveWiredTransport`\\ s on two loopback UDP sockets share one
event loop in this process (no fork), so a test can reach into both ends
of a channel.  Four things are pinned here:

* the reliable hop itself — per-channel exactly-once under a seeded
  :class:`FaultPlan`, a ``set_down`` peer bridged by retransmission,
  trace rows with the sim's field sets;
* that a frame is never acknowledged unless it can be delivered
  (unhosted destination, malformed envelope);
* **parity** with the simulated fabric where the two used to differ: the
  retry budget and the bound on receiver dedup state, each asserted by
  one helper on both engines;
* **one state machine** — the three mutations of
  ``tests/test_transport_sr.py`` (no timer arming, no Karn's rule, no
  cumulative advance) are applied to :class:`ReliableLink` and each
  flips a property measured on the sockets.
"""

from __future__ import annotations

import asyncio
import random
import socket
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence

import pytest

from repro.live.clock import LiveClock
from repro.live.codec import (
    decode_envelope,
    encode_envelope,
    frame_to_envelope,
    unstamped,
)
from repro.live.engine import AsyncioEngine
from repro.live.transport import LiveWiredTransport
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.reliable import Frame, ReliableLink, RetryPolicy
from repro.net.wired import WiredNetwork
from repro.sim import Simulator, TraceRecorder
from repro.types import NodeId

from .conftest import receiver_ranges, trace_filter
from .test_transport_sr import _FailureAware, _Tagged

A, B = NodeId("mss:a"), NodeId("mss:b")
#: In the address map, behind a socket nobody reads: a black-holed peer.
GHOST = NodeId("mss:ghost")
#: In the address map at B's socket, but B's process does not host it.
STRAY = NodeId("mss:stray")

#: Short timers so a retry budget is spent in a fraction of a second.
FAST = RetryPolicy(timeout=0.02, min_timeout=0.01, max_retries=3, jitter=0.0)


def _bind() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    return sock


class _Live:
    """Nodes A and B: a transport and a loopback socket each, one loop."""

    def __init__(self, plans: Sequence[Optional[FaultPlan]] = (None, None),
                 policy: Optional[RetryPolicy] = None) -> None:
        self.loop = asyncio.new_event_loop()
        self.engine = AsyncioEngine(self.loop, LiveClock.start())
        self.socks = [_bind(), _bind()]
        self.hole = _bind()
        addresses = {A: self.socks[0].getsockname(),
                     B: self.socks[1].getsockname(),
                     GHOST: self.hole.getsockname(),
                     STRAY: self.socks[1].getsockname()}
        self.recorder = TraceRecorder()
        self.sinks = [_FailureAware(A), _FailureAware(B)]
        self.nets = []
        for i, sock in enumerate(self.socks):
            net = LiveWiredTransport(
                self.engine, sock, addresses, rng=random.Random(i),
                recorder=self.recorder, faults=plans[i], policy=policy)
            net.attach(self.sinks[i])
            self.nets.append(net)
            self.loop.add_reader(sock.fileno(), self._pump, sock, net)

    def _pump(self, sock: socket.socket, net: LiveWiredTransport) -> None:
        while True:
            try:
                data, _addr = sock.recvfrom(65536)
            except BlockingIOError:
                return
            net.on_datagram(decode_envelope(data))

    def run_until(self, done: Callable[[], bool], timeout: float = 5.0) -> bool:
        """Turn the loop until *done()* or *timeout*; returns *done()*."""
        async def wait() -> bool:
            deadline = self.loop.time() + timeout
            while not done() and self.loop.time() < deadline:
                await asyncio.sleep(0.002)
            return done()
        return self.loop.run_until_complete(wait())

    def run_for(self, seconds: float) -> None:
        self.run_until(lambda: False, timeout=seconds)

    def send_paced(self, src: int, dst: NodeId, tags: Sequence[str],
                   gap: float = 0.0) -> None:
        """Send one message per loop turn (*gap* > 0: one per frame)."""
        async def go() -> None:
            for tag in tags:
                self.nets[src].send(self.sinks[src].node_id, dst,
                                    _Tagged(tag=tag))
                await asyncio.sleep(gap)
        self.loop.run_until_complete(go())

    def swallowed(self) -> List[Dict[str, Any]]:
        """Every datagram that reached the black hole, decoded."""
        out = []
        while True:
            try:
                data, _addr = self.hole.recvfrom(65536)
            except BlockingIOError:
                return out
            out.append(decode_envelope(data))

    def rows(self, kind: str) -> List[Any]:
        return trace_filter(self.recorder, kind=kind)

    def close(self) -> None:
        for sock in self.socks:
            self.loop.remove_reader(sock.fileno())
        for sock in self.socks + [self.hole]:
            sock.close()
        self.loop.close()


@pytest.fixture
def live():
    made: List[_Live] = []

    def make(**kwargs: Any) -> _Live:
        made.append(_Live(**kwargs))
        return made[-1]
    yield make
    for pair in made:
        pair.close()


def _sim_pair(faults: FaultPlan, policy: Optional[RetryPolicy] = None):
    """The simulated twin of :class:`_Live`: (sim, net, sinks, recorder)."""
    sim = Simulator()
    recorder = TraceRecorder()
    net = WiredNetwork(sim, latency=ConstantLatency(0.001), recorder=recorder,
                       ordering="raw", faults=faults, reliable=True,
                       retry=policy, retry_rng=random.Random(1))
    sinks = [_FailureAware(A), _FailureAware(B)]
    for sink in sinks:
        net.attach(sink)
    return sim, net, sinks, recorder


def _tags(sink: _FailureAware) -> List[str]:
    return [m.tag for m in sink.received]


def _plan(seed: int, **rates: float) -> FaultPlan:
    return FaultPlan(random.Random(seed), reorder_spread=0.02, **rates)


# -- the reliable hop on sockets ----------------------------------------------


def test_exactly_once_per_channel_under_seeded_shaping(live):
    rates = dict(loss=0.25, duplication=0.1, reorder=0.1)
    pair = live(plans=(_plan(11, **rates), _plan(12, **rates)))
    ab = [f"a->b#{i}" for i in range(120)]
    ba = [f"b->a#{i}" for i in range(120)]

    async def both() -> None:
        for x, y in zip(ab, ba):
            pair.nets[0].send(A, B, _Tagged(tag=x))
            pair.nets[1].send(B, A, _Tagged(tag=y))
            await asyncio.sleep(0)
    pair.loop.run_until_complete(both())
    assert pair.run_until(lambda: all(n.transport.pending_count() == 0
                                      for n in pair.nets))
    pair.run_for(0.05)  # a late duplicate would land now
    assert sorted(_tags(pair.sinks[1])) == sorted(ab)
    assert sorted(_tags(pair.sinks[0])) == sorted(ba)
    assert all(m.src == A for m in pair.sinks[1].received)
    # The plan did bite, and the link did the repairing.
    assert pair.rows("wired_drop") and pair.rows("wired_dup")
    assert sum(n.transport.retransmissions for n in pair.nets) > 0
    assert sum(n.transport.duplicates_suppressed for n in pair.nets) > 0
    assert not pair.rows("delivery_failed")


def test_frames_to_a_down_node_stay_unacked_until_it_is_up(live):
    pair = live(policy=RetryPolicy(timeout=0.02, min_timeout=0.01,
                                   jitter=0.0))
    pair.nets[1].set_down(B)
    pair.nets[0].send(A, B, _Tagged(tag="m0"))
    assert pair.run_until(lambda: len(pair.rows("wired_retx")) >= 2)
    assert pair.sinks[1].received == []
    assert pair.nets[1].transport.acks_sent == 0
    assert pair.nets[0].transport.pending_count() == 1
    assert {r.fields["reason"] for r in pair.rows("wired_drop")} == {"down"}
    pair.nets[1].set_up(B)
    assert pair.run_until(
        lambda: pair.nets[0].transport.pending_count() == 0)
    assert _tags(pair.sinks[1]) == ["m0"]


def test_trace_rows_carry_the_sims_field_sets(live):
    kinds = ("send", "recv", "wired_retx", "wired_drop", "wired_dup",
             "delivery_failed")

    def field_sets(recorder: TraceRecorder) -> Dict[str, set]:
        out = {}
        for kind in kinds:
            rows = trace_filter(recorder, kind=kind)
            assert rows, f"scenario produced no {kind} row"
            out[kind] = {frozenset(r.fields) for r in rows}
        return out

    plan = _plan(3, loss=0.3, duplication=0.3)
    sim, net, _sinks, sim_recorder = _sim_pair(plan, policy=FAST)
    for i in range(40):
        sim.schedule(i * 0.01, net.send, A, B, _Tagged(tag=f"m{i}"))
    sim.run()
    plan.set_loss(1.0)
    net.send(A, B, _Tagged(tag="lost"))
    sim.run()

    pair = live(plans=(None, _plan(3, loss=0.3, duplication=0.3)),
                policy=FAST)
    pair.send_paced(0, B, [f"m{i}" for i in range(40)])
    pair.nets[0].send(A, GHOST, _Tagged(tag="lost"))
    assert pair.run_until(lambda: pair.nets[0].transport.pending_count() == 0)
    assert field_sets(pair.recorder) == field_sets(sim_recorder)


# -- an ack is a promise to deliver -------------------------------------------


def test_frame_for_an_unhosted_destination_is_not_acknowledged(live):
    """STRAY resolves to B's socket, but B's process does not host it.
    Acknowledging such a frame (then dropping it) would tell A it had
    been delivered; unacknowledged, A retries and then reports it."""
    pair = live(policy=FAST)
    pair.nets[0].send(A, STRAY, _Tagged(tag="m0"))
    assert pair.run_until(lambda: bool(pair.rows("delivery_failed")))
    assert len(pair.rows("wired_retx")) == FAST.max_retries
    assert [m.tag for m in pair.sinks[0].failed] == ["m0"]
    assert pair.sinks[1].received == []
    assert pair.nets[1].transport.acks_sent == 0


def _data_envelope(**changes: Any) -> Dict[str, Any]:
    """A well-formed A->B data envelope as it comes off the wire, then
    *changes* applied (a value of ``...`` deletes the key)."""
    frame = Frame(src=A, dst=B, seq=1, base=1,
                  batch=(unstamped(_Tagged(tag="m0")),))
    envelope = decode_envelope(encode_envelope(frame_to_envelope(frame)))
    for key, value in changes.items():
        if value is ...:
            del envelope[key]
        else:
            envelope[key] = value
    return envelope


def test_malformed_envelopes_never_reach_the_link(live):
    good = _data_envelope()
    assert good["t"] == "msg" and good["base"] == 1 and len(good["m"]) == 1
    ack_body = {"k": "link_ack", "f": {"msg_id": 1, "src": A, "dst": B,
                                       "seq": 1, "cum": 1, "sacks": []}}
    bad = [
        _data_envelope(base=...),
        _data_envelope(base=0),
        _data_envelope(base=5),             # beyond the frame's own seq
        _data_envelope(seq="1"),
        _data_envelope(m=[]),
        _data_envelope(m=good["m"][0]),     # the pre-batching shape
        _data_envelope(m=[ack_body]),       # an ack posing as data
        _data_envelope(m=[{"k": "no_such_kind", "f": {}}]),
        _data_envelope(src=...),
        _data_envelope(dst=["mss:b"]),
        _data_envelope(dst=STRAY),
        _data_envelope(src="mss:nowhere"),  # no address to answer to
        {"t": "ack", "seq": 1, "src": A, "dst": B},
        {"t": "ack", "seq": 1, "cum": 1, "sacks": [[1]], "src": A, "dst": B},
        {"t": "ack", "seq": 1, "cum": -1, "sacks": [], "src": A, "dst": B},
        {"t": "ack", "seq": 1, "cum": 1, "sacks": [], "src": A, "dst": STRAY},
        {"t": "ack", "m": ack_body, "src": A, "dst": B},
    ]
    pair = live()
    link = pair.nets[1].transport
    for envelope in bad:
        pair.nets[1].on_datagram(envelope)
    pair.run_for(0.05)
    assert pair.sinks[1].received == []
    assert link.acks_sent == 0 and receiver_ranges(link) == 0
    assert not link._recv and not link._windows
    # The well-formed original is, of course, delivered and acknowledged.
    pair.nets[1].on_datagram(good)
    assert _tags(pair.sinks[1]) == ["m0"] and link.acks_sent == 1


# -- parity pins: one helper, both engines ------------------------------------


def _assert_budget_spent(rows: Callable[[str], List[Any]],
                         sender: _FailureAware, link: ReliableLink) -> None:
    """A two-message frame to a peer that never answers: exactly
    ``1 + max_retries`` transmissions, then one ``delivery_failed`` row
    and one ``on_delivery_failure`` call per carried message."""
    assert len(rows("wired_retx")) == FAST.max_retries
    failed = rows("delivery_failed")
    assert sorted(r.fields["msg_id"] for r in failed) == sorted(
        m.msg_id for m in sender.failed)
    assert [m.tag for m in sender.failed] == ["m0", "m1"]
    assert {r.fields["attempts"] for r in failed} == {1 + FAST.max_retries}
    assert link.frames_sent == 1
    assert link.retransmissions == FAST.max_retries
    assert link.pending_count() == 0


def test_retry_budget_sim():
    sim, net, sinks, recorder = _sim_pair(_plan(0, loss=1.0), policy=FAST)
    net.send(A, B, _Tagged(tag="m0"))
    net.send(A, B, _Tagged(tag="m1"))
    sim.run()
    assert len(trace_filter(recorder, kind="wired_drop")) == 1 + FAST.max_retries
    _assert_budget_spent(lambda kind: trace_filter(recorder, kind=kind), sinks[0],
                         net.transport)


def test_retry_budget_live(live):
    pair = live(policy=FAST)
    pair.nets[0].send(A, GHOST, _Tagged(tag="m0"))
    pair.nets[0].send(A, GHOST, _Tagged(tag="m1"))
    assert pair.run_until(lambda: len(pair.rows("delivery_failed")) == 2)
    pair.run_for(0.1)  # a transmission beyond the budget would land now
    transmissions = Counter(env["seq"] for env in pair.swallowed())
    assert set(transmissions.values()) == {1 + FAST.max_retries}
    _assert_budget_spent(pair.rows, pair.sinks[0], pair.nets[0].transport)


SOAK_FRAMES = 2000
SOAK_RATES = dict(loss=0.2, duplication=0.05, reorder=0.05)


def _assert_soak_left_bounded_state(link_tx: ReliableLink,
                                    link_rx: ReliableLink, peak_ranges: int,
                                    receiver: _FailureAware,
                                    messages: int) -> None:
    assert link_tx.frames_sent >= SOAK_FRAMES
    assert sorted(_tags(receiver)) == sorted(f"m{i}" for i in range(messages))
    assert link_rx.duplicates_suppressed > 0
    assert link_tx.pending_count() == 0
    assert receiver_ranges(link_rx) <= link_tx.window
    assert peak_ranges <= link_tx.window
    # Dedup state is a floor plus those ranges — not a set of 2 000 seqs.
    assert link_rx._recv[(A, B)].cumulative == link_tx.frames_sent


def test_receiver_state_stays_window_bounded_sim():
    sim, net, sinks, _recorder = _sim_pair(_plan(21, **SOAK_RATES))
    peak = 0

    def probe() -> None:
        nonlocal peak
        peak = max(peak, receiver_ranges(net.transport))
    for i in range(SOAK_FRAMES):
        sim.schedule(i * 0.002, net.send, A, B, _Tagged(tag=f"m{i}"))
        sim.schedule(i * 0.002 + 0.001, probe)
    sim.run()
    _assert_soak_left_bounded_state(net.transport, net.transport, peak,
                                    sinks[1], SOAK_FRAMES)


def test_receiver_state_stays_window_bounded_live(live):
    pair = live(plans=(None, _plan(21, **SOAK_RATES)))
    link_tx, link_rx = pair.nets[0].transport, pair.nets[1].transport
    peak = sent = 0

    async def go() -> None:
        nonlocal peak, sent
        # Sends in one loop turn share a frame, so count frames.
        while link_tx.frames_sent < SOAK_FRAMES:
            pair.nets[0].send(A, B, _Tagged(tag=f"m{sent}"))
            sent += 1
            await asyncio.sleep(0)
            peak = max(peak, receiver_ranges(link_rx))
    pair.loop.run_until_complete(go())
    assert pair.run_until(lambda: link_tx.pending_count() == 0, timeout=20.0)
    pair.run_for(0.05)
    _assert_soak_left_bounded_state(link_tx, link_rx, peak, pair.sinks[1],
                                    sent)


# -- named properties on sockets, and the mutations that flip them ------------


def _assert_live_timer_recovers_tail_losses(live) -> None:
    """Property: one frame in flight at a time, so a shaped loss has no
    later ack to expose it — only the retransmit timer can repair it."""
    pair = live(plans=(None, _plan(5, loss=0.4)),
                policy=RetryPolicy(timeout=0.02, min_timeout=0.01,
                                   jitter=0.0))
    for i in range(12):
        pair.nets[0].send(A, B, _Tagged(tag=f"m{i}"))
        assert pair.run_until(lambda: len(pair.sinks[1].received) == i + 1,
                              timeout=1.5), f"m{i} was never repaired"
    assert pair.rows("wired_drop")
    assert pair.nets[0].transport.retransmissions > 0


def test_live_retransmit_timer_recovers_tail_losses(live):
    _assert_live_timer_recovers_tail_losses(live)


def test_mutation_broken_timer_arming_fails_live_recovery(live, monkeypatch):
    monkeypatch.setattr(ReliableLink, "_arm",
                        lambda self, channel, pending: None)
    with pytest.raises(AssertionError):
        _assert_live_timer_recovers_tail_losses(live)


LONG_RTT = 0.1


def _live_steady_state_retransmissions(live, n: int = 10) -> int:
    """The Karn scenario of ``test_transport_sr`` on sockets, same
    proportions: the plan holds every frame back 100 ms, twenty times
    the initial RTO, so early frames are always retransmitted before
    their ack returns (and an ambiguous sample reads a quarter RTT)."""
    slow = FaultPlan(random.Random(0), spike_probability=1.0, spike=LONG_RTT)
    pair = live(plans=(None, slow),
                policy=RetryPolicy(timeout=0.005, min_timeout=0.005,
                                   max_timeout=2.0, jitter=0.0))
    pair.send_paced(0, B, [f"m{i}" for i in range(n)], gap=2 * LONG_RTT)
    assert pair.run_until(
        lambda: pair.nets[0].transport.pending_count() == 0)
    assert sorted(set(_tags(pair.sinks[1]))) == sorted(f"m{i}"
                                                       for i in range(n))
    return pair.nets[0].transport.retransmissions


def test_live_karns_rule_bounds_retransmissions(live):
    # Five timeouts while the backoff climbs past the RTT, then one
    # clean sample lifts the RTO above it for good.
    assert _live_steady_state_retransmissions(live) < 9


def test_mutation_broken_karns_rule_storms_on_live_sockets(live, monkeypatch):
    monkeypatch.setattr(ReliableLink, "_rtt_sample_ok",
                        staticmethod(lambda pending: True))
    with pytest.raises(AssertionError):
        assert _live_steady_state_retransmissions(live) < 9


def _assert_live_cumulative_ack_drains_window(live) -> None:
    """Property: on an unshaped loopback every ack is purely cumulative,
    so cumulative advance alone must drain the window."""
    pair = live(policy=RetryPolicy(jitter=0.0))
    pair.send_paced(0, B, [f"m{i}" for i in range(20)])
    drained = pair.run_until(
        lambda: pair.nets[0].transport.pending_count() == 0, timeout=1.0)
    assert _tags(pair.sinks[1])[:20] == [f"m{i}" for i in range(20)]
    assert drained
    assert pair.nets[0].transport.retransmissions == 0


def test_live_cumulative_ack_advances_window(live):
    _assert_live_cumulative_ack_drains_window(live)


def test_mutation_broken_cumulative_advance_wedges_live_window(
        live, monkeypatch):
    monkeypatch.setattr(ReliableLink, "_cumulative_advance",
                        lambda self, window, cum: None)
    with pytest.raises(AssertionError):
        _assert_live_cumulative_ack_drains_window(live)

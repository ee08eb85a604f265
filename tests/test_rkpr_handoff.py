"""RKpR-flag edge cases around hand-off, plus pref-table (per-MH entry)
and inbox semantics the flag machinery depends on (paper, Sections
3.1/3.3)."""

from __future__ import annotations

from repro.core.protocol import AckMsg, DelPrefNoticeMsg, DeregMsg, LeaveMsg, RequestMsg
from repro.net.latency import ConstantLatency
from repro.stations.inbox import (
    PRIORITY_ACK,
    PRIORITY_HANDOFF,
    PRIORITY_NORMAL,
    Inbox,
    default_priority,
)
from repro.stations.pref import Pref
from repro.types import ProxyRef
from repro.verify import Oracle
from tests.conftest import make_world, trace_filter
from tests.test_mss_handoff_table import MH, Station


class TestPrefTable:
    def test_ensure_is_idempotent(self):
        # A re-registration (here a bounce back) keeps the pref and its
        # flags: the station still owns the MH's state.
        s = Station()
        s.join(1)
        pref = s.s0.pref_of(MH)
        pref.rkpr = True
        s.greet("s1", 2)
        assert s.s0.pref_of(MH) is pref and pref.rkpr
        assert len(s.s0.entries) == 1

    def test_install_resets_outstanding(self):
        # outstanding is explicitly NOT part of the hand-off payload: the
        # new respMss rebuilds it from the proxy's re-sends.
        s = Station()
        s.join(1)
        s.s0.pref_of(MH).outstanding.add("a-r1")
        s.dereg("s1", 2)
        s.greet("s1", 3)
        s.deregack("s1", 3, True, "px1", rkpr=True)
        new = s.s0.pref_of(MH)
        assert new.ref == s.ref("px1") and new.rkpr
        assert new.outstanding == set()
        assert s.s0.entries[MH].pref is new

    def test_pop_missing_yields_empty_pref(self):
        # A leave from an unknown MH finds an empty pref: no proxy, so
        # nothing was left pending.
        s = Station()
        s.deliver(LeaveMsg(mh=MH))
        assert s.s0.pref_of(MH) is None
        assert s.world.metrics.count("mh_left_with_pending") == 0

    def test_clear_proxy_drops_flags(self):
        pref = Pref(ref=ProxyRef(mss="mss:s0", proxy_id="px1"), rkpr=True,
                    outstanding={"a-r1"})
        pref.clear_proxy()
        assert pref.ref is None and not pref.rkpr and not pref.outstanding
        assert pref.ref is None


class TestInboxPriorities:
    @staticmethod
    def _inbox(sim, order, **kwargs):
        return Inbox(sim, lambda m: order.append(m.kind),
                     proc_delay=0.01, **kwargs)

    def test_ack_overtakes_queued_dereg(self, sim):
        # Section 3.1: a queued Ack must be forwarded before the dereg
        # that would make the MSS start ignoring the MH.
        order = []
        inbox = self._inbox(sim, order)
        inbox.push(RequestMsg(mh="mh:a", request_id="a-r0", service="echo"))
        inbox.push(DeregMsg(mh="mh:a", seq=1))
        inbox.push(AckMsg(mh="mh:a", request_id="a-r1", delivery_id=1))
        sim.run_until_idle()
        assert order == ["request", "ack", "dereg"]

    def test_ack_priority_disabled_is_fifo(self, sim):
        order = []
        inbox = self._inbox(sim, order, ack_priority=False)
        inbox.push(RequestMsg(mh="mh:a", request_id="a-r0", service="echo"))
        inbox.push(DeregMsg(mh="mh:a", seq=1))
        inbox.push(AckMsg(mh="mh:a", request_id="a-r1", delivery_id=1))
        sim.run_until_idle()
        assert order == ["request", "dereg", "ack"]

    def test_zero_delay_is_synchronous(self, sim):
        order = []
        inbox = Inbox(sim, lambda m: order.append(m.kind), proc_delay=0.0)
        inbox.push(DeregMsg(mh="mh:a", seq=1))
        assert order == ["dereg"] and len(inbox._queue) == 0

    def test_default_priority_classes(self):
        assert default_priority(
            AckMsg(mh="m", request_id="r", delivery_id=1)) == PRIORITY_ACK
        assert default_priority(DeregMsg(mh="m", seq=0)) == PRIORITY_HANDOFF
        assert default_priority(
            RequestMsg(mh="m", request_id="r", service="s")) == PRIORITY_NORMAL


class TestRkprThroughHandoff:
    def test_rkpr_survives_migration_and_kills_proxy_at_new_mss(self):
        """The del-pref flag set at the old respMss rides the hand-off
        payload: after the MH resurfaces elsewhere, the re-sent result's
        Ack at the NEW respMss completes the del-proxy handshake."""
        world = make_world()
        oracle = Oracle().attach(world.recorder)
        world.add_server("echo", service_time=ConstantLatency(1.0))
        client = world.add_host("mh0", world.cells[0])
        host = world.hosts["mh0"]
        s0 = world.stations[world.cells[0]]
        world.run(until=0.2)
        client.request("echo", {"n": 1})
        world.run(until=0.5)
        host.deactivate()                   # the only result misses the MH
        world.run(until=2.0)
        pref = s0.pref_of(host.node_id)
        assert pref is not None and pref.rkpr  # del-pref arrived at old MSS
        assert pref.outstanding             # ... with the Ack still missing
        host.migrate_to(world.cells[1])     # del-pref pending during hand-off
        host.activate()
        world.run(until=10.0)
        s1 = world.stations[world.cells[1]]
        assert s1.pref_of(host.node_id) is not None
        assert len(client.completed) == 1
        assert world.live_proxy_count() == 0  # rkpr honored at the new MSS
        assert oracle.finish() == []

    def test_del_pref_notice_trailing_the_del_proxy_ack_rebuilds_the_pref(self):
        """The notice can trail the Ack that already deleted the proxy.

        s1 holds RKpR with two results outstanding, and the MH acks both
        at once.  The first Ack's forward leaves one request at the proxy,
        which sends a del-pref notice; the second carries del-proxy and
        clears s1's pref.  The notice then finds no proxy reference and
        rebuilds it from its own (``_on_del_pref_notice``'s rebuild
        branch); the next request finds that proxy gone and gets a new one.
        """
        world = make_world()
        oracle = Oracle().attach(world.recorder)
        world.add_server("echo", service_time=ConstantLatency(1.0))
        client = world.add_host("mh0", world.cells[0])
        host = world.hosts["mh0"]
        s1 = world.stations[world.cells[1]]
        world.run(until=0.2)
        client.request("echo", {"n": 1})    # its proxy sits at s0
        world.run(until=0.5)
        host.migrate_to(world.cells[1])     # ... and is now remote
        world.run(until=1.22)
        # Request 2 reaches s1 (t=1.225) before the first result, sent
        # while it was the proxy's only request, sets RKpR there (t=1.235).
        client.request("echo", {"n": 2})
        world.run(until=1.23)
        host.deactivate()                   # both results miss the MH
        world.run(until=3.0)
        host.activate()                     # both re-sent and acked at once
        world.run(until=3.1)
        rebuilt = trace_filter(world.recorder, "proxy_adopt", s1.node_id,
                               how="rebuild")
        assert [round(row.time, 3) for row in rebuilt] == [3.055]
        assert world.live_proxy_count() == 0
        assert s1.pref_of(host.node_id).ref.proxy_id == rebuilt[0].get("proxy_id")
        client.request("echo", {"n": 3})
        world.run(until=10.0)
        assert len(client.completed) == 3
        assert world.metrics.count("prefs_cleared_dangling") == 1
        assert world.live_proxy_count() == 0
        assert oracle.finish() == []

    def test_new_request_invalidates_pending_rkpr(self):
        """Section 3.3: any new request clears Ready-to-Kill-pref, so the
        in-flight Ack of the previous result must NOT delete the proxy."""
        world = make_world(ack_delay=0.2)    # widen the rkpr/ack window
        oracle = Oracle().attach(world.recorder)
        world.add_server("echo", service_time=ConstantLatency(1.0))
        client = world.add_host("mh0", world.cells[0])
        world.run(until=0.2)
        client.request("echo", {"n": 1})
        # Result arrives ~t=1.22, rkpr set; the delayed Ack leaves ~t=1.42.
        world.run(until=1.3)
        assert world.live_proxy_count() == 1
        client.request("echo", {"n": 2})     # clears rkpr before the Ack
        world.run(until=2.0)
        # First Ack processed without del-proxy: the proxy must survive to
        # serve the second request.
        assert world.live_proxy_count() == 1
        world.run(until=10.0)
        assert len(client.completed) == 2
        assert world.live_proxy_count() == 0
        assert oracle.finish() == []

    def test_del_pref_notice_for_departed_mh_is_ignored(self):
        """A del-pref notice that loses the race against the MH's own
        hand-off reaches an MSS that no longer hosts the MH; it must be
        dropped (counted), not resurrect a pref for the departed MH."""
        world = make_world()
        world.add_server("echo", service_time=ConstantLatency(0.2))
        client = world.add_host("mh0", world.cells[0])
        host = world.hosts["mh0"]
        s0 = world.stations[world.cells[0]]
        world.run(until=0.2)
        client.request("echo", {"n": 1})
        world.run(until=2.0)
        host.migrate_to(world.cells[1])
        world.run(until=5.0)
        assert s0.pref_of(host.node_id) is None
        before = world.metrics.count("del_pref_for_absent_mh")
        stale = DelPrefNoticeMsg(
            mh=host.node_id, proxy_ref=ProxyRef(mss=s0.node_id,
                                                proxy_id="px-stale"))
        s0._on_del_pref_notice(stale)
        assert world.metrics.count("del_pref_for_absent_mh") == before + 1
        assert s0.pref_of(host.node_id) is None  # nothing resurrected

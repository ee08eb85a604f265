"""The online invariant oracle: unit checks over synthetic traces, a
clean integration run, and mutation self-tests proving the checkers fire
when known protocol mechanisms are broken."""

from __future__ import annotations

import pytest

from tests.conftest import make_world
from repro.core.proxy import Proxy
from repro.errors import VerificationError
from repro.net.latency import ConstantLatency
from repro.sim.tracing import TraceRecorder
from repro.verify import (
    CausalWiredOrder,
    ExactlyOnceDelivery,
    InvariantViolation,
    NoCustodyLeak,
    NoLostResult,
    Oracle,
    PrefHandoverConsistency,
    SafeProxyDeletion,
    SingleProxyPerSeries,
)


def run_synthetic(checker, rows, finish=True):
    """Feed (time, kind, node, fields) rows through one checker."""
    oracle = Oracle([checker])
    recorder = TraceRecorder()
    oracle.attach(recorder)
    for time, kind, node, fields in rows:
        recorder.record(time, kind, node, **fields)
    if finish:
        oracle.finish()
    return oracle.violations


class TestExactlyOnceDelivery:
    def test_clean_deliveries(self):
        rows = [
            (1.0, "deliver", "mh:a", {"request_id": "a-r1", "delivery_id": 1}),
            (2.0, "deliver", "mh:a", {"request_id": "a-r2", "delivery_id": 2}),
            (2.5, "deliver", "mh:b", {"request_id": "a-r1", "delivery_id": 3}),
        ]
        assert run_synthetic(ExactlyOnceDelivery(), rows) == []

    def test_duplicate_delivery_flagged(self):
        rows = [
            (1.0, "deliver", "mh:a", {"request_id": "a-r1", "delivery_id": 1}),
            (2.0, "deliver", "mh:a", {"request_id": "a-r1", "delivery_id": 9}),
        ]
        violations = run_synthetic(ExactlyOnceDelivery(), rows)
        assert len(violations) == 1
        assert violations[0].invariant == "exactly_once_delivery"
        assert "a-r1" in str(violations[0])


class TestNoLostResult:
    def test_delivered_request_is_clean(self):
        rows = [
            (1.0, "request", "mh:a", {"request_id": "a-r1", "service": "echo"}),
            (2.0, "deliver", "mh:a", {"request_id": "a-r1", "delivery_id": 1}),
        ]
        assert run_synthetic(NoLostResult(), rows) == []

    def test_lost_request_flagged_at_finish(self):
        rows = [
            (1.0, "request", "mh:a", {"request_id": "a-r1", "service": "echo"}),
        ]
        violations = run_synthetic(NoLostResult(), rows)
        assert [v.invariant for v in violations] == ["no_lost_result"]
        # Liveness: nothing fires before finish.
        assert run_synthetic(NoLostResult(), rows, finish=False) == []

    def test_open_subscription_is_not_a_lost_result(self):
        """A subscription's own id completes only when the server closes
        it: left open at the end of a run, it is no violation."""
        from repro.servers.multicast import GroupServer

        world = make_world()
        oracle = Oracle().attach(world.recorder)
        world.add_server("groups", GroupServer)
        client = world.add_host("m", world.cells[0])
        sub = client.subscribe("groups", {"group": "g"})
        world.run_until_idle()
        assert sub.active
        assert world.recorder.filter(kind="request")[0].get("subscription") is True
        assert oracle.finish() == []

    def test_lost_request_beside_an_open_subscription_still_flagged(self):
        from repro.servers.echo import ManualServer
        from repro.servers.multicast import GroupServer

        world = make_world()
        oracle = Oracle().attach(world.recorder)
        world.add_server("groups", GroupServer)
        world.add_server("manual", ManualServer)
        client = world.add_host("m", world.cells[0])
        client.subscribe("groups", {"group": "g"})
        stuck = client.request("manual", 1)
        world.run_until_idle()
        violations = oracle.finish()
        assert [v.invariant for v in violations] == ["no_lost_result"]
        assert str(stuck.request_id) in violations[0].detail
        assert "subscription" not in world.recorder.filter(
            kind="request", request_id=stuck.request_id)[0].fields


class TestSingleProxyPerSeries:
    def test_successor_then_cleanup_is_clean(self):
        rows = [
            (1.0, "proxy_create", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
            (2.0, "proxy_create", "mss:s1", {"mh": "mh:a", "proxy_id": "px2"}),
            (2.1, "proxy_delete", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
            (3.0, "proxy_admit", "mss:s1",
             {"mh": "mh:a", "proxy_id": "px2", "request_id": "a-r2"}),
        ]
        assert run_synthetic(SingleProxyPerSeries(), rows) == []

    def test_superseded_proxy_admitting_flagged(self):
        rows = [
            (1.0, "proxy_create", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
            (2.0, "proxy_create", "mss:s1", {"mh": "mh:a", "proxy_id": "px2"}),
            (3.0, "proxy_admit", "mss:s0",
             {"mh": "mh:a", "proxy_id": "px1", "request_id": "a-r2"}),
        ]
        violations = run_synthetic(SingleProxyPerSeries(), rows, finish=False)
        assert [v.invariant for v in violations] == ["single_proxy_per_series"]

    def test_lingering_superseded_proxy_flagged(self):
        rows = [
            (1.0, "proxy_create", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
            (2.0, "proxy_create", "mss:s1", {"mh": "mh:a", "proxy_id": "px2"}),
        ]
        violations = run_synthetic(SingleProxyPerSeries(), rows)
        assert len(violations) == 1
        assert "never deleted" in str(violations[0])


class TestSafeProxyDeletion:
    def test_acked_then_deleted_is_clean(self):
        rows = [
            (1.0, "proxy_create", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
            (1.5, "proxy_admit", "mss:s0",
             {"mh": "mh:a", "proxy_id": "px1", "request_id": "a-r1"}),
            (2.0, "proxy_ack", "mss:s0",
             {"mh": "mh:a", "proxy_id": "px1", "request_id": "a-r1"}),
            (2.1, "proxy_delete", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
        ]
        assert run_synthetic(SafeProxyDeletion(), rows) == []

    def test_deletion_with_unacked_request_flagged(self):
        rows = [
            (1.0, "proxy_create", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
            (1.5, "proxy_admit", "mss:s0",
             {"mh": "mh:a", "proxy_id": "px1", "request_id": "a-r1"}),
            (2.0, "proxy_delete", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
        ]
        violations = run_synthetic(SafeProxyDeletion(), rows)
        assert [v.invariant for v in violations] == ["safe_proxy_deletion"]
        assert "a-r1" in str(violations[0])

    def test_migration_transfers_custody(self):
        rows = [
            (1.0, "proxy_create", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
            (1.5, "proxy_admit", "mss:s0",
             {"mh": "mh:a", "proxy_id": "px1", "request_id": "a-r1"}),
            (2.0, "proxy_move", "mss:s0",
             {"mh": "mh:a", "proxy_id": "px1", "to": "mss:s1",
              "new_proxy_id": "px2"}),
            (2.0, "proxy_delete", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
            (2.1, "proxy_create", "mss:s1", {"mh": "mh:a", "proxy_id": "px2"}),
            (3.0, "proxy_ack", "mss:s1",
             {"mh": "mh:a", "proxy_id": "px2", "request_id": "a-r1"}),
            (3.1, "proxy_delete", "mss:s1", {"mh": "mh:a", "proxy_id": "px2"}),
        ]
        assert run_synthetic(SafeProxyDeletion(), rows) == []


class TestNoCustodyLeak:
    CREATE = (1.0, "proxy_create", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"})
    RESULT = (2.0, "proxy_result", "mss:s0",
              {"mh": "mh:a", "proxy_id": "px1", "request_id": "a-r1"})

    def test_acked_custody_is_clean(self):
        rows = [self.CREATE, self.RESULT,
                (3.0, "proxy_ack", "mss:s0",
                 {"mh": "mh:a", "proxy_id": "px1", "request_id": "a-r1"})]
        assert run_synthetic(NoCustodyLeak(), rows) == []

    def test_custody_held_at_finish_flagged(self):
        violations = run_synthetic(NoCustodyLeak(), [self.CREATE, self.RESULT])
        assert [v.invariant for v in violations] == ["no_custody_leak"]
        assert "a-r1" in str(violations[0])

    def test_expiry_discharges_custody(self):
        rows = [self.CREATE, self.RESULT,
                (4.0, "custody_expired", "mss:s0",
                 {"mh": "mh:a", "proxy_id": "px1", "request_id": "a-r1",
                  "age": 2.0})]
        assert run_synthetic(NoCustodyLeak(), rows) == []

    def test_deletion_while_holding_custody_flagged(self):
        rows = [self.CREATE, self.RESULT,
                (3.0, "proxy_delete", "mss:s0",
                 {"mh": "mh:a", "proxy_id": "px1"})]
        violations = run_synthetic(NoCustodyLeak(), rows)
        assert [v.invariant for v in violations] == ["no_custody_leak"]
        assert "deleted while still holding" in str(violations[0])

    def test_migration_rehomes_custody(self):
        rows = [self.CREATE, self.RESULT,
                (3.0, "proxy_move", "mss:s0",
                 {"mh": "mh:a", "proxy_id": "px1", "to": "mss:s1",
                  "new_proxy_id": "px2"}),
                (3.0, "proxy_delete", "mss:s0",
                 {"mh": "mh:a", "proxy_id": "px1"}),
                (3.1, "proxy_create", "mss:s1",
                 {"mh": "mh:a", "proxy_id": "px2"}),
                (4.0, "proxy_ack", "mss:s1",
                 {"mh": "mh:a", "proxy_id": "px2", "request_id": "a-r1"})]
        assert run_synthetic(NoCustodyLeak(), rows) == []

    def test_mss_crash_absolves_volatile_custody(self):
        rows = [self.CREATE, self.RESULT,
                (3.0, "mss_crash", "mss:s0", {})]
        assert run_synthetic(NoCustodyLeak(), rows) == []


class TestProxyAdoption:
    """MSS-amnesia forks: pref-ref adoption designates the serving proxy
    and the orphan stub is exempt from deletion-liveness (but must still
    never admit)."""

    FORK = [
        (1.0, "proxy_create", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
        # s0 crashed and forgot; blind re-registration forks the series.
        (2.0, "proxy_create", "mss:s1", {"mh": "mh:a", "proxy_id": "px2"}),
    ]

    def test_adoption_reinstates_old_proxy_and_absolves_stub(self):
        rows = self.FORK + [
            # The pref chain heals by re-designating the ORIGINAL proxy.
            (3.0, "proxy_adopt", "mss:s0", {"mh": "mh:a", "proxy_id": "px1",
                                            "how": "refresh"}),
            (4.0, "proxy_admit", "mss:s0",
             {"mh": "mh:a", "proxy_id": "px1", "request_id": "a-r2"}),
        ]
        # px2 is the fork's orphan stub: never deleted, yet not a leak.
        assert run_synthetic(SingleProxyPerSeries(), rows) == []

    def test_fork_loser_admitting_still_flagged(self):
        rows = self.FORK + [
            (3.0, "proxy_adopt", "mss:s0", {"mh": "mh:a", "proxy_id": "px1",
                                            "how": "refresh"}),
            (4.0, "proxy_admit", "mss:s1",
             {"mh": "mh:a", "proxy_id": "px2", "request_id": "a-r2"}),
        ]
        violations = run_synthetic(SingleProxyPerSeries(), rows, finish=False)
        assert [v.invariant for v in violations] == ["single_proxy_per_series"]


class TestCausalWiredOrder:
    @staticmethod
    def _send(t, node, msg_id):
        return (t, "send", node, {"net": "wired", "msg_id": msg_id,
                                  "msg": "m", "dst": "x"})

    @staticmethod
    def _recv(t, node, msg_id, src="x"):
        return (t, "recv", node, {"net": "wired", "msg_id": msg_id,
                                  "msg": "m", "src": src})

    def test_causal_order_respected(self):
        rows = [
            self._send(1.0, "A", 1),          # A -> C
            self._send(1.1, "A", 2),          # A -> B
            self._recv(1.2, "B", 2),
            self._send(1.3, "B", 3),          # B -> C (after hearing from A)
            self._recv(1.4, "C", 1),          # m1 before m3: fine
            self._recv(1.5, "C", 3),
        ]
        assert run_synthetic(CausalWiredOrder(), rows) == []

    def test_causal_inversion_flagged(self):
        rows = [
            self._send(1.0, "A", 1),          # A -> C   (slow)
            self._send(1.1, "A", 2),          # A -> B
            self._recv(1.2, "B", 2),
            self._send(1.3, "B", 3),          # B -> C
            self._recv(1.4, "C", 3),          # m3 overtakes m1
            self._recv(1.5, "C", 1),
        ]
        violations = run_synthetic(CausalWiredOrder(), rows, finish=False)
        assert [v.invariant for v in violations] == ["causal_wired_order"]

    def test_local_dispatch_ignored(self):
        rows = [
            (1.0, "send", "A", {"net": "local", "msg_id": 1, "msg": "m",
                                "dst": "A"}),
        ]
        assert run_synthetic(CausalWiredOrder(), rows) == []


class TestPrefHandoverConsistency:
    def test_handoff_releases_ownership(self):
        rows = [
            (1.0, "register", "mss:s0", {"mh": "mh:a", "seq": 0, "how": "join"}),
            (2.0, "handoff_out", "mss:s0", {"mh": "mh:a", "to": "mss:s1"}),
            (2.1, "register", "mss:s1",
             {"mh": "mh:a", "seq": 1, "how": "handoff"}),
        ]
        assert run_synthetic(PrefHandoverConsistency(), rows) == []

    def test_dual_registration_flagged(self):
        rows = [
            (1.0, "register", "mss:s0", {"mh": "mh:a", "seq": 0, "how": "join"}),
            (2.0, "register", "mss:s1", {"mh": "mh:a", "seq": 1, "how": "join"}),
        ]
        violations = run_synthetic(PrefHandoverConsistency(), rows)
        assert [v.invariant for v in violations] == ["pref_handover_consistency"]

    def test_handoff_with_unknown_proxy_ref_flagged(self):
        rows = [
            (1.0, "register", "mss:s0", {"mh": "mh:a", "seq": 0, "how": "join"}),
            (2.0, "handoff_out", "mss:s0", {"mh": "mh:a", "to": "mss:s1"}),
            (2.1, "handoff_done", "mss:s1",
             {"mh": "mh:a", "old": "mss:s0", "duration": 0.1,
              "proxy_id": "px99"}),
        ]
        violations = run_synthetic(PrefHandoverConsistency(), rows)
        assert len(violations) == 1
        assert "px99" in str(violations[0])

    def test_handoff_ref_follows_proxy_move_renames(self):
        rows = [
            (1.0, "register", "mss:s0", {"mh": "mh:a", "seq": 0, "how": "join"}),
            (1.1, "proxy_create", "mss:s0", {"mh": "mh:a", "proxy_id": "px1"}),
            (1.5, "proxy_move", "mss:s0",
             {"mh": "mh:a", "proxy_id": "px1", "to": "mss:s1",
              "new_proxy_id": "px2"}),
            (1.6, "proxy_create", "mss:s1", {"mh": "mh:a", "proxy_id": "px2"}),
            (2.0, "handoff_out", "mss:s0", {"mh": "mh:a", "to": "mss:s1"}),
            (2.1, "handoff_done", "mss:s1",
             {"mh": "mh:a", "old": "mss:s0", "duration": 0.1,
              "proxy_id": "px1"}),
        ]
        assert run_synthetic(PrefHandoverConsistency(), rows) == []


class TestOracle:
    def test_raise_immediately_mode(self):
        oracle = Oracle([ExactlyOnceDelivery()], raise_immediately=True)
        recorder = TraceRecorder()
        oracle.attach(recorder)
        recorder.record(1.0, "deliver", "mh:a", request_id="a-r1", delivery_id=1)
        with pytest.raises(InvariantViolation) as err:
            recorder.record(2.0, "deliver", "mh:a", request_id="a-r1",
                            delivery_id=2)
        assert err.value.invariant == "exactly_once_delivery"
        assert err.value.trace_slice  # carries the offending window

    def test_detach_stops_observing(self):
        oracle = Oracle([ExactlyOnceDelivery()])
        recorder = TraceRecorder()
        oracle.attach(recorder)
        recorder.record(1.0, "deliver", "mh:a", request_id="a-r1", delivery_id=1)
        oracle.detach()
        recorder.record(2.0, "deliver", "mh:a", request_id="a-r1", delivery_id=2)
        assert oracle.violations == []

    def test_attach_twice_raises_instead_of_double_subscribing(self):
        # Subscribing twice would hand each row to every checker twice:
        # one clean delivery would read as a duplicate.
        oracle = Oracle([ExactlyOnceDelivery()])
        recorder = TraceRecorder()
        oracle.attach(recorder)
        with pytest.raises(VerificationError):
            oracle.attach(recorder)
        recorder.record(1.0, "deliver", "mh:a", request_id="a-r1", delivery_id=1)
        assert oracle.violations == []

    def test_attach_elsewhere_raises_and_detach_releases_the_first(self):
        oracle = Oracle([ExactlyOnceDelivery()])
        first, second = TraceRecorder(), TraceRecorder()
        oracle.attach(first)
        with pytest.raises(VerificationError):
            oracle.attach(second)
        oracle.detach()
        for recorder in (first, second):
            for delivery_id in (1, 2):
                recorder.record(1.0, "deliver", "mh:a", request_id="a-r1",
                                delivery_id=delivery_id)
        assert oracle.violations == []

    def test_summary_counts_by_invariant(self):
        violations = run_synthetic(NoLostResult(), [
            (1.0, "request", "mh:a", {"request_id": "a-r1", "service": "echo"}),
        ])
        assert violations  # sanity
        oracle = Oracle([NoLostResult()])
        assert oracle.summary() == "all invariants held"


class TestCleanIntegrationRun:
    def test_migrating_host_holds_all_invariants(self):
        world = make_world()
        oracle = Oracle().attach(world.recorder)
        world.add_server("echo", service_time=ConstantLatency(0.3))
        client = world.add_host("mh0", world.cells[0])
        host = world.hosts["mh0"]
        world.run(until=0.1)
        client.request("echo", {"n": 1})
        world.run(until=0.2)
        host.migrate_to(world.cells[1])     # migrate with the result in flight
        world.run(until=1.0)
        client.request("echo", {"n": 2})
        world.run(until=5.0)
        violations = oracle.finish()
        assert violations == []
        assert len(client.completed) == 2


class TestMutations:
    """Break a known protocol mechanism; the oracle must notice."""

    def test_suppressed_retransmission_loses_result(self, monkeypatch):
        # an update_currentloc that moves the pointer but "forgets" the
        # paper's re-send loop strands any result that missed the MH.
        def lazy_update(self, msg):
            self.currentloc = msg.new_mss

        monkeypatch.setattr(Proxy, "handle_update_currentloc", lazy_update)
        world = make_world()
        oracle = Oracle().attach(world.recorder)
        world.add_server("echo", service_time=ConstantLatency(1.0))
        client = world.add_host("mh0", world.cells[0])
        host = world.hosts["mh0"]
        world.run(until=0.2)
        client.request("echo", {"n": 1})
        world.run(until=0.5)
        host.deactivate()                    # result will miss the MH
        world.run(until=2.0)
        host.migrate_to(world.cells[1])      # move while asleep
        world.run(until=3.0)
        host.activate()                      # hand-off; update_currentloc
        world.run(until=30.0)
        violations = oracle.finish()
        assert "no_lost_result" in {v.invariant for v in violations}
        assert not client.completed

    def test_raw_ordering_breaks_causal_invariant(self):
        # The an6 ablation: raw wired delivery under latency jitter lets
        # relayed messages overtake their causal predecessors.
        from dataclasses import replace

        from repro.verify import FuzzConfig, generate_case, run_case

        case = generate_case(2, FuzzConfig(ordering="raw"))
        case = replace(case, profile=replace(case.profile, wired_jitter=0.008))
        result = run_case(case, "rdp")
        assert "causal_wired_order" in result.invariants_hit()

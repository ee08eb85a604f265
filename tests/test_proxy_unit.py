"""Unit tests for the Proxy object against a fake hosting MSS."""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import pytest

from repro.core.protocol import (
    AckForwardMsg,
    DelPrefNoticeMsg,
    ForwardedRequestMsg,
    NotificationMsg,
    ResultForwardMsg,
    ServerAckMsg,
    ServerRequestMsg,
    ServerResultMsg,
    SubscriptionEndMsg,
    UpdateCurrentLocMsg,
)
from repro.core.proxy import Proxy
from repro.instruments import Instruments
from repro.sim import Simulator
from repro.types import NodeId, ProxyId, RequestId


class FakeHost:
    """Captures everything the proxy sends."""

    def __init__(self) -> None:
        self.node_id = NodeId("mss:host")
        self.sent: List[Tuple[NodeId, Any]] = []
        self.removed: List[ProxyId] = []
        self.services = {"echo": NodeId("srv:echo")}

    def proxy_wired_send(self, dst: NodeId, message: Any) -> None:
        self.sent.append((dst, message))

    def resolve_service(self, service: str) -> Optional[NodeId]:
        return self.services.get(service)

    def remove_proxy(self, proxy_id: ProxyId) -> None:
        self.removed.append(proxy_id)

    def of_kind(self, cls) -> List[Any]:
        return [m for _, m in self.sent if isinstance(m, cls)]


@pytest.fixture
def setup():
    sim = Simulator()
    host = FakeHost()
    proxy = Proxy(sim, host, NodeId("mh:m"), ProxyId("px"), Instruments())
    return sim, host, proxy


def _admit(proxy, rid: str, service: str = "echo", payload: Any = None) -> RequestId:
    request_id = RequestId(rid)
    proxy.admit_request(request_id, service, payload)
    return request_id


def _result(proxy, rid: RequestId, payload: Any = "res") -> None:
    proxy.handle_server_result(ServerResultMsg(
        request_id=rid, proxy_id=proxy.proxy_id, payload=payload))


def _ack(proxy, rid: RequestId, del_proxy: bool = False) -> None:
    fwd = [m for m in proxy.host.of_kind(ResultForwardMsg)
           if m.request_id == rid]
    delivery_id = fwd[-1].delivery_id if fwd else 0
    proxy.handle_ack_forward(AckForwardMsg(
        mh=proxy.mh, proxy_id=proxy.proxy_id, request_id=rid,
        delivery_id=delivery_id, del_proxy=del_proxy))


def test_admit_dispatches_to_server(setup):
    sim, host, proxy = setup
    rid = _admit(proxy, "r1", payload={"q": 1})
    reqs = host.of_kind(ServerRequestMsg)
    assert len(reqs) == 1
    assert reqs[0].request_id == rid
    assert reqs[0].reply_to == proxy.ref
    assert host.sent[0][0] == NodeId("srv:echo")
    assert len(proxy.requestlist) == 1


def test_duplicate_request_ignored(setup):
    sim, host, proxy = setup
    _admit(proxy, "r1")
    _admit(proxy, "r1")
    assert len(host.of_kind(ServerRequestMsg)) == 1


def test_unknown_service_yields_error_result(setup):
    sim, host, proxy = setup
    _admit(proxy, "r1", service="ghost")
    fwd = host.of_kind(ResultForwardMsg)
    assert len(fwd) == 1
    assert "error" in fwd[0].payload


def test_result_forwarded_with_del_pref_when_sole_pending(setup):
    sim, host, proxy = setup
    rid = _admit(proxy, "r1")
    _result(proxy, rid)
    fwd = host.of_kind(ResultForwardMsg)
    assert len(fwd) == 1
    assert fwd[0].del_pref is True
    assert fwd[0].retransmission is False
    assert fwd[0].payload == "res"


def test_result_without_del_pref_when_others_pending(setup):
    sim, host, proxy = setup
    r1 = _admit(proxy, "r1")
    _admit(proxy, "r2")
    _result(proxy, r1)
    fwd = host.of_kind(ResultForwardMsg)
    assert fwd[0].del_pref is False


def test_stale_server_result_ignored(setup):
    sim, host, proxy = setup
    rid = _admit(proxy, "r1")
    _result(proxy, rid)
    _result(proxy, rid)  # duplicate from server
    assert len(host.of_kind(ResultForwardMsg)) == 1


def test_update_currentloc_resends_unacked(setup):
    sim, host, proxy = setup
    rid = _admit(proxy, "r1")
    _result(proxy, rid)
    proxy.handle_update_currentloc(UpdateCurrentLocMsg(
        mh=proxy.mh, proxy_id=proxy.proxy_id, new_mss=NodeId("mss:new")))
    fwd = host.of_kind(ResultForwardMsg)
    assert len(fwd) == 2
    assert proxy.currentloc == NodeId("mss:new")
    assert host.sent[-1][0] == NodeId("mss:new")
    assert fwd[1].retransmission is True
    assert fwd[1].delivery_id == fwd[0].delivery_id  # stable across resends


def test_update_does_not_resend_pending_without_result(setup):
    sim, host, proxy = setup
    _admit(proxy, "r1")
    proxy.handle_update_currentloc(UpdateCurrentLocMsg(
        mh=proxy.mh, proxy_id=proxy.proxy_id, new_mss=NodeId("mss:new")))
    assert host.of_kind(ResultForwardMsg) == []


def test_ack_completes_and_del_proxy_deletes(setup):
    sim, host, proxy = setup
    rid = _admit(proxy, "r1")
    _result(proxy, rid)
    _ack(proxy, rid, del_proxy=True)
    assert proxy.deleted
    assert host.removed == [proxy.proxy_id]
    assert len(proxy.requestlist) == 0


def test_del_proxy_with_pending_requests_is_refused(setup):
    sim, host, proxy = setup
    r1 = _admit(proxy, "r1")
    _admit(proxy, "r2")
    _result(proxy, r1)
    _ack(proxy, r1, del_proxy=True)  # inconsistent: r2 still pending
    assert not proxy.deleted
    assert proxy.instr.metrics.count("proxy_del_proxy_with_pending") == 1


def test_duplicate_ack_counted_not_fatal(setup):
    sim, host, proxy = setup
    rid = _admit(proxy, "r1")
    _result(proxy, rid)
    _ack(proxy, rid)
    _ack(proxy, rid)
    assert proxy.instr.metrics.count("proxy_duplicate_acks") == 1


def test_del_pref_notice_after_ack_leaves_one_forwarded(setup):
    """Figure 4: AckB leaves only requestC pending, whose result was
    already forwarded -> special del-pref message."""
    sim, host, proxy = setup
    rb = _admit(proxy, "rB")
    rc = _admit(proxy, "rC")
    _result(proxy, rb)
    _result(proxy, rc)   # forwarded while {B, C} pending -> no del-pref
    assert all(not m.del_pref for m in host.of_kind(ResultForwardMsg))
    _ack(proxy, rb)
    notices = host.of_kind(DelPrefNoticeMsg)
    assert len(notices) == 1
    assert notices[0].proxy_ref == proxy.ref


def test_no_notice_when_last_pending_result_not_arrived(setup):
    sim, host, proxy = setup
    rb = _admit(proxy, "rB")
    _admit(proxy, "rC")
    _result(proxy, rb)
    _ack(proxy, rb)
    assert host.of_kind(DelPrefNoticeMsg) == []


def test_server_ack_sent_when_enabled():
    sim = Simulator()
    host = FakeHost()
    proxy = Proxy(sim, host, NodeId("mh:m"), ProxyId("px"), Instruments(),
                  send_server_acks=True)
    rid = _admit(proxy, "r1")
    _result(proxy, rid)
    _ack(proxy, rid, del_proxy=True)
    acks = host.of_kind(ServerAckMsg)
    assert len(acks) == 1 and acks[0].request_id == rid


def test_subscription_stays_pending_and_notifications_flow(setup):
    sim, host, proxy = setup
    sub = RequestId("s1")
    proxy.admit_request(sub, "echo", {"subscribe": True, "topic": "t"})
    proxy.handle_notification(NotificationMsg(
        subscription_id=sub, proxy_id=proxy.proxy_id, seq=1, payload="n1"))
    proxy.handle_notification(NotificationMsg(
        subscription_id=sub, proxy_id=proxy.proxy_id, seq=2, payload="n2"))
    fwd = host.of_kind(ResultForwardMsg)
    assert [m.payload for m in fwd] == ["n1", "n2"]
    assert all(not m.del_pref for m in fwd)  # the subscription stays pending
    # Ack the notifications: subscription still pending, proxy alive.
    _ack(proxy, RequestId("s1#n1"))
    _ack(proxy, RequestId("s1#n2"))
    assert not proxy.deleted
    assert len(proxy.requestlist) == 1


def test_duplicate_notification_seq_ignored(setup):
    sim, host, proxy = setup
    sub = RequestId("s1")
    proxy.admit_request(sub, "echo", {"subscribe": True})
    for _ in range(2):
        proxy.handle_notification(NotificationMsg(
            subscription_id=sub, proxy_id=proxy.proxy_id, seq=1, payload="n1"))
    assert len(host.of_kind(ResultForwardMsg)) == 1


def test_notification_for_unknown_subscription_dropped(setup):
    sim, host, proxy = setup
    proxy.handle_notification(NotificationMsg(
        subscription_id=RequestId("ghost"), proxy_id=proxy.proxy_id,
        seq=1, payload="x"))
    assert host.of_kind(ResultForwardMsg) == []


def test_subscription_end_completes_subscribe_request(setup):
    sim, host, proxy = setup
    sub = RequestId("s1")
    proxy.admit_request(sub, "echo", {"subscribe": True})
    proxy.handle_subscription_end(SubscriptionEndMsg(
        subscription_id=sub, proxy_id=proxy.proxy_id, payload="bye"))
    fwd = host.of_kind(ResultForwardMsg)
    assert len(fwd) == 1 and fwd[0].payload == "bye"
    assert fwd[0].del_pref is True  # now the sole pending request
    _ack(proxy, sub, del_proxy=True)
    assert proxy.deleted


def test_request_completion_time_observed(setup):
    sim, host, proxy = setup
    rid = _admit(proxy, "r1")
    _result(proxy, rid)
    _ack(proxy, rid)
    assert len(proxy.instr.metrics.samples("request_completion_time")) == 1

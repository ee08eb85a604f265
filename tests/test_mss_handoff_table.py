"""Characterisation of the MSS hand-off: the state x message table of
docs/PROTOCOL.md §3, one row per test case.

Each case drives station ``s0`` of a three-cell world into a state with
synthetic messages only (join, greet, dereg, deregack, a remote proxy
creation), then delivers one more message — or lets the clock run — and
asserts exactly what ``s0`` sent on the wired and wireless links, which
of its counters moved, which trace rows it left and which
:class:`~repro.stations.mss.Row` each of its ``handoff_row`` calls
returned (recorded by wrapping the classifier).  Outgoing messages are
captured, not transmitted, so no peer ever answers.  Nothing here reads
the station's per-MH state, so the table pins behaviour, not layout.

The states overlap (a surrendered MH can be re-acquired, a join can
register an MH whose acquisition is still open); the cases named
"overlap" are those.  The last tests check that the cases reach every
``Row`` and that docs/PROTOCOL.md §3 states the same rows and counters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import pytest

from repro.core.protocol import (
    AckMsg,
    DeregAckMsg,
    DeregMsg,
    ForwardedRequestMsg,
    GreetMsg,
    JoinMsg,
    PrefPayload,
    ProxyCreatedMsg,
    RequestMsg,
    ResultForwardMsg,
)
from repro.stations import mss
from repro.stations.mss import Row
from repro.types import NodeId, ProxyId, ProxyRef
from tests.conftest import make_world

MH = NodeId("mh:x")
CLASSIFY = mss.handoff_row
IGNORED_COUNTERS = {"mss_messages_processed"}


class _RemotePlacement:
    """Place every proxy at one fixed other station (a remote creation)."""

    def __init__(self, target: NodeId) -> None:
        self.target = target

    def place(self, mh: NodeId, resp_mss: NodeId) -> NodeId:
        return self.target


class Station:
    """Station ``s0`` with its outgoing traffic captured."""

    def __init__(self, monkeypatch: Optional[pytest.MonkeyPatch] = None) -> None:
        self.world = make_world()
        self.s0, self.s1, self.s2 = (self.world.stations[cell]
                                     for cell in self.world.cells)
        self.alias = {self.s0.node_id: "s0", self.s1.node_id: "s1",
                      self.s2.node_id: "s2", MH: "mh"}
        self.sent: List[str] = []
        self.times: List[float] = []   # when each entry of `sent` left
        self.hits: List[Row] = []      # s0's rows, given a monkeypatch
        self.s0._wired_send = self._capture
        self.s0._downlink = self._capture
        if monkeypatch is not None:
            monkeypatch.setattr(mss, "handoff_row", self._classify)

    def _classify(self, entry, msg, here, in_cell=False) -> Row:
        row = CLASSIFY(entry, msg, here, in_cell)
        if here == self.s0.node_id:
            self.hits.append(row)
        return row

    def _capture(self, dst: NodeId, msg) -> None:
        self.sent.append(self._render(dst, msg))
        self.times.append(self.world.sim.now)

    def node(self, name: str) -> NodeId:
        return {"s0": self.s0, "s1": self.s1, "s2": self.s2}[name].node_id

    def ref(self, proxy: str, at: str = "s2") -> ProxyRef:
        return ProxyRef(mss=self.node(at), proxy_id=ProxyId(proxy))

    def _render(self, dst: NodeId, msg) -> str:
        parts = [self.alias.get(dst, dst), msg.kind]
        for name in ("seq", "found", "proxy_id", "request_id"):
            if hasattr(msg, name):
                parts.append(f"{name}={getattr(msg, name)}")
        if isinstance(msg, DeregAckMsg) and msg.found:
            ref = msg.pref.ref
            parts.append(f"pref={ref.proxy_id if ref else None}")
        return " ".join(parts)

    # -- inputs -----------------------------------------------------------

    def deliver(self, msg, src: str = "") -> None:
        if src:
            msg.src = self.node(src)
        self.s0._handle(msg)

    def join(self, seq: int) -> None:
        self.deliver(JoinMsg(mh=MH, seq=seq))

    def greet(self, old: str, seq: int, candidates=()) -> None:
        self.deliver(GreetMsg(mh=MH, old_mss=self.node(old), seq=seq,
                              old_candidates=tuple(self.node(c)
                                                   for c in candidates)))

    def dereg(self, src: str, seq: int) -> None:
        self.deliver(DeregMsg(mh=MH, seq=seq), src)

    def deregack(self, src: str, seq: int, found: bool, proxy: str = "",
                 rkpr: bool = False) -> None:
        payload = PrefPayload(ref=self.ref(proxy) if proxy else None, rkpr=rkpr)
        self.deliver(DeregAckMsg(mh=MH, seq=seq, found=found, pref=payload),
                     src)

    def ack(self, request_id: str = "r1") -> None:
        self.deliver(AckMsg(mh=MH, request_id=request_id, delivery_id=1))

    def result_forward(self, proxy: str, request_id: str) -> None:
        self.deliver(ResultForwardMsg(mh=MH, proxy_ref=self.ref(proxy),
                                      request_id=request_id, delivery_id=1))

    def run(self, until: float) -> None:
        self.world.run(until=until)

    def in_cell(self) -> None:
        """Radio-level knowledge says the MH is physically here."""
        self.s0._host_in_cell = lambda mh: True

    # -- composite states ---------------------------------------------------

    def local_with_proxy(self, seq: int = 3) -> None:
        """Acquired through a completed hand-off: local, pref -> pxA@s2."""
        self.greet("s1", seq)
        self.deregack("s1", seq, True, "pxA")

    def surrendered(self) -> None:
        """Registered here at #3, then handed off to s1 at #4."""
        self.join(3)
        self.dereg("s1", 4)

    def creating(self) -> None:
        """Local at #3 with a remote proxy creation (at s1) in flight."""
        self.join(3)
        self.s0.placement = _RemotePlacement(self.node("s1"))
        self.deliver(RequestMsg(mh=MH, request_id="r1", service="echo"))

    def foreign_delivery(self) -> None:
        """Local at #3, its local proxy serving r1; pxZ@s2 delivered r9."""
        self.join(3)
        self.deliver(RequestMsg(mh=MH, request_id="r1", service="echo"))
        (proxy_id,) = self.s0.proxies   # created here by that request
        self.deliver(ForwardedRequestMsg(mh=MH, proxy_id=proxy_id,
                                         request_id="r1", service="echo"),
                     "s0")
        self.result_forward("pxZ", "r9")

    # -- observation ----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        metrics = self.world.metrics
        return {name: metrics.node_count(self.s0.node_id, name)
                for name in metrics._counters
                if name not in IGNORED_COUNTERS}

    def rows(self, since: int) -> List[str]:
        out = []
        for rec in list(self.world.recorder)[since:]:
            if rec.node != self.s0.node_id or rec.kind in ("send", "recv"):
                continue
            fields = " ".join(f"{k}={self.alias.get(v, v)}"
                              for k, v in sorted(rec.fields.items()))
            out.append(f"{rec.kind} {fields}")
        return out


@dataclass
class Case:
    name: str
    setup: Callable[[Station], None]
    act: Callable[[Station], None]
    hits: List[Row]
    sent: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    rows: List[str] = field(default_factory=list)


def _nothing(s: Station) -> None:
    pass


def _seq(*steps: Callable[[Station], None]) -> Callable[[Station], None]:
    def run(s: Station) -> None:
        for step in steps:
            step(s)
    return run


REGISTERED = "mh registered seq={}"
UPDATE_PXA = "s2 update_currentloc proxy_id=pxA"

TABLE = [
    # -- greet from a neighbour cell (old_mss != self) -----------------------
    Case("greet/local/old seq: confirm again",
        lambda s: s.join(3), lambda s: s.greet("s1", 3),
        hits=[Row.GREET_DUPLICATE],
        sent=[REGISTERED.format(3)], counts={"duplicate_greets": 1}),
    Case("greet/local/newer seq: bounce re-registration",
        lambda s: s.local_with_proxy(3), lambda s: s.greet("s1", 5),
        hits=[Row.GREET_BOUNCE],
        sent=[REGISTERED.format(5), UPDATE_PXA],
        counts={"bounce_re_registrations": 1, "update_currentloc_sent": 1},
        rows=["register how=bounce mh=mh seq=5"]),
    Case("greet/acquiring/old seq: duplicate",
        lambda s: s.greet("s1", 3), lambda s: s.greet("s2", 3),
        hits=[Row.GREET_ACQUIRING_DUPLICATE],
        counts={"duplicate_greets": 1}),
    Case("greet/acquiring/newer seq: restart toward the new old station",
        lambda s: s.greet("s1", 3), lambda s: s.greet("s2", 4),
        hits=[Row.GREET_RESTART],
        sent=["s2 dereg seq=4"], counts={"handoffs_restarted": 1}),
    Case("greet/unknown: start the acquisition",
        _nothing, lambda s: s.greet("s1", 3),
        hits=[Row.GREET_START],
        sent=["s1 dereg seq=3"], counts={"handoffs_started": 1},
        rows=["handoff_start mh=mh old=s1"]),
    Case("greet/surrendered: start the acquisition",
        lambda s: s.surrendered(), lambda s: s.greet("s1", 6),
        hits=[Row.GREET_START],
        sent=["s1 dereg seq=6"], counts={"handoffs_started": 1},
        rows=["handoff_start mh=mh old=s1"]),

    # -- greet naming ourselves (reactivation) --------------------------------
    Case("reactivate/local/old seq: confirm again",
        lambda s: s.join(3), lambda s: s.greet("s0", 3),
        hits=[Row.REACTIVATE_DUPLICATE],
        sent=[REGISTERED.format(3)], counts={"duplicate_greets": 1}),
    Case("reactivate/local/newer seq: re-register, update the proxy",
        lambda s: s.local_with_proxy(3), lambda s: s.greet("s0", 4),
        hits=[Row.REACTIVATE],
        sent=[REGISTERED.format(4), UPDATE_PXA],
        counts={"reactivations": 1, "update_currentloc_sent": 1},
        rows=["register how=reactivate mh=mh seq=4"]),
    Case("reactivate/unknown/candidates: chase them, register on failure",
        _nothing, lambda s: s.greet("s0", 3, candidates=("s1",)),
        hits=[Row.REACTIVATE_CHASE],
        sent=["s1 dereg seq=3"],
        counts={"reactivation_of_unknown_mh": 1, "handoffs_started": 1}),
    Case("reactivate/acquiring: duplicate",
        lambda s: s.greet("s1", 3),
        lambda s: s.greet("s0", 4, candidates=("s2",)),
        hits=[Row.REACTIVATE_ACQUIRING],
        counts={"reactivation_of_unknown_mh": 1, "duplicate_greets": 1}),
    Case("reactivate/unknown/no candidates: register in place",
        _nothing, lambda s: s.greet("s0", 3),
        hits=[Row.REACTIVATE_IN_PLACE],
        sent=[REGISTERED.format(3)],
        counts={"reactivation_of_unknown_mh": 1, "reactivations": 1},
        rows=["register how=reactivate mh=mh seq=3"]),

    # -- dereg (a peer asks for the MH's state) -------------------------------
    Case("dereg/local/seq <= reg seq: refuse",
        lambda s: s.join(3), lambda s: s.dereg("s1", 3),
        hits=[Row.DEREG_STALE],
        sent=["s1 deregack seq=3 found=False"],
        counts={"stale_deregs_rejected": 1}),
    Case("dereg/local/creating: defer",
        lambda s: s.creating(), lambda s: s.dereg("s1", 4),
        hits=[Row.DEREG_DEFER_CREATING],
        counts={"deregs_deferred": 1}),
    Case("dereg/local: surrender the pref",
        lambda s: s.local_with_proxy(3), lambda s: s.dereg("s1", 4),
        hits=[Row.DEREG_SURRENDER],
        sent=["s1 deregack seq=4 found=True pref=pxA"],
        counts={"handoffs_out": 1}, rows=["handoff_out mh=mh to=s1"]),
    Case("dereg/acquiring/old seq: refuse",
        lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 3),
        hits=[Row.DEREG_STALE_ACQUIRING],
        sent=["s2 deregack seq=3 found=False"],
        counts={"stale_deregs_rejected": 1}),
    Case("dereg/acquiring/newer seq: defer",
        lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4),
        hits=[Row.DEREG_DEFER_ACQUIRING],
        counts={"deregs_deferred": 1}),
    Case("dereg/deferred again (a probe): deduplicate",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4)),
        lambda s: s.dereg("s2", 4),
        hits=[Row.DEREG_PROBE_DUPLICATE],
        counts={"dereg_probe_duplicates": 1}),
    Case("dereg/unknown: not found",
        _nothing, lambda s: s.dereg("s1", 3),
        hits=[Row.DEREG_UNKNOWN],
        sent=["s1 deregack seq=3 found=False"],
        counts={"deregs_for_unknown_mh": 1}),
    Case("dereg/surrendered: not found",
        lambda s: s.surrendered(), lambda s: s.dereg("s2", 5),
        hits=[Row.DEREG_UNKNOWN],
        sent=["s2 deregack seq=5 found=False"],
        counts={"deregs_for_unknown_mh": 1}),
    Case("proxy created/deferred dereg waiting: surrender the new pref",
        _seq(lambda s: s.creating(), lambda s: s.dereg("s1", 4)),
        lambda s: s.deliver(ProxyCreatedMsg(mh=MH, ref=s.ref("pxB", "s1"))),
        hits=[Row.PROXY_CREATED, Row.DEREG_SURRENDER],
        sent=["s1 deregack seq=4 found=True pref=pxB"],
        counts={"handoffs_out": 1}, rows=["handoff_out mh=mh to=s1"]),
    Case("proxy created/not local: dropped",
        _nothing,
        lambda s: s.deliver(ProxyCreatedMsg(mh=MH, ref=s.ref("pxB", "s1"))),
        hits=[Row.PROXY_CREATED_ABSENT],
        counts={"proxy_created_for_absent_mh": 1}),

    # -- timers -----------------------------------------------------------------
    Case("probe/acquiring: re-send the unanswered dereg",
        lambda s: s.greet("s1", 3), lambda s: s.run(until=5.0),
        hits=[Row.PROBE],
        sent=["s1 dereg seq=3"], counts={"handoff_probes": 1}),
    Case("probe/acquisition closed: silent",
        lambda s: s.local_with_proxy(3), lambda s: s.run(until=5.0),
        hits=[Row.PROBE_END]),
    Case("deferred dereg TTL (2 probe intervals): not found",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4)),
        lambda s: s.run(until=10.0),
        hits=[Row.PROBE, Row.DEFERRED_EXPIRED, Row.PROBE],
        sent=["s1 dereg seq=3", "s2 deregack seq=4 found=False",
              "s1 dereg seq=3"],
        counts={"handoff_probes": 2, "deferred_deregs_expired": 1}),
    Case("deferred dereg TTL/already answered: silent",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4),
             lambda s: s.deregack("s1", 3, True, "pxA")),
        lambda s: s.run(until=10.0),
        hits=[Row.PROBE_END, Row.DEFERRED_ANSWERED]),

    # -- deregack found=False -------------------------------------------------
    Case("not found/no acquisition: stale",
        _nothing, lambda s: s.deregack("s1", 3, False),
        hits=[Row.NOT_FOUND_STALE],
        counts={"stale_deregacks": 1}),
    Case("not found/another dereg outstanding: keep waiting",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.greet("s2", 4)),
        lambda s: s.deregack("s1", 3, False),
        hits=[Row.NOT_FOUND_WAITING],
        counts={"deregack_negative_waiting": 1}),
    Case("not found/fallbacks left: chase the next candidate",
        lambda s: s.greet("s1", 3, candidates=("s2",)),
        lambda s: s.deregack("s1", 3, False),
        hits=[Row.NOT_FOUND_FALLBACK],
        sent=["s2 dereg seq=3"], counts={"handoff_fallback_deregs": 1}),
    Case("not found/last answer: abort, refuse the deferred deregs",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4)),
        lambda s: s.deregack("s1", 3, False),
        hits=[Row.NOT_FOUND_REFUSE],
        sent=["s2 deregack seq=4 found=False"],
        counts={"handoffs_aborted": 1}),
    Case("not found/second failure, MH in cell: blind registration",
        _seq(lambda s: s.in_cell(), lambda s: s.greet("s1", 3),
             lambda s: s.deregack("s1", 3, False), lambda s: s.greet("s1", 3)),
        lambda s: s.deregack("s1", 3, False),
        hits=[Row.NOT_FOUND_BLIND],
        sent=[REGISTERED.format(3)],
        counts={"handoffs_aborted": 1, "blind_re_registrations": 1},
        rows=["register how=blind mh=mh seq=3"]),
    Case("not found/second failure, MH elsewhere: abort",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.deregack("s1", 3, False),
             lambda s: s.greet("s1", 3)),
        lambda s: s.deregack("s1", 3, False),
        hits=[Row.NOT_FOUND_REFUSE],
        counts={"handoffs_aborted": 1}),
    Case("not found/failures count per seq: a new seq starts at one",
        _seq(lambda s: s.in_cell(), lambda s: s.greet("s1", 3),
             lambda s: s.deregack("s1", 3, False), lambda s: s.greet("s1", 4)),
        lambda s: s.deregack("s1", 4, False),
        hits=[Row.NOT_FOUND_REFUSE],
        counts={"handoffs_aborted": 1}),
    Case("not found/reactivation chase, MH in cell: blind registration",
        _seq(lambda s: s.in_cell(),
             lambda s: s.greet("s0", 3, candidates=("s1",))),
        lambda s: s.deregack("s1", 3, False),
        hits=[Row.NOT_FOUND_BLIND],
        sent=[REGISTERED.format(3)],
        counts={"handoffs_aborted": 1, "blind_re_registrations": 1},
        rows=["register how=blind mh=mh seq=3"]),
    Case("overlap/not found while local (joined meanwhile): serve deferred",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4),
             lambda s: s.join(5)),
        lambda s: s.deregack("s1", 3, False),
        hits=[Row.NOT_FOUND_SERVE, Row.DEREG_STALE],
        sent=["s2 deregack seq=4 found=False"],
        counts={"handoffs_aborted": 1, "stale_deregs_rejected": 1}),

    # -- deregack found=True ----------------------------------------------------
    Case("found/acquiring: complete the hand-off",
        lambda s: s.greet("s1", 3), lambda s: s.deregack("s1", 3, True, "pxA"),
        hits=[Row.FOUND],
        sent=[REGISTERED.format(3), UPDATE_PXA],
        counts={"handoffs_completed": 1, "update_currentloc_sent": 1},
        rows=["register how=handoff mh=mh seq=3",
              "handoff_done duration=0.0 mh=mh old=s1 proxy_id=pxA"]),
    Case("found/acquiring, deferred dereg waiting: complete, then surrender",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4)),
        lambda s: s.deregack("s1", 3, True, "pxA"),
        hits=[Row.FOUND, Row.DEREG_SURRENDER],
        sent=[REGISTERED.format(3), UPDATE_PXA,
              "s2 deregack seq=4 found=True pref=pxA"],
        counts={"handoffs_completed": 1, "update_currentloc_sent": 1,
                "handoffs_out": 1},
        rows=["register how=handoff mh=mh seq=3",
              "handoff_done duration=0.0 mh=mh old=s1 proxy_id=pxA",
              "handoff_out mh=mh to=s2"]),
    Case("found/no acquisition: stale custody fork dropped",
        _nothing, lambda s: s.deregack("s1", 3, True, "pxA"),
        hits=[Row.FOUND_FORK],
        counts={"stale_custody_forks_dropped": 1}),
    Case("overlap/found while local (joined meanwhile): late, ignored",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.join(5)),
        lambda s: s.deregack("s1", 3, True, "pxA"),
        hits=[Row.FOUND_LATE],
        counts={"late_deregacks_ignored": 1}),
    Case("overlap/found again while local, acquisition closed: late, ignored",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.join(5),
             lambda s: s.deregack("s1", 3, True, "pxA")),
        lambda s: s.deregack("s1", 3, True, "pxA"),
        hits=[Row.FOUND_LATE],
        counts={"late_deregacks_ignored": 1}),
    Case("overlap/found while surrendered and re-acquiring: complete",
        _seq(lambda s: s.surrendered(), lambda s: s.greet("s1", 6)),
        lambda s: s.deregack("s1", 6, True, "pxA"),
        hits=[Row.FOUND],
        sent=[REGISTERED.format(6), UPDATE_PXA],
        counts={"handoffs_completed": 1, "update_currentloc_sent": 1},
        rows=["register how=handoff mh=mh seq=6",
              "handoff_done duration=0.0 mh=mh old=s1 proxy_id=pxA"]),

    # -- join ---------------------------------------------------------------------
    Case("join/local/old seq: confirm again",
        lambda s: s.join(3), lambda s: s.join(3),
        hits=[Row.JOIN_DUPLICATE],
        sent=[REGISTERED.format(3)]),
    Case("join/local/newer seq: register again",
        lambda s: s.join(3), lambda s: s.join(5),
        hits=[Row.JOIN_NEWER],
        sent=[REGISTERED.format(5)],
        rows=["register how=join mh=mh seq=5"]),
    Case("overlap/join while acquiring: register, acquisition stays open",
        lambda s: s.greet("s1", 3), lambda s: s.join(5),
        hits=[Row.JOIN],
        sent=[REGISTERED.format(5)], counts={"mh_joins": 1},
        rows=["register how=join mh=mh seq=5"]),

    # -- ack ------------------------------------------------------------------------
    Case("ack/surrendered: ignored (paper, Section 3.1)",
        lambda s: s.surrendered(), lambda s: s.ack(),
        hits=[Row.ACK_IGNORED],
        counts={"acks_ignored_after_dereg": 1},
        rows=["ack_ignored mh=mh request_id=r1"]),
    Case("overlap/ack while surrendered and re-acquiring: still ignored",
        _seq(lambda s: s.surrendered(), lambda s: s.greet("s1", 6)),
        lambda s: s.ack(),
        hits=[Row.ACK_IGNORED],
        counts={"acks_ignored_after_dereg": 1},
        rows=["ack_ignored mh=mh request_id=r1"]),
    Case("ack/unknown: nack the registration",
        _nothing, lambda s: s.ack(),
        hits=[Row.ACK_UNKNOWN],
        sent=["mh reregister"],
        counts={"acks_from_unknown_mh": 1, "registration_nacks": 1}),
    Case("ack/acquiring: unknown, but no nack",
        lambda s: s.greet("s1", 3), lambda s: s.ack(),
        hits=[Row.ACK_ACQUIRING],
        counts={"acks_from_unknown_mh": 1}),
    Case("ack/local: forward to the proxy",
        lambda s: s.local_with_proxy(3), lambda s: s.ack(),
        hits=[Row.ACK_FORWARD],
        sent=["s2 ack_forward proxy_id=pxA request_id=r1"],
        counts={"acks_forwarded": 1}),
    Case("ack/local, no proxy: dropped",
        lambda s: s.join(3), lambda s: s.ack(),
        hits=[Row.ACK_NO_PROXY],
        counts={"acks_without_pref": 1}),
    Case("ack/local, foreign delivery: back to its proxy",
        lambda s: s.foreign_delivery(), lambda s: s.ack("r9"),
        hits=[Row.ACK_FOREIGN],
        sent=["s2 ack_forward proxy_id=pxZ request_id=r9"],
        counts={"acks_forwarded": 1}),
]


@pytest.mark.parametrize("case", TABLE, ids=[case.name for case in TABLE])
def test_handoff_table_row(case: Case, monkeypatch: pytest.MonkeyPatch) -> None:
    s = Station(monkeypatch)
    case.setup(s)
    s.sent.clear()
    s.times.clear()
    s.hits.clear()
    before = s.counters()
    first_row = len(s.world.recorder)
    case.act(s)
    after = s.counters()
    moved = {name: after[name] - before.get(name, 0) for name in after
             if after[name] != before.get(name, 0)}
    assert s.hits == case.hits
    assert s.sent == case.sent
    assert moved == case.counts
    assert s.rows(first_row) == case.rows


def test_cases_reach_every_row() -> None:
    reached = {row for case in TABLE for row in case.hits}
    assert [row for row in Row if row not in reached] == []


def _doc_table() -> List[List[str]]:
    """The cells of docs/PROTOCOL.md's hand-off table, one list per row."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "PROTOCOL.md"
    lines = doc.read_text().split("### The hand-off as a state", 1)[1].splitlines()
    rows = [line for line in lines[:lines.index("## 4. Proxy life-cycle "
                                                 "(Section 3.3, Figure 2)")]
            if line.startswith("|")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    assert header == ["Message", "State at this station", "Row", "Action",
                      "Counted"]
    return [[cell.strip() for cell in row.strip("|").split("|")]
            for row in rows[2:]]


def test_doc_table_states_every_row_once_with_its_counters() -> None:
    counted: Dict[str, tuple] = {}
    for cells in _doc_table():
        name = cells[2].strip("`")
        assert name not in counted, f"{name} is stated twice"
        counted[name] = tuple(re.findall(r"`(\w+)`", cells[4]))
    assert sorted(counted) == sorted(row.name for row in Row)
    for row in Row:
        assert counted[row.name] == row.counters, row


def test_row_counters_are_bumped_only_through_the_classifier() -> None:
    """No hand-placed increment of a table counter is left in the MSS."""
    source = Path(mss.__file__).read_text()
    placed = set(re.findall(r'metrics\.incr\(\s*"(\w+)"', source))
    assert placed & {name for row in Row for name in row.counters} == set()

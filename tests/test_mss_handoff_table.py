"""Characterisation of the MSS hand-off: the state x message table of
docs/PROTOCOL.md §3, one row per test case.

Each row drives station ``s0`` of a three-cell world into a state with
synthetic messages only (join, greet, dereg, deregack, a remote proxy
creation), then delivers one more message — or lets the clock run — and
asserts exactly what ``s0`` sent on the wired and wireless links, which
of its counters moved and which trace rows it left.  Outgoing messages
are captured, not transmitted, so no peer ever answers.  Nothing here
reads the station's per-MH state, so the table pins behaviour, not
layout: it holds for any representation of that state.

The states overlap (a surrendered MH can be re-acquired, a join can
register an MH whose acquisition is still open); the rows named
"overlap" are those cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import pytest

from repro.core.protocol import (
    AckMsg,
    DeregAckMsg,
    DeregMsg,
    GreetMsg,
    JoinMsg,
    PrefPayload,
    ProxyCreatedMsg,
    RequestMsg,
)
from repro.types import NodeId, ProxyId, ProxyRef
from tests.conftest import make_world

MH = NodeId("mh:x")
IGNORED_COUNTERS = {"mss_messages_processed"}


class _RemotePlacement:
    """Place every proxy at one fixed other station (a remote creation)."""

    def __init__(self, target: NodeId) -> None:
        self.target = target

    def place(self, mh: NodeId, resp_mss: NodeId) -> NodeId:
        return self.target


class Station:
    """Station ``s0`` with its outgoing traffic captured."""

    def __init__(self) -> None:
        self.world = make_world()
        self.s0, self.s1, self.s2 = (self.world.station(cell)
                                     for cell in self.world.cells)
        self.alias = {self.s0.node_id: "s0", self.s1.node_id: "s1",
                      self.s2.node_id: "s2", MH: "mh"}
        self.sent: List[str] = []
        self.times: List[float] = []   # when each entry of `sent` left
        self.s0._wired_send = self._capture
        self.s0._downlink = self._capture

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

    # -- observation ----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        metrics = self.world.metrics
        return {name: metrics.node_count(self.s0.node_id, name)
                for name in metrics.snapshot()
                if name not in IGNORED_COUNTERS}

    def rows(self, since: int) -> List[str]:
        out = []
        for rec in self.world.recorder.records[since:]:
            if rec.node != self.s0.node_id or rec.kind in ("send", "recv"):
                continue
            fields = " ".join(f"{k}={self.alias.get(v, v)}"
                              for k, v in sorted(rec.fields.items()))
            out.append(f"{rec.kind} {fields}")
        return out


@dataclass
class Row:
    name: str
    setup: Callable[[Station], None]
    act: Callable[[Station], None]
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
    Row("greet/local/old seq: confirm again",
        lambda s: s.join(3), lambda s: s.greet("s1", 3),
        sent=[REGISTERED.format(3)], counts={"duplicate_greets": 1}),
    Row("greet/local/newer seq: bounce re-registration",
        lambda s: s.local_with_proxy(3), lambda s: s.greet("s1", 5),
        sent=[REGISTERED.format(5), UPDATE_PXA],
        counts={"bounce_re_registrations": 1, "update_currentloc_sent": 1},
        rows=["register how=bounce mh=mh seq=5"]),
    Row("greet/acquiring/old seq: duplicate",
        lambda s: s.greet("s1", 3), lambda s: s.greet("s2", 3),
        counts={"duplicate_greets": 1}),
    Row("greet/acquiring/newer seq: restart toward the new old station",
        lambda s: s.greet("s1", 3), lambda s: s.greet("s2", 4),
        sent=["s2 dereg seq=4"], counts={"handoffs_restarted": 1}),
    Row("greet/unknown: start the acquisition",
        _nothing, lambda s: s.greet("s1", 3),
        sent=["s1 dereg seq=3"], counts={"handoffs_started": 1},
        rows=["handoff_start mh=mh old=s1"]),
    Row("greet/surrendered: start the acquisition",
        lambda s: s.surrendered(), lambda s: s.greet("s1", 6),
        sent=["s1 dereg seq=6"], counts={"handoffs_started": 1},
        rows=["handoff_start mh=mh old=s1"]),

    # -- greet naming ourselves (reactivation) --------------------------------
    Row("reactivate/local/old seq: confirm again",
        lambda s: s.join(3), lambda s: s.greet("s0", 3),
        sent=[REGISTERED.format(3)], counts={"duplicate_greets": 1}),
    Row("reactivate/local/newer seq: re-register, update the proxy",
        lambda s: s.local_with_proxy(3), lambda s: s.greet("s0", 4),
        sent=[REGISTERED.format(4), UPDATE_PXA],
        counts={"reactivations": 1, "update_currentloc_sent": 1},
        rows=["register how=reactivate mh=mh seq=4"]),
    Row("reactivate/unknown/candidates: chase them, register on failure",
        _nothing, lambda s: s.greet("s0", 3, candidates=("s1",)),
        sent=["s1 dereg seq=3"],
        counts={"reactivation_of_unknown_mh": 1, "handoffs_started": 1}),
    Row("reactivate/acquiring: duplicate",
        lambda s: s.greet("s1", 3),
        lambda s: s.greet("s0", 4, candidates=("s2",)),
        counts={"reactivation_of_unknown_mh": 1, "duplicate_greets": 1}),
    Row("reactivate/unknown/no candidates: register in place",
        _nothing, lambda s: s.greet("s0", 3),
        sent=[REGISTERED.format(3)],
        counts={"reactivation_of_unknown_mh": 1, "reactivations": 1},
        rows=["register how=reactivate mh=mh seq=3"]),

    # -- dereg (a peer asks for the MH's state) -------------------------------
    Row("dereg/local/seq <= reg seq: refuse",
        lambda s: s.join(3), lambda s: s.dereg("s1", 3),
        sent=["s1 deregack seq=3 found=False"],
        counts={"stale_deregs_rejected": 1}),
    Row("dereg/local/creating: defer",
        lambda s: s.creating(), lambda s: s.dereg("s1", 4),
        counts={"deregs_deferred": 1}),
    Row("dereg/local: surrender the pref",
        lambda s: s.local_with_proxy(3), lambda s: s.dereg("s1", 4),
        sent=["s1 deregack seq=4 found=True pref=pxA"],
        counts={"handoffs_out": 1}, rows=["handoff_out mh=mh to=s1"]),
    Row("dereg/acquiring/old seq: refuse",
        lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 3),
        sent=["s2 deregack seq=3 found=False"],
        counts={"stale_deregs_rejected": 1}),
    Row("dereg/acquiring/newer seq: defer",
        lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4),
        counts={"deregs_deferred": 1}),
    Row("dereg/deferred again (a probe): deduplicate",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4)),
        lambda s: s.dereg("s2", 4),
        counts={"dereg_probe_duplicates": 1}),
    Row("dereg/unknown: not found",
        _nothing, lambda s: s.dereg("s1", 3),
        sent=["s1 deregack seq=3 found=False"],
        counts={"deregs_for_unknown_mh": 1}),
    Row("dereg/surrendered: not found",
        lambda s: s.surrendered(), lambda s: s.dereg("s2", 5),
        sent=["s2 deregack seq=5 found=False"],
        counts={"deregs_for_unknown_mh": 1}),
    Row("proxy created/deferred dereg waiting: surrender the new pref",
        _seq(lambda s: s.creating(), lambda s: s.dereg("s1", 4)),
        lambda s: s.deliver(ProxyCreatedMsg(mh=MH, ref=s.ref("pxB", "s1"))),
        sent=["s1 deregack seq=4 found=True pref=pxB"],
        counts={"handoffs_out": 1}, rows=["handoff_out mh=mh to=s1"]),

    # -- timers -----------------------------------------------------------------
    Row("probe/acquiring: re-send the unanswered dereg",
        lambda s: s.greet("s1", 3), lambda s: s.run(until=5.0),
        sent=["s1 dereg seq=3"], counts={"handoff_probes": 1}),
    Row("probe/acquisition closed: silent",
        lambda s: s.local_with_proxy(3), lambda s: s.run(until=5.0)),
    Row("deferred dereg TTL (2 probe intervals): not found",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4)),
        lambda s: s.run(until=10.0),
        sent=["s1 dereg seq=3", "s2 deregack seq=4 found=False",
              "s1 dereg seq=3"],
        counts={"handoff_probes": 2, "deferred_deregs_expired": 1}),

    # -- deregack found=False -------------------------------------------------
    Row("not found/no acquisition: stale",
        _nothing, lambda s: s.deregack("s1", 3, False),
        counts={"stale_deregacks": 1}),
    Row("not found/another dereg outstanding: keep waiting",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.greet("s2", 4)),
        lambda s: s.deregack("s1", 3, False),
        counts={"deregack_negative_waiting": 1}),
    Row("not found/fallbacks left: chase the next candidate",
        lambda s: s.greet("s1", 3, candidates=("s2",)),
        lambda s: s.deregack("s1", 3, False),
        sent=["s2 dereg seq=3"], counts={"handoff_fallback_deregs": 1}),
    Row("not found/last answer: abort, refuse the deferred deregs",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4)),
        lambda s: s.deregack("s1", 3, False),
        sent=["s2 deregack seq=4 found=False"],
        counts={"handoffs_aborted": 1}),
    Row("not found/second failure, MH in cell: blind registration",
        _seq(lambda s: s.in_cell(), lambda s: s.greet("s1", 3),
             lambda s: s.deregack("s1", 3, False), lambda s: s.greet("s1", 3)),
        lambda s: s.deregack("s1", 3, False),
        sent=[REGISTERED.format(3)],
        counts={"handoffs_aborted": 1, "blind_re_registrations": 1},
        rows=["register how=blind mh=mh seq=3"]),
    Row("not found/second failure, MH elsewhere: abort",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.deregack("s1", 3, False),
             lambda s: s.greet("s1", 3)),
        lambda s: s.deregack("s1", 3, False),
        counts={"handoffs_aborted": 1}),
    Row("not found/failures count per seq: a new seq starts at one",
        _seq(lambda s: s.in_cell(), lambda s: s.greet("s1", 3),
             lambda s: s.deregack("s1", 3, False), lambda s: s.greet("s1", 4)),
        lambda s: s.deregack("s1", 4, False),
        counts={"handoffs_aborted": 1}),
    Row("not found/reactivation chase, MH in cell: blind registration",
        _seq(lambda s: s.in_cell(),
             lambda s: s.greet("s0", 3, candidates=("s1",))),
        lambda s: s.deregack("s1", 3, False),
        sent=[REGISTERED.format(3)],
        counts={"handoffs_aborted": 1, "blind_re_registrations": 1},
        rows=["register how=blind mh=mh seq=3"]),
    Row("overlap/not found while local (joined meanwhile): serve deferred",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4),
             lambda s: s.join(5)),
        lambda s: s.deregack("s1", 3, False),
        sent=["s2 deregack seq=4 found=False"],
        counts={"handoffs_aborted": 1, "stale_deregs_rejected": 1}),

    # -- deregack found=True ----------------------------------------------------
    Row("found/acquiring: complete the hand-off",
        lambda s: s.greet("s1", 3), lambda s: s.deregack("s1", 3, True, "pxA"),
        sent=[REGISTERED.format(3), UPDATE_PXA],
        counts={"handoffs_completed": 1, "update_currentloc_sent": 1},
        rows=["register how=handoff mh=mh seq=3",
              "handoff_done duration=0.0 mh=mh old=s1 proxy_id=pxA"]),
    Row("found/acquiring, deferred dereg waiting: complete, then surrender",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.dereg("s2", 4)),
        lambda s: s.deregack("s1", 3, True, "pxA"),
        sent=[REGISTERED.format(3), UPDATE_PXA,
              "s2 deregack seq=4 found=True pref=pxA"],
        counts={"handoffs_completed": 1, "update_currentloc_sent": 1,
                "handoffs_out": 1},
        rows=["register how=handoff mh=mh seq=3",
              "handoff_done duration=0.0 mh=mh old=s1 proxy_id=pxA",
              "handoff_out mh=mh to=s2"]),
    Row("found/no acquisition: stale custody fork dropped",
        _nothing, lambda s: s.deregack("s1", 3, True, "pxA"),
        counts={"stale_custody_forks_dropped": 1}),
    Row("overlap/found while local (joined meanwhile): late, ignored",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.join(5)),
        lambda s: s.deregack("s1", 3, True, "pxA"),
        counts={"late_deregacks_ignored": 1}),
    Row("overlap/found again while local, acquisition closed: late, ignored",
        _seq(lambda s: s.greet("s1", 3), lambda s: s.join(5),
             lambda s: s.deregack("s1", 3, True, "pxA")),
        lambda s: s.deregack("s1", 3, True, "pxA"),
        counts={"late_deregacks_ignored": 1}),
    Row("overlap/found while surrendered and re-acquiring: complete",
        _seq(lambda s: s.surrendered(), lambda s: s.greet("s1", 6)),
        lambda s: s.deregack("s1", 6, True, "pxA"),
        sent=[REGISTERED.format(6), UPDATE_PXA],
        counts={"handoffs_completed": 1, "update_currentloc_sent": 1},
        rows=["register how=handoff mh=mh seq=6",
              "handoff_done duration=0.0 mh=mh old=s1 proxy_id=pxA"]),

    # -- join ---------------------------------------------------------------------
    Row("join/local/old seq: confirm again",
        lambda s: s.join(3), lambda s: s.join(3),
        sent=[REGISTERED.format(3)]),
    Row("overlap/join while acquiring: register, acquisition stays open",
        lambda s: s.greet("s1", 3), lambda s: s.join(5),
        sent=[REGISTERED.format(5)], counts={"mh_joins": 1},
        rows=["register how=join mh=mh seq=5"]),

    # -- ack ------------------------------------------------------------------------
    Row("ack/surrendered: ignored (paper, Section 3.1)",
        lambda s: s.surrendered(), lambda s: s.ack(),
        counts={"acks_ignored_after_dereg": 1},
        rows=["ack_ignored mh=mh request_id=r1"]),
    Row("overlap/ack while surrendered and re-acquiring: still ignored",
        _seq(lambda s: s.surrendered(), lambda s: s.greet("s1", 6)),
        lambda s: s.ack(),
        counts={"acks_ignored_after_dereg": 1},
        rows=["ack_ignored mh=mh request_id=r1"]),
    Row("ack/unknown: nack the registration",
        _nothing, lambda s: s.ack(),
        sent=["mh reregister"],
        counts={"acks_from_unknown_mh": 1, "registration_nacks": 1}),
    Row("ack/acquiring: unknown, but no nack",
        lambda s: s.greet("s1", 3), lambda s: s.ack(),
        counts={"acks_from_unknown_mh": 1}),
]


@pytest.mark.parametrize("row", TABLE, ids=[row.name for row in TABLE])
def test_handoff_table_row(row: Row) -> None:
    s = Station()
    row.setup(s)
    s.sent.clear()
    s.times.clear()
    before = s.counters()
    first_row = len(s.world.recorder.records)
    row.act(s)
    after = s.counters()
    moved = {name: after[name] - before.get(name, 0) for name in after
             if after[name] != before.get(name, 0)}
    assert s.sent == row.sent
    assert moved == row.counts
    assert s.rows(first_row) == row.rows

"""Online invariant oracle over the structured trace stream.

Each :class:`InvariantChecker` consumes the :class:`~repro.sim.tracing.TraceRecord`
rows of its ``KINDS`` as they are produced (via :meth:`TraceRecorder.add_sink`)
and keeps just enough state to decide one protocol guarantee:

* :class:`ExactlyOnceDelivery` — an MH application never sees the same
  request's result twice (paper, assumption 5);
* :class:`NoLostResult` — every issued request is eventually delivered
  (checked at :meth:`Oracle.finish`, i.e. after the run was driven to
  quiescence);
* :class:`SingleProxyPerSeries` — a superseded proxy never admits another
  request, and every superseded proxy is eventually deleted (the online
  counterpart of ``analysis.verify.check_proxy_uniqueness_over_time``);
* :class:`SafeProxyDeletion` — a proxy is only deleted once every request
  it admitted has been acknowledged (Section 3.3's del-pref / RKpR /
  del-proxy guarantee); custody transfers (``proxy_move``) re-home the
  outstanding set instead of discharging it, and a bounded-custody
  ``custody_expired`` discharges its request explicitly;
* :class:`NoCustodyLeak` — every result a proxy takes custody of
  (``proxy_result``) is eventually discharged: acknowledged by the MH
  (``proxy_ack``), expired by the custody TTL (``custody_expired``),
  re-homed by a migration, or lost with the crashing MSS — never
  silently stranded in a live result store;
* :class:`CausalWiredOrder` — wired deliveries respect the causal order
  of their sends (assumption 1), checked with vector clocks rebuilt from
  the trace alone;
* :class:`PrefHandoverConsistency` — at most one MSS considers itself an
  MH's respMss at any time, and a completed hand-off carries a proxy
  reference that actually exists.

Checkers either raise :class:`InvariantViolation` immediately
(``raise_immediately=True``) or collect violations for inspection after
the run — the fuzz harness uses the collecting mode so one schedule can
surface several distinct failures.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import VerificationError
from ..net.vectorclock import VectorClock
from ..sim.tracing import TraceRecord, TraceRecorder


class InvariantViolation(VerificationError):
    """One broken invariant, with the trace slice that led up to it."""

    def __init__(self, invariant: str, time: float, message: str,
                 trace_slice: Optional[List[TraceRecord]] = None) -> None:
        super().__init__(f"[{invariant}] t={time:.4f}: {message}")
        self.invariant = invariant
        self.time = time
        self.detail = message
        self.trace_slice = list(trace_slice or [])

    def describe(self) -> str:
        lines = [str(self)]
        for rec in self.trace_slice:
            lines.append(f"    {rec!r}")
        return "\n".join(lines)


class InvariantChecker:
    """Base class: subscribes to trace rows, reports through the oracle.

    ``KINDS``: every row kind :meth:`on_record` reads (None: all kinds)."""

    name = "invariant"
    KINDS: Optional[FrozenSet[str]] = None

    def __init__(self) -> None:
        self._oracle: Optional["Oracle"] = None

    def bind(self, oracle: "Oracle") -> None:
        self._oracle = oracle

    def fail(self, time: float, message: str) -> None:
        assert self._oracle is not None, "checker used without an Oracle"
        self._oracle.report(InvariantViolation(
            self.name, time, message, trace_slice=self._oracle.window()))

    def on_record(self, rec: TraceRecord) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def finish(self, time: float) -> None:
        """End-of-run (liveness) checks; default: nothing."""


class ExactlyOnceDelivery(InvariantChecker):
    """No MH delivers the same request's result to the application twice.

    The delivered-set deliberately survives ``mh_crash``/``mh_recover``
    rows: exactly-once is a promise *across* the crash — the recovering
    host must restore its dedup set from the durable client log, and a
    redelivered result slipping past an amnesiac recovery is exactly the
    bug this checker exists to catch.
    """

    name = "exactly_once_delivery"
    KINDS = frozenset({"deliver"})

    def __init__(self) -> None:
        super().__init__()
        self._delivered: Set[Tuple[str, str]] = set()

    def on_record(self, rec: TraceRecord) -> None:
        if rec.kind != "deliver":
            return
        key = (rec.node, str(rec.get("request_id")))
        if key in self._delivered:
            self.fail(rec.time,
                      f"{rec.node} delivered request {key[1]} twice "
                      f"(delivery_id={rec.get('delivery_id')})")
        self._delivered.add(key)


class NoLostResult(InvariantChecker):
    """Every issued request is eventually delivered (liveness; checked at
    ``finish`` — only meaningful once the run was driven to quiescence)."""

    name = "no_lost_result"
    KINDS = frozenset({"request", "deliver"})

    def __init__(self) -> None:
        super().__init__()
        self._pending: Dict[Tuple[str, str], float] = {}

    def on_record(self, rec: TraceRecord) -> None:
        if rec.kind == "request":
            key = (rec.node, str(rec.get("request_id")))
            self._pending.setdefault(key, rec.time)
        elif rec.kind == "deliver":
            self._pending.pop((rec.node, str(rec.get("request_id"))), None)

    def finish(self, time: float) -> None:
        for (node, rid), issued in sorted(self._pending.items(),
                                          key=lambda kv: (kv[1], kv[0])):
            self.fail(time,
                      f"request {rid} issued by {node} at t={issued:.4f} "
                      f"was never delivered")


class SingleProxyPerSeries(InvariantChecker):
    """One serving proxy per MH: creating a successor condemns the older
    proxy, which may linger only until its del-proxy completes — it must
    never admit another request, and it must eventually be deleted."""

    name = "single_proxy_per_series"
    KINDS = frozenset({"proxy_create", "proxy_delete", "proxy_admit",
                       "handoff_done", "proxy_adopt", "mss_crash"})

    def __init__(self) -> None:
        super().__init__()
        self._open: Dict[str, Set[str]] = {}
        self._condemned: Set[Tuple[str, str]] = set()
        # Proxies superseded by a fork *designation* (hand-off ref or
        # pref adoption) rather than by ordinary successor creation.
        # They lost a custody race that only exists because an MSS crash
        # erased the registration state that would have coordinated
        # their del-proxy — nobody references them anymore, so the
        # deletion-liveness check cannot demand the impossible.  They
        # must still never admit, and NoCustodyLeak still audits what
        # they hold.
        self._fork_losers: Set[Tuple[str, str]] = set()
        self._host_of: Dict[str, str] = {}

    def on_record(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind == "proxy_create":
            mh = str(rec.get("mh"))
            pid = str(rec.get("proxy_id"))
            for older in self._open.setdefault(mh, set()):
                self._condemned.add((mh, older))
            self._open[mh].add(pid)
            self._host_of[pid] = rec.node
        elif kind == "proxy_delete":
            mh = str(rec.get("mh"))
            pid = str(rec.get("proxy_id"))
            self._open.get(mh, set()).discard(pid)
            self._condemned.discard((mh, pid))
            self._fork_losers.discard((mh, pid))
            self._host_of.pop(pid, None)
        elif kind == "proxy_admit":
            key = (str(rec.get("mh")), str(rec.get("proxy_id")))
            if key in self._condemned:
                self.fail(rec.time,
                          f"superseded proxy {key[1]} of {key[0]} admitted "
                          f"request {rec.get('request_id')}")
        elif kind in ("handoff_done", "proxy_adopt"):
            # A completed hand-off or an explicit pref-ref adoption
            # designates its proxy ref as THE serving proxy.  After an
            # MSS-amnesia fork (a blind registration spun up a successor
            # while the old proxy survived elsewhere) the custody chain
            # can heal in the *older* proxy's favour — reinstate it and
            # condemn any other survivor instead.
            pid = rec.get("proxy_id")
            if pid is None:
                return
            pid = str(pid)
            mh = str(rec.get("mh"))
            open_set = self._open.get(mh, set())
            if pid in open_set:
                for other in open_set:
                    if other != pid:
                        self._condemned.add((mh, other))
                        self._fork_losers.add((mh, other))
                self._condemned.discard((mh, pid))
                self._fork_losers.discard((mh, pid))
        elif kind == "mss_crash":
            # An injected crash loses proxy state without delete records;
            # the invariant restarts for proxies hosted at that station.
            dead = {pid for pid, node in self._host_of.items()
                    if node == rec.node}
            for pid in dead:
                del self._host_of[pid]
                for mh, open_set in self._open.items():
                    open_set.discard(pid)
                self._condemned = {(mh, p) for (mh, p) in self._condemned
                                   if p not in dead}
                self._fork_losers = {(mh, p) for (mh, p) in self._fork_losers
                                     if p not in dead}

    def finish(self, time: float) -> None:
        for mh, pid in sorted(self._condemned):
            if (mh, pid) in self._fork_losers:
                # An orphan stub of an MSS-amnesia fork: the state that
                # would have driven its del-proxy died with the crash.
                continue
            self.fail(time, f"superseded proxy {pid} of {mh} never deleted")


class SafeProxyDeletion(InvariantChecker):
    """A proxy disappears only after every admitted request was Acked.

    ``proxy_move`` transfers custody: the outstanding set follows the new
    ``proxy_id`` and is re-attached when the destination records the
    matching ``proxy_create`` — so the migration-time ``proxy_delete`` at
    the old host is exempt, but a deletion that strands un-Acked requests
    anywhere else is a safety violation.
    """

    name = "safe_proxy_deletion"
    KINDS = frozenset({"proxy_create", "proxy_admit", "proxy_ack", "custody_expired",
                       "proxy_move", "proxy_delete", "mss_crash"})

    def __init__(self) -> None:
        super().__init__()
        self._outstanding: Dict[str, Set[str]] = {}
        self._in_transfer: Dict[str, Set[str]] = {}
        self._host_of: Dict[str, str] = {}

    def on_record(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind == "proxy_create":
            pid = str(rec.get("proxy_id"))
            moved = self._in_transfer.pop(pid, set())
            self._outstanding.setdefault(pid, set()).update(moved)
            self._host_of[pid] = rec.node
        elif kind == "proxy_admit":
            pid = str(rec.get("proxy_id"))
            self._outstanding.setdefault(pid, set()).add(
                str(rec.get("request_id")))
        elif kind == "proxy_ack":
            pid = str(rec.get("proxy_id"))
            self._outstanding.get(pid, set()).discard(
                str(rec.get("request_id")))
        elif kind == "custody_expired":
            # Bounded custody explicitly abandons the request: the record
            # is gone from the proxy, so a later delete does not strand it.
            pid = str(rec.get("proxy_id"))
            self._outstanding.get(pid, set()).discard(
                str(rec.get("request_id")))
        elif kind == "proxy_move":
            old = str(rec.get("proxy_id"))
            new = str(rec.get("new_proxy_id"))
            self._in_transfer[new] = self._outstanding.pop(old, set())
        elif kind == "proxy_delete":
            pid = str(rec.get("proxy_id"))
            left = self._outstanding.pop(pid, set())
            self._host_of.pop(pid, None)
            if left:
                self.fail(rec.time,
                          f"proxy {pid} of {rec.get('mh')} deleted with "
                          f"{len(left)} un-Acked requests: {sorted(left)}")
        elif kind == "mss_crash":
            for pid in [p for p, node in self._host_of.items()
                        if node == rec.node]:
                self._outstanding.pop(pid, None)
                del self._host_of[pid]


class NoCustodyLeak(InvariantChecker):
    """Every result a proxy takes custody of is eventually discharged.

    Custody begins at ``proxy_result`` (the proxy stored a server result
    for a possibly-unreachable MH) and must end in one of four ways:

    * ``proxy_ack`` — the MH acknowledged the delivery (the normal path);
    * ``custody_expired`` — the bounded-custody TTL fired and the store
      explicitly gave the result up;
    * a migration — ``proxy_move`` re-homes the custody set onto the new
      ``proxy_id`` (re-attached at the destination's ``proxy_create``);
    * ``mss_crash`` of the hosting station — volatile custody dies with
      its holder.

    Anything still held at ``finish`` (after the run was driven to
    quiescence) is a custody leak: a result pinned forever in a live
    store with no delivery, expiry, or hand-off in sight.  A
    ``proxy_delete`` that still holds custody is the same leak caught
    earlier (and also trips :class:`SafeProxyDeletion`).
    """

    name = "no_custody_leak"
    KINDS = frozenset({"proxy_create", "proxy_result", "proxy_ack", "custody_expired",
                       "proxy_move", "proxy_delete", "mss_crash"})

    def __init__(self) -> None:
        super().__init__()
        self._custody: Dict[str, Dict[str, float]] = {}
        self._in_transfer: Dict[str, Dict[str, float]] = {}
        self._host_of: Dict[str, str] = {}
        self._mh_of: Dict[str, str] = {}

    def on_record(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind == "proxy_create":
            pid = str(rec.get("proxy_id"))
            moved = self._in_transfer.pop(pid, {})
            self._custody.setdefault(pid, {}).update(moved)
            self._host_of[pid] = rec.node
            self._mh_of[pid] = str(rec.get("mh"))
        elif kind == "proxy_result":
            pid = str(rec.get("proxy_id"))
            self._custody.setdefault(pid, {}).setdefault(
                str(rec.get("request_id")), rec.time)
        elif kind in ("proxy_ack", "custody_expired"):
            pid = str(rec.get("proxy_id"))
            self._custody.get(pid, {}).pop(str(rec.get("request_id")), None)
        elif kind == "proxy_move":
            old = str(rec.get("proxy_id"))
            new = str(rec.get("new_proxy_id"))
            self._in_transfer[new] = self._custody.pop(old, {})
        elif kind == "proxy_delete":
            pid = str(rec.get("proxy_id"))
            held = self._custody.pop(pid, {})
            self._host_of.pop(pid, None)
            mh = self._mh_of.pop(pid, None)
            if held:
                self.fail(rec.time,
                          f"proxy {pid} of {mh} deleted while still holding "
                          f"custody of {len(held)} results: {sorted(held)}")
        elif kind == "mss_crash":
            for pid in [p for p, node in self._host_of.items()
                        if node == rec.node]:
                self._custody.pop(pid, None)
                del self._host_of[pid]
                self._mh_of.pop(pid, None)

    def finish(self, time: float) -> None:
        leaks = [(since, pid, rid)
                 for pid, held in self._custody.items()
                 for rid, since in held.items()]
        for since, pid, rid in sorted(leaks):
            self.fail(time,
                      f"proxy {pid} of {self._mh_of.get(pid)} still holds "
                      f"custody of result {rid} taken at t={since:.4f}")


class CausalWiredOrder(InvariantChecker):
    """Wired deliveries respect the causal order of their sends.

    Vector clocks are rebuilt from the trace alone (one component per
    sending node, ticked on each wired ``send``; receivers merge the
    stamp on ``recv``), so the checker is independent of the ordering
    layer it audits: running it over a ``raw``-ordered world with latency
    jitter makes it fire.  A violation is a message delivered *after*
    some message whose send it causally preceded, at the same receiver.

    The clocks tick only on sends and follow row order, so the send
    numbered ``tick`` at ``sender`` precedes another send exactly when that
    send's clock has reached ``tick`` at ``sender`` (Fidge/Mattern): a
    comparison is one component probe.
    """

    name = "causal_wired_order"
    KINDS = frozenset({"send", "recv"})

    def __init__(self) -> None:
        super().__init__()
        self._clocks: DefaultDict[str, VectorClock] = defaultdict(VectorClock)
        # (sender, tick, clock) of each wired send, by msg_id / as delivered.
        self._stamps: Dict[int, Tuple[str, int, VectorClock]] = {}
        self._frontiers: Dict[str, List[Tuple[str, int, VectorClock]]] = {}

    def on_record(self, rec: TraceRecord) -> None:
        if rec.get("net") != "wired":
            return
        if rec.kind == "send":
            clock = self._clocks[rec.node]
            clock.tick(rec.node)
            self._stamps[rec.get("msg_id")] = (rec.node, clock.get(rec.node), clock.copy())
        elif rec.kind == "recv":
            sent = self._stamps.pop(rec.get("msg_id"), None)
            if sent is None:
                return
            sender, tick, stamp = sent
            frontier = self._frontiers.setdefault(rec.node, [])
            for _, _, delivered in frontier:
                if delivered.get(sender) >= tick:
                    self.fail(rec.time,
                              f"{rec.node} received {rec.get('msg')} "
                              f"#{rec.get('msg_id')} from {rec.get('src')} "
                              f"after a message its send causally precedes")
                    break
            self._clocks[rec.node].merge(stamp)
            frontier[:] = [d for d in frontier if stamp.get(d[0]) < d[1]]
            frontier.append(sent)


class PrefHandoverConsistency(InvariantChecker):
    """At most one respMss per MH, and hand-offs carry real proxy refs.

    Ownership is claimed by ``register`` rows and released by
    ``handoff_out`` (the old side answered the dereg), ``deregister``
    (the MH left) and ``mss_crash``.  A ``handoff_done`` whose pref
    references a ``proxy_id`` that was never created (even following
    ``proxy_move`` renames) indicates a forked or fabricated custody
    chain.
    """

    name = "pref_handover_consistency"
    KINDS = frozenset({"register", "handoff_out", "deregister", "mss_crash",
                       "proxy_create", "proxy_move", "handoff_done"})

    def __init__(self) -> None:
        super().__init__()
        self._owner: Dict[str, str] = {}
        self._ever_created: Set[str] = set()
        self._renames: Dict[str, str] = {}

    def on_record(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind == "register":
            mh = str(rec.get("mh"))
            owner = self._owner.get(mh)
            if owner is not None and owner != rec.node:
                self.fail(rec.time,
                          f"{rec.node} registered {mh} "
                          f"(how={rec.get('how')}) while {owner} still "
                          f"considers itself its respMss")
            self._owner[mh] = rec.node
        elif kind in ("handoff_out", "deregister"):
            self._owner.pop(str(rec.get("mh")), None)
        elif kind == "mss_crash":
            for mh in [m for m, node in self._owner.items()
                       if node == rec.node]:
                del self._owner[mh]
        elif kind == "proxy_create":
            self._ever_created.add(str(rec.get("proxy_id")))
        elif kind == "proxy_move":
            new = rec.get("new_proxy_id")
            if new is not None:
                self._renames[str(rec.get("proxy_id"))] = str(new)
        elif kind == "handoff_done":
            pid = rec.get("proxy_id")
            if pid is None:
                return
            pid = str(pid)
            seen = set()
            while pid in self._renames and pid not in seen:
                seen.add(pid)
                pid = self._renames[pid]
            if pid not in self._ever_created:
                self.fail(rec.time,
                          f"hand-off of {rec.get('mh')} to {rec.node} "
                          f"carries unknown proxy reference {pid}")


def default_checkers() -> List[InvariantChecker]:
    """One fresh instance of every checker (safe to attach to one run)."""
    return [
        ExactlyOnceDelivery(),
        NoLostResult(),
        SingleProxyPerSeries(),
        SafeProxyDeletion(),
        NoCustodyLeak(),
        CausalWiredOrder(),
        PrefHandoverConsistency(),
    ]


class Oracle:
    """Attaches checkers to a recorder; collects or raises violations."""

    WINDOW = 64

    def __init__(self, checkers: Optional[List[InvariantChecker]] = None,
                 raise_immediately: bool = False) -> None:
        self.checkers = checkers if checkers is not None else default_checkers()
        self.raise_immediately = raise_immediately
        self.violations: List[InvariantViolation] = []
        self._recorder: Optional[TraceRecorder] = None
        # The rows seen while attached: _source's [_first:_end] (_end None: to date).
        self._source: Optional[TraceRecorder] = None
        self._first = 0
        self._end: Optional[int] = None
        for checker in self.checkers:
            checker.bind(self)

    # -- wiring -------------------------------------------------------------

    def attach(self, recorder: TraceRecorder) -> "Oracle":
        """Subscribe each checker to the row kinds it declares."""
        if self._recorder is not None:
            raise VerificationError("oracle is already attached; detach() first")
        for checker in self.checkers:
            recorder.add_sink(checker.on_record, checker.KINDS)
        self._recorder = recorder
        self._source, self._first, self._end = recorder, len(recorder), None
        return self

    def detach(self) -> None:
        if self._recorder is not None:
            for checker in self.checkers:
                self._recorder.remove_sink(checker.on_record)
            self._end = len(self._recorder)
            self._recorder = None

    def finish(self, time: Optional[float] = None) -> List[InvariantViolation]:
        """Run end-of-run liveness checks (by default at the last seen row's
        time); returns all violations."""
        if time is None:
            seen = self.window()
            time = seen[-1].time if seen else 0.0
        for checker in self.checkers:
            checker.finish(time)
        return self.violations

    # -- reporting ----------------------------------------------------------

    def window(self) -> List[TraceRecord]:
        """The last ``WINDOW`` rows recorded while attached."""
        if self._source is None:
            return []
        end = len(self._source) if self._end is None else self._end
        rows = self._source.rows(max(self._first, end - self.WINDOW), end)
        return [TraceRecord(*row) for row in rows]

    def report(self, violation: InvariantViolation) -> None:
        self.violations.append(violation)
        if self.raise_immediately:
            raise violation

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "all invariants held"
        by_name: Dict[str, int] = {}
        for violation in self.violations:
            by_name[violation.invariant] = by_name.get(violation.invariant, 0) + 1
        parts = [f"{name} x{count}" for name, count in sorted(by_name.items())]
        return f"{len(self.violations)} violations ({', '.join(parts)})"

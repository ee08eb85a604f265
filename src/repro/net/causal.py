"""Causal point-to-point delivery (Schiper–Eggli–Sandoz).

The paper's system model assumes that "communication among the MSSs is
reliable and message delivery is in causal order" (assumption 1), and the
exactly-once argument of Section 5 relies on it: the Ack forwarded by the
old MSS must reach the proxy before the ``update_currentloc`` sent by the
new MSS, because the first send causally precedes the second.

This module implements the SES protocol for point-to-point causal order:

* Each endpoint maintains a vector clock ``vt`` and a *destination
  constraint table* ``dep`` mapping destination -> vector timestamp.
* On send to ``dst``: tick own component; stamp the message with the
  current ``vt`` and a copy of ``dep``; then record ``dep[dst] = vt``.
* On arrival at ``n``: the message is deliverable iff its constraint table
  has no entry for ``n``, or that entry is <= the local ``vt``.
* On delivery: merge the stamp into ``vt`` and the constraint table into
  ``dep`` (skipping the local entry and entries the receiver already
  knows); buffered messages are then re-checked.

Every clock the layer compares is a pointwise max of *stamps*, and a
stamp is named by ``(sender, seq)``; dominance is decided from those
names (a clock's *heads*), not component by component — the lemma, its
proof sketch and the cost are in :class:`CausalOrdering`.

The ordering layer is pluggable so the AN6 ablation can run the same
workload over FIFO-only or fully unordered delivery and measure how the
exactly-once guarantee degrades.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..errors import NetworkError
from ..types import NodeId
from .message import Message
from .vectorclock import VectorClock


@dataclass(slots=True)
class StampedMessage:
    """A message plus the ordering metadata attached at send time."""

    message: Message
    stamp: VectorClock
    constraints: Dict[str, VectorClock]


class OrderingLayer:
    """Interface: decides when an arrived message may be delivered."""

    name = "raw"

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> StampedMessage:
        return StampedMessage(message=message, stamp=VectorClock(), constraints={})

    def on_arrival(self, dst: NodeId, stamped: StampedMessage,
                   deliver: Callable[[Message], None]) -> None:
        """Deliver now or buffer; implementations call *deliver* for each
        message that becomes deliverable (possibly several)."""
        deliver(stamped.message)


class RawOrdering(OrderingLayer):
    """No ordering guarantee: messages delivered in arrival order, which
    may invert send order when latencies vary."""

    name = "raw"


class FifoOrdering(OrderingLayer):
    """Per-(src, dst) FIFO delivery.

    A per-channel sequence number is attached at send time; arrivals are
    held back until all lower sequence numbers for that channel have been
    delivered.
    """

    name = "fifo"

    def __init__(self) -> None:
        self._next_send: Dict[Tuple[NodeId, NodeId], int] = {}
        self._next_deliver: Dict[Tuple[NodeId, NodeId], int] = {}
        self._held: Dict[Tuple[NodeId, NodeId], Dict[int, StampedMessage]] = {}

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> StampedMessage:
        channel = (src, dst)
        seq = self._next_send.get(channel, 0)
        self._next_send[channel] = seq + 1
        stamp = VectorClock({"seq": seq + 1})  # reuse VC as a 1-slot carrier
        return StampedMessage(message=message, stamp=stamp, constraints={})

    def on_arrival(self, dst: NodeId, stamped: StampedMessage,
                   deliver: Callable[[Message], None]) -> None:
        src = stamped.message.src
        if src is None:
            raise NetworkError("message arrived without a source")
        channel = (src, dst)
        seq = stamped.stamp.get("seq") - 1
        held = self._held.setdefault(channel, {})
        held[seq] = stamped
        expected = self._next_deliver.get(channel, 0)
        while expected in held:
            deliver(held.pop(expected).message)
            expected += 1
        self._next_deliver[channel] = expected


class _CausalEndpoint:
    """Per-endpoint SES state plus the indexed hold-back buffer."""

    __slots__ = ("knowledge", "sent", "dep", "waiting", "held", "arrivals")

    def __init__(self) -> None:
        self.knowledge = VectorClock()
        self.sent = 0
        # destination -> frozen, structurally-shared constraint clock
        self.dep: Dict[str, VectorClock] = {}
        # blocking component -> [(arrival order, stamped), ...]
        self.waiting: Dict[str, List[Tuple[int, StampedMessage]]] = {}
        self.held = 0
        self.arrivals = 0


class CausalOrdering(OrderingLayer):
    """SES causal point-to-point delivery (implies FIFO per channel).

    Implementation notes:

    * The *knowledge* clock (pointwise max of delivered stamps) is kept
      separate from the node's own send counter.  Folding both into one
      clock — as a naive reading of SES suggests — breaks hold-back
      whenever a node can receive its own sends, because its send ticks
      satisfy the delivery constraint before the earlier message has
      actually been delivered.
    * Every clock stored in ``dep``, a stamp, or a constraint table is
      *frozen* the moment it leaves :meth:`on_send`: updates rebind to a
      new (or another shared) clock, never mutate.  That makes the
      constraint-table copy at send time a dict of shared references
      instead of O(endpoints) deep clock copies, and lets delivery skip
      constraint merges entirely when sender and receiver already hold
      the same clock object.  Only ``knowledge`` is mutated in place — it
      is private to its endpoint (stamps copy it).
    * A message that cannot be delivered is parked under *one* vector
      component its receiver's knowledge has not reached.  Since knowledge
      only grows, the message can only become deliverable after that
      component advances, so a delivery wakes exactly the buckets of the
      components it advanced instead of rescanning the whole buffer.
      Woken candidates are processed in arrival order, which reproduces
      the delivery order of the classic rescan-from-start drain.
    * **Heads lemma.**  A stamp is its sender's knowledge plus
      ``{sender: seq}``, named ``(sender, seq)`` and issued once.  For
      any clock ``A`` this layer builds — knowledge, stamp or merged
      constraint —
      ``A >= stamp(s, c)`` iff ``A[s] >= c``.  Sketch: ``A`` is a max of
      stamps, so one of them, ``T``, has ``T[s] >= c``.  Either ``T`` is
      a later stamp of ``s``, and a node's stamps only grow because its
      knowledge does; or ``T``'s sender had delivered a stamp with that
      property, and by induction along the causal chain its knowledge,
      hence ``T``, dominated ``stamp(s, c)`` already.  So every frozen
      clock carries its *heads* — the names of the maximal stamps it is
      the max of, one for a pure stamp (85 % of the clocks compared on
      the 148-node city, 14 % have two) — and the three dominance
      questions (deliverable on arrival, still blocked in the drain,
      which table entry wins in ``_commit``) cost one dict probe per
      head of the smaller clock.  A blocked message is parked under the
      sender of an unreached head: it cannot become deliverable before
      that component advances, which is all the arrival-order drain needs.
    * **Novelty lemma.**  Let ``C`` be a delivered table's entry for
      ``x`` whose heads the receiver ``r``'s knowledge had all reached
      *before* the delivery; ``_commit`` skips it.  That knowledge
      reached ``r`` along a causal chain whose every hop merged tables
      (or, by induction, skipped what it already knew), so either
      ``dep_r[x]`` covers ``C`` or the chain passed through ``x`` — and
      then ``x`` had delivered a message sent causally after every head
      of ``C``.  Those heads are messages to ``x``, so causal delivery
      at ``x`` had delivered them first: ``C`` can never hold a message
      back again.  Constraints shrink only by such vacuous heads, so
      deliverability, wake-ups and delivery order are the full merge's.
      On ``sim-city`` a delivered table has ~137 entries: ~72 are the
      receiver's own objects, ~30 vacuous (0.42 would have changed the
      full merge's table), ~34 change it.
    """

    name = "causal"

    def __init__(self) -> None:
        self._endpoints: Dict[NodeId, _CausalEndpoint] = {}

    def _endpoint(self, node: NodeId) -> _CausalEndpoint:
        endpoint = self._endpoints.get(node)
        if endpoint is None:
            endpoint = self._endpoints[node] = _CausalEndpoint()
        return endpoint

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> StampedMessage:
        endpoint = self._endpoint(src)
        endpoint.sent += 1
        stamp = endpoint.knowledge.copy()
        stamp.bump(src, endpoint.sent)
        stamp.heads = ((src, endpoint.sent),)
        constraints = dict(endpoint.dep)  # shared frozen clocks
        endpoint.dep[dst] = stamp  # frozen from here on
        return StampedMessage(message=message, stamp=stamp, constraints=constraints)

    def on_arrival(self, dst: NodeId, stamped: StampedMessage,
                   deliver: Callable[[Message], None]) -> None:
        endpoint = self._endpoint(dst)
        constraint = stamped.constraints.get(dst)
        if constraint is not None and endpoint.knowledge.missing(constraint) is not None:
            # No held message is deliverable right now (each was re-checked
            # when knowledge last advanced), so parking preserves order.
            endpoint.arrivals += 1
            self._park(endpoint, endpoint.arrivals, stamped, constraint)
            return
        advanced = self._commit(endpoint, dst, stamped)
        deliver(stamped.message)
        if endpoint.held:
            self._drain(endpoint, dst, deliver, advanced)

    def _park(self, endpoint: _CausalEndpoint, order: int,
              stamped: StampedMessage, constraint: VectorClock) -> None:
        """File a blocked message under the sender of one head its
        receiver's knowledge has not reached."""
        blocker = endpoint.knowledge.missing(constraint)
        # Component-wise too: heads that disagree with their clock would
        # otherwise hold the message back for ever, in silence.
        if blocker is None or endpoint.knowledge.dominates(constraint):
            raise NetworkError("parked a deliverable message")  # pragma: no cover
        endpoint.waiting.setdefault(blocker, []).append((order, stamped))
        endpoint.held += 1

    def _drain(self, endpoint: _CausalEndpoint, node: NodeId,
               deliver: Callable[[Message], None],
               advanced: List[str]) -> None:
        """Deliver every held message unblocked by *advanced* components,
        cascading through the components each delivery advances."""
        ready: List[Tuple[int, StampedMessage]] = []
        self._wake(endpoint, advanced, ready)
        while ready:
            order, stamped = heapq.heappop(ready)
            endpoint.held -= 1
            constraint = stamped.constraints.get(node)
            if constraint is not None and endpoint.knowledge.missing(constraint) is not None:
                # Still blocked on another head; re-park, keeping its
                # original arrival order.
                self._park(endpoint, order, stamped, constraint)
                continue
            advanced = self._commit(endpoint, node, stamped)
            deliver(stamped.message)
            self._wake(endpoint, advanced, ready)

    @staticmethod
    def _wake(endpoint: _CausalEndpoint, advanced: List[str],
              ready: List[Tuple[int, StampedMessage]]) -> None:
        if not endpoint.held:
            return
        waiting = endpoint.waiting
        for component in advanced:
            bucket = waiting.pop(component, None)
            if bucket:
                for item in bucket:
                    heapq.heappush(ready, item)

    @staticmethod
    def _commit(endpoint: _CausalEndpoint, node: NodeId,
                stamped: StampedMessage) -> List[str]:
        """Merge a delivered message's metadata, less its vacuous entries
        (novelty lemma); return the knowledge components that advanced."""
        # Dominance from heads as in VectorClock.missing, probed inline
        # (a missing component is 0; every seq is >= 1).
        known = endpoint.knowledge._clock
        dep = endpoint.dep
        for other, clock in stamped.constraints.items():
            current = dep.get(other)
            if current is clock:
                continue
            for sender, seq in clock.heads:
                if sender not in known or known[sender] < seq:
                    break
            else:
                continue                  # vacuous: the novelty lemma
            if other == node:
                continue
            if current is None:
                dep[other] = clock
                continue
            theirs, mine = clock._clock, current._clock
            for sender, seq in current.heads:
                if sender not in theirs or theirs[sender] < seq:
                    break
            else:
                dep[other] = clock        # clock covers current: adopt
                continue
            for sender, seq in clock.heads:
                if sender not in mine or mine[sender] < seq:
                    dep[other] = current.merged(clock)
                    break
        return endpoint.knowledge.update_max(stamped.stamp)


def make_ordering(name: str) -> OrderingLayer:
    """Factory: ``raw``, ``fifo`` or ``causal``."""
    if name == "raw":
        return RawOrdering()
    if name == "fifo":
        return FifoOrdering()
    if name == "causal":
        return CausalOrdering()
    raise NetworkError(f"unknown ordering layer {name!r}")

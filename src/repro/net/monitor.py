"""Network statistics: message and byte counters.

The monitor is shared by the wired and wireless substrates.  Experiments
read it to account protocol overhead (AN4: ``update_currentloc`` and extra
Ack messages) and per-node load (AN5: messages handled per MSS).

Since the observability subsystem landed this class is a thin
compatibility facade over :class:`repro.obs.registry.MetricsHub`: every
count lives in a typed, labeled metric family, so the same numbers the
legacy accessors return also appear in Prometheus/JSON exports without
double bookkeeping.  The method surface is unchanged; call sites and
tests written against the original Counter-based monitor keep working.

Families owned by the facade (labels in parentheses):

* ``rdp_net_messages_sent_total`` (net, kind)
* ``rdp_net_bytes_sent_total`` (net, kind)
* ``rdp_net_messages_received_total`` (net, kind) — delivery-side parity
  with the sent counters (historically ``on_deliver`` only counted per
  node, so received traffic could not be filtered by network or kind)
* ``rdp_net_messages_dropped_total`` (net, kind, reason)
* ``rdp_node_messages_sent_total`` / ``rdp_node_messages_received_total``
  (node) — the per-node load proxies

:class:`Fabric`, the base of the wired and the radio fabric, lives here
too: it is what ties a monitor, a trace recorder and a clock together.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..engine import Engine
from ..obs.registry import Counter, CounterFamily, MetricsHub
from ..sim.tracing import TraceRecorder
from ..types import NodeId
from .message import Message


class NetworkMonitor:
    """Counters keyed by network name, message kind and node.

    Pass a shared *hub* to co-register with the rest of a world's
    metrics (what :class:`repro.instruments.Instruments` does); without
    one the monitor owns a private hub and behaves exactly like the old
    standalone counter bag.
    """

    def __init__(self, hub: Optional[MetricsHub] = None) -> None:
        self.hub = hub if hub is not None else MetricsHub()
        self._sent = self.hub.counter(
            "rdp_net_messages_sent_total",
            "Messages sent, by network and message kind",
            labels=("net", "kind"))
        self._sent_bytes = self.hub.counter(
            "rdp_net_bytes_sent_total",
            "Modelled payload bytes sent, by network and message kind",
            labels=("net", "kind"))
        self._received = self.hub.counter(
            "rdp_net_messages_received_total",
            "Messages delivered, by network and message kind",
            labels=("net", "kind"))
        self._dropped = self.hub.counter(
            "rdp_net_messages_dropped_total",
            "Messages dropped, by network, message kind and reason",
            labels=("net", "kind", "reason"))
        self._node_sent = self.hub.counter(
            "rdp_node_messages_sent_total",
            "Messages sent per node (load proxy)",
            labels=("node",))
        self._node_received = self.hub.counter(
            "rdp_node_messages_received_total",
            "Messages received per node (load proxy)",
            labels=("node",))

    # -- write path (networks) --------------------------------------------

    def on_send(self, network: str, message: Message) -> None:
        self._sent.labels(network, message.kind).inc()
        self._sent_bytes.labels(network, message.kind).inc(
            message.size_bytes())
        if message.src is not None:
            self._node_sent.labels(message.src).inc()

    def on_deliver(self, network: str, message: Message) -> None:
        self._received.labels(network, message.kind).inc()
        if message.dst is not None:
            self._node_received.labels(message.dst).inc()

    def on_drop(self, network: str, message: Message, reason: str) -> None:
        self._dropped.labels(network, message.kind, reason).inc()

    def send_handles(self, network: str, kind: str,
                     src: NodeId) -> Tuple[Counter, Counter, Counter]:
        """The children :meth:`on_send` bumps for *kind* from *src*
        (messages, bytes, node load), for a caller to resolve once."""
        return (self._sent.labels(network, kind),
                self._sent_bytes.labels(network, kind),
                self._node_sent.labels(src))

    def deliver_handles(self, network: str, kind: str,
                        dst: NodeId) -> Tuple[Counter, Counter]:
        """The children :meth:`on_deliver` bumps for *kind* to *dst*."""
        return (self._received.labels(network, kind),
                self._node_received.labels(dst))

    # -- read path (experiments, reports) ---------------------------------

    @staticmethod
    def _sum(family: CounterFamily, *pattern: Optional[str]) -> int:
        """Sum children whose labels match *pattern* (None = wildcard)."""
        total = 0
        for values, child in family.children.items():
            if all(want is None or have == want
                   for have, want in zip(values, pattern)):
                total += child.value  # type: ignore[attr-defined]
        return int(total)

    def count(self, kind: str, network: str | None = None) -> int:
        """Messages of *kind* sent on *network* (or on any network)."""
        return self._sum(self._sent, network, kind)

    def bytes_of(self, kind: str, network: str | None = None) -> int:
        """Bytes of *kind* sent on *network* (or on any network)."""
        return self._sum(self._sent_bytes, network, kind)

    def drops(self, reason: str | None = None) -> int:
        """Dropped messages, optionally filtered by reason."""
        return self._sum(self._dropped, None, None, reason)

    def drops_of(self, network: str, reason: str | None = None,
                 kind: str | None = None) -> int:
        """Drops on one network, optionally filtered by reason and kind."""
        return self._sum(self._dropped, network, kind, reason)

    def total_messages(self, network: str | None = None) -> int:
        return self._sum(self._sent, network)

    def load_of(self, node: NodeId) -> int:
        """Messages sent or received by *node* (a proxy for its load)."""
        sent = self._node_sent.children.get((node,))
        received = self._node_received.children.get((node,))
        return int((sent.value if sent is not None else 0)  # type: ignore[attr-defined]
                   + (received.value if received is not None else 0))  # type: ignore[attr-defined]

    def node_loads(self) -> Dict[str, int]:
        """Per-node load (sent + received) for every node seen."""
        out: Dict[str, int] = {}
        for (node,), child in self._node_sent.children.items():
            out[node] = out.get(node, 0) + int(child.value)  # type: ignore[attr-defined]
        for (node,), child in self._node_received.children.items():
            out[node] = out.get(node, 0) + int(child.value)  # type: ignore[attr-defined]
        return out


class Fabric:
    """What a fabric keeps on either engine, wired or radio: its clock,
    its recorder, its monitor, and the one shape of a trace row about a
    message."""

    name = "net"

    def __init__(self, sim: Engine, recorder: Optional[TraceRecorder],
                 monitor: Optional[NetworkMonitor]) -> None:
        self.sim = sim
        self.recorder = recorder if recorder is not None else TraceRecorder(enabled=False)
        self.monitor = monitor if monitor is not None else NetworkMonitor()

    def stamp(self, message: Message) -> None:
        """Give *message* its id from the engine's :class:`~repro.engine.Ids`
        unless it already has one (a re-send, or a decoded live message)."""
        if not message.msg_id:
            message.msg_id = self.sim.ids.message()

    def _row(self, kind: str, node: NodeId, message: Message,
             detail: bool = False, net: Optional[str] = None,
             **fields: Any) -> None:
        """One trace row about *message*, if the recorder wants *kind*:
        its ``net`` (this fabric's unless given), kind and id, *fields*,
        the ``describe()`` text when *detail*, and the id of the request
        the message is about (see :attr:`Message.request_field`)."""
        if self.recorder.wants(kind):
            if detail:
                fields["detail"] = message.describe()
            if message.request_field is not None:
                fields["request_id"] = getattr(message, message.request_field)
            self.recorder.record(
                self.sim.now, kind, node, net=net or self.name,
                msg=message.kind, msg_id=message.msg_id, **fields)

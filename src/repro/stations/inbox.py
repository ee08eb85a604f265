"""Prioritized message processing at an MSS.

The paper (Section 3.1) requires: "At each MSS, higher priority is given
to forwarding Ack messages (from MHs to the proxy) than to engaging in any
new Hand-off transactions."  That rule is what makes the exactly-once
causal chain of Section 5 hold: a queued Ack must be forwarded before the
dereg that would cause the MSS to start ignoring the MH.

The inbox models an MSS as a single server with a per-message processing
time.  With ``proc_delay == 0`` messages are handled synchronously on
arrival (the common fast path); with a positive delay a priority queue
forms and the Ack-before-dereg rule becomes observable.  ``ack_priority``
can be disabled for the ablation experiment.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from ..engine import Engine
from ..net.message import Message

PRIORITY_ACK = 0
PRIORITY_NORMAL = 1
PRIORITY_HANDOFF = 2


def default_priority(message: Message) -> int:
    """Acks first, hand-off (dereg) transactions last, everything else FIFO."""
    from ..core.protocol import AckMsg, DeregMsg

    if isinstance(message, AckMsg):
        return PRIORITY_ACK
    if isinstance(message, DeregMsg):
        return PRIORITY_HANDOFF
    return PRIORITY_NORMAL


class Inbox:
    """Single-server message queue with optional priorities."""

    def __init__(
        self,
        sim: Engine,
        handler: Callable[[Message], None],
        proc_delay: float = 0.0,
        ack_priority: bool = True,
        priority_fn: Optional[Callable[[Message], int]] = None,
    ) -> None:
        self.sim = sim
        self.handler = handler
        self.proc_delay = proc_delay
        self.ack_priority = ack_priority
        self._priority_fn = priority_fn or default_priority
        self._queue: list[tuple[int, int, Message]] = []
        self._seq = itertools.count()
        self._busy = False

    def push(self, message: Message) -> None:
        """Accept one arrival; may process it synchronously."""
        if self.proc_delay <= 0:
            self.handler(message)
            return
        priority = self._priority_fn(message) if self.ack_priority else PRIORITY_NORMAL
        heapq.heappush(self._queue, (priority, next(self._seq), message))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        _, _, message = heapq.heappop(self._queue)
        self.sim.schedule(self.proc_delay, self._finish, message, label="inbox:proc")

    def _finish(self, message: Message) -> None:
        # try/finally: a raising handler must not leave the server marked
        # busy forever — that would silently wedge every later message.
        # The exception still propagates (fails the simulation loudly).
        try:
            self.handler(message)
        finally:
            self._start_next()

    def drop_all(self) -> int:
        """Discard every queued message (an MSS crash losing its inbox).

        The message in service, if any, is not interrupted here — its
        ``_finish`` event still fires and restarts the serving loop — but
        a crashed owner discards it at handling time via its own down
        guard.  Returns the number of messages dropped.
        """
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

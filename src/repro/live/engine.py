"""The wall-clock :class:`~repro.engine.Engine`: the sim kernel, driven by
an asyncio loop.

:class:`AsyncioEngine` owns a :class:`repro.sim.simulator.Simulator` and
only drives it, so both engines share one scheduler: same heap, same
:class:`~repro.sim.event.Event`, same ``(time, seq)`` tie-break, same
:class:`~repro.errors.SchedulingError` on a negative delay.
``schedule(delay, ...)`` is ``kernel.schedule_at(clock.now() + delay,
...)``.  The engine keeps a single ``loop.call_at`` handle armed at the
kernel's head deadline (``clock.epoch + t``) and re-arms it only when a
new event lands earlier; on wake it fires every due event with
``kernel.run(until=clock.now())`` and re-arms at ``peek_next_time()``.

Design decisions:

* Protocol code reads ``engine.now`` = ``clock.now()``, the wall clock,
  so RTT samples and ``sent_at`` stay real.  The kernel's own ``now``
  only orders events and rejects scheduling in the past.
* An event scheduled during a wake for "now" fires on the next wake,
  as ``call_later(0)`` would.
* A raising callback does not wedge the engine: the handle is re-armed
  in a ``finally`` and the exception reaches the loop's exception
  handler; events due in the same wake fire on the next one.
* Datagram dispatch stays on the socket reader, outside the kernel.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Optional

from ..engine import Ids
from ..errors import SchedulingError
from ..sim.event import Event
from ..sim.simulator import Simulator
from .clock import LiveClock


class AsyncioEngine:
    """Clock plus scheduler on real time (one per live process).

    *ids* defaults to a fresh :class:`~repro.engine.Ids` counting from 1;
    each process of a cluster passes its own disjoint range."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 clock: LiveClock, ids: Optional[Ids] = None) -> None:
        self.loop = loop
        self.clock = clock
        self.ids = ids if ids is not None else Ids()
        self.kernel = Simulator()
        self._handle: Optional[asyncio.TimerHandle] = None
        self._wake_at = math.inf   # kernel time the handle is armed for

    @property
    def now(self) -> float:
        return self.clock.now()

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule {label or callback!r} {-delay!r}s in the past")
        event = self.kernel.schedule_at(
            self.clock.now() + delay, callback, *args, label=label)
        if event.time < self._wake_at:
            self._arm(event.time)
        return event

    def _arm(self, time: float) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._wake_at = time
        self._handle = self.loop.call_at(self.clock.epoch + time, self._wake)

    def _wake(self) -> None:
        # While the kernel runs, _wake_at <= now <= any new event's time,
        # so callbacks' schedule() calls never re-arm.
        try:
            self.kernel.run(until=self.clock.now())
        finally:
            self._wake_at = math.inf
            head = self.kernel.peek_next_time()
            if head is not None:
                self._arm(head)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AsyncioEngine now={self.now:.3f}>"

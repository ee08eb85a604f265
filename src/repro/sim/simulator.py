"""The discrete-event simulator.

A single :class:`Simulator` instance drives every entity in a simulated
world (networks, stations, hosts, servers, mobility processes).  Entities
never sleep or block; they schedule callbacks at future simulated times.

The kernel is deliberately small and fully deterministic: ties on simulated
time are broken by scheduling order, and all randomness in the library flows
through :mod:`repro.sim.rng` streams seeded from a single root seed.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from ..engine import Ids
from ..errors import SchedulingError, SimulationError
from .event import Event

# Cancelled events stay in the heap as tombstones until popped.  When
# timer churn (retransmission timers, mobility restarts) leaves many
# tombstones buried mid-heap, the queue is rebuilt without them.  The
# rebuild triggers only when tombstones are both numerous and a majority
# of the queue, so steady-state scheduling never pays for it.
_COMPACT_MIN_CANCELLED = 64


class Simulator:
    """Deterministic discrete-event simulation kernel.

    Example
    -------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.5, out.append, "a")
    >>> _ = sim.schedule(0.5, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._seq = 0
        self._cancelled_pending = 0
        self.ids = Ids()

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events fired so far (useful for progress metrics)."""
        return self._events_executed

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule *callback(\\*args)* to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule *callback(\\*args)* at absolute simulated time ``time``."""
        if math.isnan(time) or math.isinf(time):
            raise SchedulingError(f"non-finite event time {time!r}")
        if time < self._now:
            raise SchedulingError(
                f"event time {time} is in the past (now={self._now})"
            )
        self._seq += 1
        event = Event(time, callback, args, label, self._seq)
        event._sim = self
        heapq.heappush(self._queue, (time, self._seq, event))
        if (self._cancelled_pending > _COMPACT_MIN_CANCELLED
                and self._cancelled_pending * 2 > len(self._queue)):
            self._compact()
        return event

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` to track tombstone pressure."""
        self._cancelled_pending += 1

    def _compact(self) -> None:
        """Rebuild the heap without cancelled tombstones.

        In-place (slice assignment) so the run loop's alias of the queue
        stays valid when a callback's ``schedule`` triggers compaction.
        """
        self._queue[:] = [e for e in self._queue if not e[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    def stop(self) -> None:
        """Stop the run loop after the currently-firing event returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order until the queue drains or a limit is hit.

        Parameters
        ----------
        until:
            If given, do not fire events scheduled after this time; the
            clock is advanced to ``until`` once no live event at or
            before ``until`` remains (it is *not* advanced when
            ``max_events`` cut the run short with earlier events still
            queued — time never flows backwards across calls).
        max_events:
            If given, stop after firing this many events (guard against
            livelock in experiments).
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        fired = 0
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue and not self._stopped:
                time, _seq, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    self._cancelled_pending -= 1
                    continue
                if until is not None and time > until:
                    break
                pop(queue)
                self._now = time
                event._sim = None   # fired: a later cancel() is a no-op
                event.callback(*event.args)
                self._events_executed += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            next_time = self.peek_next_time()
            if next_time is None or next_time > until:
                self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain; raise if *max_events* is exceeded."""
        self.run(max_events=max_events)
        if self._queue and not self._stopped:
            live = [e for _, _, e in self._queue if not e.cancelled]
            if live:
                raise SimulationError(
                    f"simulation did not go idle within {max_events} events; "
                    f"{len(live)} live events remain (first: {min(live)!r})"
                )

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or None when idle."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_pending -= 1
        if not self._queue:
            return None
        return self._queue[0][0]

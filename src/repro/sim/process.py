"""Timer and periodic-process helpers on top of the event kernel."""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..engine import Engine
from ..errors import SchedulingError
from .event import Event


class Timer:
    """A restartable one-shot timer.

    Used by protocol entities for timeouts: :meth:`restart` cancels the
    pending expiry (if any) and arms a new one.
    """

    def __init__(self, sim: Engine, callback: Callable[[], Any], label: str = "") -> None:
        self._sim = sim
        self._callback = callback
        self._label = label
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._event is not None and not self._event.cancelled

    def restart(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, label=self._label)

    def cancel(self) -> None:
        """Disarm the timer; a no-op when not armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicProcess:
    """Invoke a callback at a (possibly randomized) period until stopped.

    The period is supplied by a zero-argument callable so callers can plug
    in exponential inter-arrival times, fixed ticks, etc.
    """

    def __init__(
        self,
        sim: Engine,
        action: Callable[[], Any],
        period: Callable[[], float],
        label: str = "",
    ) -> None:
        self._sim = sim
        self._action = action
        self._period = period
        self._label = label
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin ticking; the first tick fires after *initial_delay*
        (default: one period)."""
        if self._running:
            raise SchedulingError("periodic process already running")
        self._running = True
        delay = self._period() if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._tick, label=self._label)

    def stop(self) -> None:
        """Stop ticking; a no-op when not running."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._action()
        if not self._running:
            return
        self._event = self._sim.schedule(self._period(), self._tick, label=self._label)

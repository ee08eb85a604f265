"""Event objects for the discrete-event simulation kernel."""

from __future__ import annotations

from typing import Any, Callable


def _noop() -> None:
    return None


class Event:
    """A scheduled callback.

    Events are totally ordered by ``(time, seq)``: ties on simulated time
    are broken by scheduling order so that runs are fully deterministic.
    The sequence number is issued per :class:`~repro.sim.simulator.Simulator`
    instance, so two simulators in one process produce identical schedules.

    The heap itself stores ``(time, seq, event)`` tuples so ordering is
    resolved by tuple comparison; ``__lt__`` is kept for direct
    comparisons in tests and debugging.
    """

    __slots__ = ("time", "seq", "callback", "args", "label", "cancelled",
                 "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any] = _noop,
        args: tuple = (),
        label: str = "",
        seq: int = 0,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False
        self._sim: Any = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped; a no-op
        once it fired (the kernel detaches it), so no phantom tombstone.
        The tombstone lets go of its callback and arguments."""
        sim = self._sim
        if sim is not None:
            self._sim = None
            self.cancelled = True
            self.callback, self.args = _noop, ()
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = self.label or getattr(self.callback, "__name__", "<fn>")
        return f"<Event t={self.time:.6f} #{self.seq} {name}{state}>"

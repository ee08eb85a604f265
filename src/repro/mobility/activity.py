"""Active/inactive behaviour of mobile hosts.

The paper's MHs may be *active* or *inactive* (power save, turned off);
an inactive host neither sends nor receives (Section 2).  The
:class:`ActivityProcess` alternates a host between the two states with
configurable on/off durations.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..sim import Simulator
from ..types import MhState


class ActivatableHost(Protocol):
    """The slice of the mobile-host interface the process drives."""

    state: MhState

    def activate(self) -> None: ...
    def deactivate(self) -> None: ...


class ActivityProcess:
    """Alternates a host between active and inactive.

    ``on_duration`` and ``off_duration`` are zero-argument callables
    returning the next period length, so any distribution can be plugged
    in (e.g. ``lambda: rng.expovariate(1/30)``).
    """

    def __init__(
        self,
        sim: Simulator,
        host: ActivatableHost,
        on_duration: Callable[[], float],
        off_duration: Callable[[], float],
    ) -> None:
        self.sim = sim
        self.host = host
        self.on_duration = on_duration
        self.off_duration = off_duration
        self._running = False

    def start(self) -> None:
        """Begin with an active period (the host must currently be active)."""
        self._running = True
        self.sim.schedule(self.on_duration(), self._go_inactive,
                          label="activity:off")

    def stop(self) -> None:
        self._running = False

    def _go_inactive(self) -> None:
        if not self._running:
            return
        if self.host.state is MhState.ACTIVE:
            self.host.deactivate()
        self.sim.schedule(self.off_duration(), self._go_active,
                          label="activity:on")

    def _go_active(self) -> None:
        if not self._running:
            return
        if self.host.state is MhState.INACTIVE:
            self.host.activate()
        self.sim.schedule(self.on_duration(), self._go_inactive,
                          label="activity:off")

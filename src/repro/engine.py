"""The execution-engine interface protocol classes program against.

Every protocol entity (MSS, proxy, mobile host, server, client API)
interacts with time exclusively through two operations — read the current
time and schedule a cancellable callback — and draws every id it mints
from the engine's :class:`Ids`.  :class:`Engine` captures that contract
as a structural protocol so the same entity code runs under two engines:

* the deterministic discrete-event :class:`~repro.sim.simulator.Simulator`
  (simulated time, the default everywhere);
* the wall-clock :class:`~repro.live.engine.AsyncioEngine` (real time,
  one engine per live process — see ``docs/LIVE.md``), which drives a
  :class:`Simulator` of its own from one asyncio timer.

Both engines therefore hand out one handle type,
:class:`~repro.sim.event.Event`: ``cancel`` is idempotent, a no-op once
the callback fired, and a cancelled event's callback never runs.

The protocol is deliberately the *intersection* of what entities use —
``now``, ``schedule`` returning an :class:`Event`, and ``ids``.  The
engine owns the ids because it is the one object scoped exactly to a
world (a :class:`Simulator`) or a live process (an
:class:`~repro.live.engine.AsyncioEngine`): an id is a function of that
world's schedule, never of what else ran in the interpreter.
Kernel-only surface (``run``, ``run_until_idle``, ``schedule_at``, event
counters) stays on the concrete :class:`Simulator`; harness code that
drives a run keeps depending on the concrete engine it built.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # repro.sim imports this module
    from .sim.event import Event


class Ids:
    """The four id sequences of one world, each counting up from *start*.

    ``message()`` numbers messages when they first become observable
    (see :meth:`repro.net.monitor.Fabric.stamp`); ``request()``,
    ``proxy()`` and ``delivery()`` back the mobile host's request ids,
    the MSS's proxy ids and the proxies' (and baselines') delivery ids.
    Live processes that share a cluster pass disjoint *start* values.
    """

    __slots__ = ("message", "request", "proxy", "delivery")

    def __init__(self, start: int = 1) -> None:
        self.message = itertools.count(start).__next__
        self.request = itertools.count(start).__next__
        self.proxy = itertools.count(start).__next__
        self.delivery = itertools.count(start).__next__


@runtime_checkable
class Engine(Protocol):
    """Clock plus scheduler plus ids: what protocol entities need from
    the engine that runs their world.

    ``schedule`` must reject negative delays (both engines raise
    :class:`~repro.errors.SchedulingError`) so an entity bug surfaces
    identically under simulation and on the wire.  ``ids`` is owned by
    the engine for its whole life, one allocator per world or process.
    """

    ids: Ids

    @property
    def now(self) -> float: ...

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event: ...

"""The execution-engine interface protocol classes program against.

Every protocol entity (MSS, proxy, mobile host, server, client API)
interacts with time exclusively through two operations — read the current
time and schedule a cancellable callback — and draws every id it mints
from the engine's :class:`Ids`.  :class:`Engine` captures that contract
as a structural protocol so the same entity code runs under two engines:

* the deterministic discrete-event :class:`~repro.sim.simulator.Simulator`
  (simulated time, the default everywhere);
* the wall-clock :class:`~repro.live.engine.AsyncioEngine` (real time over
  an asyncio event loop, one engine per live process — see
  ``docs/LIVE.md``).

The protocol is deliberately the *intersection* of what entities use —
``now``, ``schedule`` returning a cancellable handle, and ``ids``.  The
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
from typing import Any, Callable, Protocol, runtime_checkable


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
class ScheduledEvent(Protocol):
    """Handle for one scheduled callback: cancellable, idempotently.

    Satisfied by :class:`~repro.sim.event.Event` (simulated time) and
    :class:`~repro.live.engine.LiveEvent` (asyncio timer).  ``cancel``
    after the callback fired (or after a previous cancel) is a no-op;
    a cancelled event's callback never runs.
    """

    cancelled: bool

    def cancel(self) -> None: ...


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
    ) -> ScheduledEvent: ...

"""Deterministic discrete-event simulation kernel.

Public entry points:

* :class:`Simulator` — the event loop
* :class:`Event` — a scheduled callback (returned by ``schedule``)
* :class:`Retrier`, :class:`PeriodicProcess` — timing helpers
* :class:`RngStreams` — named reproducible random streams
* :class:`TraceRecorder`, :class:`TraceRecord` — structured tracing
"""

from .event import Event
from .process import PeriodicProcess, Retrier
from .rng import RngStreams
from .simulator import Simulator
from .tracing import TraceRecord, TraceRecorder

__all__ = [
    "Event",
    "PeriodicProcess",
    "Retrier",
    "RngStreams",
    "Simulator",
    "TraceRecord",
    "TraceRecorder",
]

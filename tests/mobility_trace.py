"""Mobility traces for tests: record and replay migration/activity schedules.

Property-based tests generate arbitrary :class:`MobilityTrace` objects and
replay them against the protocol to check delivery invariants under any
interleaving of migrations and inactivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol

from repro.errors import MobilityError
from repro.sim import Simulator
from repro.types import CellId, MhState

MIGRATE = "migrate"
ACTIVATE = "activate"
DEACTIVATE = "deactivate"

_VALID_EVENTS = (MIGRATE, ACTIVATE, DEACTIVATE)


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One step of a mobility trace."""

    time: float
    event: str
    cell: Optional[CellId] = None

    def __post_init__(self) -> None:
        if self.event not in _VALID_EVENTS:
            raise MobilityError(f"unknown trace event {self.event!r}")
        if self.event == MIGRATE and self.cell is None:
            raise MobilityError("migrate step needs a target cell")
        if self.time < 0:
            raise MobilityError(f"negative trace time {self.time}")


@dataclass
class MobilityTrace:
    """A time-ordered list of steps for one mobile host."""

    steps: List[TraceStep] = field(default_factory=list)

    def add(self, time: float, event: str, cell: Optional[str] = None) -> "MobilityTrace":
        cell_id = CellId(cell) if cell is not None else None
        self.steps.append(TraceStep(time=time, event=event, cell=cell_id))
        return self

    def sorted(self) -> "MobilityTrace":
        return MobilityTrace(steps=sorted(self.steps, key=lambda s: s.time))

    def __len__(self) -> int:
        return len(self.steps)


class TraceableHost(Protocol):
    """The host interface trace replay drives."""

    state: MhState
    current_cell: Optional[CellId]

    def migrate_to(self, cell: CellId) -> None: ...
    def activate(self) -> None: ...
    def deactivate(self) -> None: ...


class TraceReplayer:
    """Schedules the steps of a trace onto a host.

    Steps that are illegal at fire time (e.g. activate while already
    active, or migrate into the current cell) are skipped and counted, so
    randomly generated traces remain usable.
    """

    def __init__(self, sim: Simulator, host: TraceableHost, trace: MobilityTrace) -> None:
        self.sim = sim
        self.host = host
        self.trace = trace.sorted()
        self.applied = 0
        self.skipped = 0

    def start(self) -> None:
        for step in self.trace.steps:
            self.sim.schedule_at(max(step.time, self.sim.now), self._apply, step,
                                 label=f"trace:{step.event}")

    def _apply(self, step: TraceStep) -> None:
        host = self.host
        if host.state is MhState.LEFT:
            self.skipped += 1
            return
        if step.event == MIGRATE:
            if host.state is MhState.MIGRATING or step.cell == host.current_cell:
                self.skipped += 1
                return
            host.migrate_to(step.cell)
        elif step.event == ACTIVATE:
            if host.state is not MhState.INACTIVE:
                self.skipped += 1
                return
            host.activate()
        elif step.event == DEACTIVATE:
            if host.state is not MhState.ACTIVE:
                self.skipped += 1
                return
            host.deactivate()
        self.applied += 1

"""Tests for cell maps, mobility models, activity and the driver."""

from __future__ import annotations

import random

import pytest

from repro.errors import MobilityError
from repro.mobility import (
    ActivityProcess,
    CellMap,
    ExponentialResidence,
    MobilityDriver,
    RandomNeighborWalk,
    complete_topology,
    grid_topology,
    line_topology,
    ring_topology,
)
from repro.mobility.cellmap import bfs
from repro.types import CellId, MhState

from tests.conftest import FixedResidence, make_world
from tests.mobility_trace import (
    ACTIVATE,
    DEACTIVATE,
    MIGRATE,
    MobilityTrace,
    TraceReplayer,
    TraceStep,
)


# -- topologies ---------------------------------------------------------------

def test_line_topology_neighbors():
    cmap = line_topology(4)
    assert len(cmap) == 4
    assert cmap.neighbors(CellId("cell0")) == ["cell1"]
    assert cmap.neighbors(CellId("cell1")) == ["cell0", "cell2"]


def test_ring_topology_wraps():
    cmap = ring_topology(5)
    assert "cell4" in cmap.neighbors(CellId("cell0"))


def test_ring_needs_three_cells():
    with pytest.raises(MobilityError):
        ring_topology(2)


def test_grid_topology_degree():
    cmap = grid_topology(3, 3)
    assert len(cmap) == 9
    corner = cmap.neighbors(CellId("cell0_0"))
    center = cmap.neighbors(CellId("cell1_1"))
    assert len(corner) == 2
    assert len(center) == 4


def test_complete_topology_all_adjacent():
    cmap = complete_topology(4)
    assert len(cmap.neighbors(CellId("cell2"))) == 3


def test_custom_topology_and_distance():
    cmap = CellMap([("a", "b"), ("b", "c")], isolated=["d"])
    hops = bfs({cell: cmap.neighbors(cell) for cell in cmap.cells}, "a")
    assert hops["c"] == (2, "b") and "d" not in hops
    assert cmap.neighbors(CellId("d")) == []


def test_unknown_cell_raises():
    cmap = line_topology(2)
    with pytest.raises(MobilityError):
        cmap.neighbors(CellId("nowhere"))


def test_cells_and_neighbors_are_naturally_sorted_whatever_the_edge_order():
    # cell10 is named before cell2, cell12 only in an edge, cell7 only
    # as an isolated cell; the map sorts each once, at construction.
    cmap = CellMap([("cell10", "cell0"), ("cell0", "cell2"),
                    ("cell12", "cell0"), ("cell2", "cell1")],
                   isolated=["cell7"])
    assert cmap.cells == ["cell0", "cell1", "cell2", "cell7", "cell10",
                          "cell12"]
    assert len(cmap) == 6 and "cell12" in cmap and "cell3" not in cmap
    assert cmap.neighbors(CellId("cell0")) == ["cell2", "cell10", "cell12"]
    assert cmap.neighbors(CellId("cell12")) == ["cell0"]
    assert cmap.neighbors(CellId("cell7")) == []
    assert ring_topology(11).neighbors(CellId("cell0")) == ["cell1", "cell10"]
    assert line_topology(11).cells[-2:] == ["cell9", "cell10"]  # not lexical


# -- residence times ------------------------------------------------------------

def test_exponential_residence_mean():
    model = ExponentialResidence(5.0)
    rng = random.Random(1)
    samples = [model.sample(rng) for _ in range(2000)]
    assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.1)


# -- mobility models ---------------------------------------------------------------

def test_random_walk_stays_on_edges():
    cmap = line_topology(3)
    walk = RandomNeighborWalk(cmap)
    rng = random.Random(3)
    for _ in range(50):
        target = walk.next_cell(CellId("cell1"), rng)
        assert target in ("cell0", "cell2")


# -- driver and activity --------------------------------------------------------------

class _FakeHost:
    def __init__(self) -> None:
        self.current_cell = CellId("cell0")
        self.state = MhState.ACTIVE
        self.moves = []

    def migrate_to(self, cell: CellId) -> None:
        self.moves.append((cell,))
        self.current_cell = cell

    def activate(self) -> None:
        self.state = MhState.ACTIVE

    def deactivate(self) -> None:
        self.state = MhState.INACTIVE


def test_driver_migrates_on_schedule(sim):
    host = _FakeHost()
    driver = MobilityDriver(sim, host, RandomNeighborWalk(line_topology(3)),
                            FixedResidence(1.0), random.Random(0))
    driver.start()
    sim.run(until=5.5)
    driver.stop()
    assert len(host.moves) == 5


def test_driver_max_migrations(sim):
    host = _FakeHost()
    driver = MobilityDriver(sim, host, RandomNeighborWalk(line_topology(3)),
                            FixedResidence(1.0), random.Random(0),
                            max_migrations=2)
    driver.start()
    sim.run(until=100.0)
    assert driver.migrations == 2


def test_driver_keeps_moving_inactive_host(sim):
    host = _FakeHost()
    host.state = MhState.INACTIVE
    driver = MobilityDriver(sim, host, RandomNeighborWalk(line_topology(3)),
                            FixedResidence(1.0), random.Random(0))
    driver.start()
    sim.run(until=3.5)
    assert len(host.moves) == 3  # people carry switched-off devices


def test_activity_alternates_states(sim):
    host = _FakeHost()
    proc = ActivityProcess(sim, host, lambda: 2.0, lambda: 1.0)
    proc.start()
    sim.run(until=2.5)
    assert host.state is MhState.INACTIVE
    sim.run(until=3.5)
    assert host.state is MhState.ACTIVE
    proc.stop()


def test_activity_stop(sim):
    host = _FakeHost()
    proc = ActivityProcess(sim, host, lambda: 1.0, lambda: 1.0)
    proc.start()
    sim.run(until=1.5)
    proc.stop()
    sim.run(until=10.0)
    assert host.state is MhState.INACTIVE  # frozen where it stopped


# -- mobility trace replay -------------------------------------------------------

def test_trace_step_validation():
    with pytest.raises(MobilityError):
        TraceStep(time=1.0, event="teleport")
    with pytest.raises(MobilityError):
        TraceStep(time=1.0, event=MIGRATE)  # needs a cell
    with pytest.raises(MobilityError):
        TraceStep(time=-1.0, event=ACTIVATE)


def test_trace_sorted_and_len():
    trace = MobilityTrace().add(5.0, ACTIVATE).add(1.0, DEACTIVATE)
    ordered = trace.sorted()
    assert [s.time for s in ordered.steps] == [1.0, 5.0]
    assert len(trace) == 2


def test_replayer_applies_and_skips():
    world = make_world()
    world.add_host("m", world.cells[0])
    world.run_until_idle()
    host = world.hosts["m"]
    trace = (MobilityTrace()
             .add(1.0, MIGRATE, cell=world.cells[1])
             .add(1.5, MIGRATE, cell=world.cells[1])   # same cell -> skipped
             .add(2.0, ACTIVATE)                        # already active -> skipped
             .add(3.0, DEACTIVATE)
             .add(4.0, DEACTIVATE)                      # already off -> skipped
             .add(5.0, ACTIVATE))
    replayer = TraceReplayer(world.sim, host, trace)
    replayer.start()
    world.run_until_idle()
    assert replayer.applied == 3
    assert replayer.skipped == 3
    assert host.current_cell == world.cells[1]
    assert host.state is MhState.ACTIVE

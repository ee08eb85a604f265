"""Tests for cell maps, mobility models, activity and the driver."""

from __future__ import annotations

import random

import pytest

from repro.errors import MobilityError
from repro.mobility import (
    ActivityProcess,
    CellMap,
    ExponentialResidence,
    FixedResidence,
    FixedRoute,
    HotspotMobility,
    MarkovMobility,
    MobilityDriver,
    RandomNeighborWalk,
    UniformResidence,
    complete_topology,
    custom_topology,
    fixed_durations,
    grid_topology,
    line_topology,
    ring_topology,
)
from repro.types import CellId, MhState


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
    cmap = custom_topology([("a", "b"), ("b", "c")], isolated=["d"])
    assert cmap.distance_hops(CellId("a"), CellId("c")) == 2
    assert cmap.neighbors(CellId("d")) == []


def test_unknown_cell_raises():
    cmap = line_topology(2)
    with pytest.raises(MobilityError):
        cmap.neighbors(CellId("nowhere"))


def test_cells_and_neighbors_follow_a_graph_edited_after_construction():
    # Only the sort key is memoised, never a sorted list: callers such as
    # ring_topology edit cmap.graph after the CellMap exists.
    cmap = line_topology(11)
    assert cmap.cells[:3] == ["cell0", "cell1", "cell2"]
    assert cmap.cells[-1] == "cell10"            # numeric, not lexical
    assert cmap.neighbors(CellId("cell0")) == ["cell1"]
    cmap.graph.add_edge(CellId("cell0"), CellId("cell10"))
    cmap.graph.add_edge(CellId("cell0"), CellId("cell12"))   # a new cell
    assert cmap.neighbors(CellId("cell0")) == ["cell1", "cell10", "cell12"]
    assert cmap.cells[-2:] == ["cell10", "cell12"] and len(cmap) == 12
    cmap.graph.remove_node(CellId("cell1"))
    assert cmap.neighbors(CellId("cell0")) == ["cell10", "cell12"]
    assert "cell1" not in cmap.cells


# -- residence times ------------------------------------------------------------

def test_fixed_residence():
    model = FixedResidence(3.0)
    assert model.sample(random.Random(0)) == 3.0
    assert model.mean == 3.0
    with pytest.raises(MobilityError):
        FixedResidence(0.0)


def test_exponential_residence_mean():
    model = ExponentialResidence(5.0)
    rng = random.Random(1)
    samples = [model.sample(rng) for _ in range(2000)]
    assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.1)


def test_uniform_residence_bounds():
    model = UniformResidence(1.0, 3.0)
    rng = random.Random(2)
    assert all(1.0 <= model.sample(rng) <= 3.0 for _ in range(100))
    assert model.mean == 2.0


# -- mobility models ---------------------------------------------------------------

def test_random_walk_stays_on_edges():
    cmap = line_topology(3)
    walk = RandomNeighborWalk(cmap)
    rng = random.Random(3)
    for _ in range(50):
        target = walk.next_cell(CellId("cell1"), rng)
        assert target in ("cell0", "cell2")


def test_markov_transitions_respect_probabilities():
    model = MarkovMobility({CellId("a"): {CellId("b"): 1.0}})
    assert model.next_cell(CellId("a"), random.Random(0)) == "b"


def test_markov_stay_probability():
    model = MarkovMobility({CellId("a"): {CellId("b"): 0.0}})
    assert model.next_cell(CellId("a"), random.Random(0)) is None


def test_markov_invalid_row():
    with pytest.raises(MobilityError):
        MarkovMobility({CellId("a"): {CellId("b"): 1.5}})


def test_hotspot_pull_moves_toward_hotspot():
    cmap = line_topology(5)
    model = HotspotMobility(cmap, CellId("cell4"), pull=1.0)
    assert model.next_cell(CellId("cell1"), random.Random(0)) == "cell2"


def test_hotspot_requires_known_cell():
    with pytest.raises(MobilityError):
        HotspotMobility(line_topology(2), CellId("ghost"))


def test_fixed_route_follows_and_stops():
    route = FixedRoute([CellId("cell0"), CellId("cell1"), CellId("cell2")])
    rng = random.Random(0)
    assert route.next_cell(CellId("cell0"), rng) == "cell1"
    assert route.next_cell(CellId("cell1"), rng) == "cell2"
    assert route.next_cell(CellId("cell2"), rng) is None


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
    proc = ActivityProcess(sim, host, fixed_durations(2.0), fixed_durations(1.0))
    proc.start()
    sim.run(until=2.5)
    assert host.state is MhState.INACTIVE
    sim.run(until=3.5)
    assert host.state is MhState.ACTIVE
    proc.stop()


def test_activity_stop(sim):
    host = _FakeHost()
    proc = ActivityProcess(sim, host, fixed_durations(1.0), fixed_durations(1.0))
    proc.start()
    sim.run(until=1.5)
    proc.stop()
    sim.run(until=10.0)
    assert host.state is MhState.INACTIVE  # frozen where it stopped

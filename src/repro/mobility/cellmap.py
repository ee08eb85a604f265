"""Cell topologies.

Each Mobile Support Station defines a geographic cell (paper, Section 2).
A :class:`CellMap` is an undirected graph of cells; mobile hosts migrate
along its edges.  Builders cover the layouts used by the experiments:
line, ring, grid (a city district model) and complete (teleport) graphs.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, List, Sequence, Tuple, Union

import networkx as nx

from ..errors import MobilityError
from ..types import CellId


@functools.cache  # a pure function of the name; every sort asks per cell
def natural_key(name: str) -> Tuple[Union[int, str], ...]:
    """Sort key treating digit runs numerically: cell2 before cell10."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", name))


class CellMap:
    """Undirected graph of cells with optional 2-D positions."""

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() == 0:
            raise MobilityError("cell map must contain at least one cell")
        self.graph = graph

    @property
    def cells(self) -> List[CellId]:
        return sorted(self.graph.nodes, key=natural_key)

    def __len__(self) -> int:
        return self.graph.number_of_nodes()

    def __contains__(self, cell: CellId) -> bool:
        return cell in self.graph

    def neighbors(self, cell: CellId) -> List[CellId]:
        """Cells reachable in one migration from *cell*, sorted."""
        if cell not in self.graph:
            raise MobilityError(f"unknown cell {cell!r}")
        return sorted(self.graph.neighbors(cell), key=natural_key)

    def position(self, cell: CellId) -> Tuple[float, float]:
        """2-D position of *cell* (grid layouts set it; defaults to 0,0)."""
        data = self.graph.nodes[cell]
        return data.get("pos", (0.0, 0.0))

    def distance_hops(self, a: CellId, b: CellId) -> int:
        """Shortest-path hop distance between two cells."""
        return nx.shortest_path_length(self.graph, a, b)


def _cell_name(index: int) -> CellId:
    return CellId(f"cell{index}")


def line_topology(n_cells: int) -> CellMap:
    """Cells in a row: cell0 - cell1 - ... - cell(n-1)."""
    if n_cells < 1:
        raise MobilityError("need at least one cell")
    graph = nx.Graph()
    for i in range(n_cells):
        graph.add_node(_cell_name(i), pos=(float(i), 0.0))
    for i in range(n_cells - 1):
        graph.add_edge(_cell_name(i), _cell_name(i + 1))
    return CellMap(graph)


def ring_topology(n_cells: int) -> CellMap:
    """Cells in a cycle (a beltway)."""
    if n_cells < 3:
        raise MobilityError("a ring needs at least three cells")
    cmap = line_topology(n_cells)
    cmap.graph.add_edge(_cell_name(0), _cell_name(n_cells - 1))
    return cmap


def grid_topology(width: int, height: int) -> CellMap:
    """A width x height 4-neighbour grid of cells (a city district map)."""
    if width < 1 or height < 1:
        raise MobilityError("grid dimensions must be positive")
    graph = nx.Graph()
    def name(x: int, y: int) -> CellId:
        return CellId(f"cell{x}_{y}")
    for x in range(width):
        for y in range(height):
            graph.add_node(name(x, y), pos=(float(x), float(y)))
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                graph.add_edge(name(x, y), name(x + 1, y))
            if y + 1 < height:
                graph.add_edge(name(x, y), name(x, y + 1))
    return CellMap(graph)


def complete_topology(n_cells: int) -> CellMap:
    """Every cell adjacent to every other (teleport mobility)."""
    if n_cells < 1:
        raise MobilityError("need at least one cell")
    graph = nx.complete_graph(n_cells)
    graph = nx.relabel_nodes(graph, {i: _cell_name(i) for i in range(n_cells)})
    for i in range(n_cells):
        graph.nodes[_cell_name(i)]["pos"] = (float(i), 0.0)
    return CellMap(graph)


def custom_topology(edges: Iterable[Tuple[str, str]],
                    isolated: Sequence[str] = ()) -> CellMap:
    """Build a map from explicit cell-name edges."""
    graph = nx.Graph()
    for a, b in edges:
        graph.add_edge(CellId(a), CellId(b))
    for cell in isolated:
        graph.add_node(CellId(cell))
    return CellMap(graph)

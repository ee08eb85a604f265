"""Cell topologies.

Each Mobile Support Station defines a geographic cell (paper, Section 2).
A :class:`CellMap` is an undirected graph of cells; mobile hosts migrate
along its edges.  Builders cover the layouts used by the experiments:
line, ring, grid (a city district model) and complete (teleport) graphs.
"""

from __future__ import annotations

import functools
import re
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional,
                    Tuple, TypeVar, Union)

from ..errors import MobilityError
from ..types import CellId

Node = TypeVar("Node", bound=Hashable)


@functools.cache  # a pure function of the name; every sort asks per cell
def natural_key(name: str) -> Tuple[Union[int, str], ...]:
    """Sort key treating digit runs numerically: cell2 before cell10."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", name))


def bfs(adjacency: Mapping[Node, Iterable[Node]],
        source: Node) -> Dict[Node, Tuple[int, Node]]:
    """``{node: (hops, first hop)}`` for every node *source* reaches.

    Neighbours are visited in *adjacency* order and the first path found
    is kept, so among equal-length paths the one through the earliest
    listed neighbour wins.  The source maps to ``(0, source)``.
    """
    reached = {source: (0, source)}
    frontier = [source]
    while frontier:
        nearer, frontier = frontier, []
        for node in nearer:
            hops, first = reached[node]
            for neighbor in adjacency[node]:
                if neighbor not in reached:
                    reached[neighbor] = (hops + 1,
                                         neighbor if node == source else first)
                    frontier.append(neighbor)
    return reached


class CellMap:
    """Undirected graph of cells with optional 2-D positions.

    The cells are those named in *edges*, *positions* or *isolated*.  The
    map is fixed at construction: ``cells`` and each cell's neighbours are
    resolved in natural order once.
    """

    def __init__(self, edges: Iterable[Tuple[CellId, CellId]],
                 positions: Optional[Mapping[CellId, Tuple[float, float]]] = None,
                 isolated: Iterable[CellId] = ()) -> None:
        self._positions: Dict[CellId, Tuple[float, float]] = dict(positions or {})
        adjacency: Dict[CellId, Dict[CellId, None]] = {
            cell: {} for cell in [*self._positions, *isolated]}
        for a, b in edges:
            adjacency.setdefault(a, {})[b] = None
            adjacency.setdefault(b, {})[a] = None
        if not adjacency:
            raise MobilityError("cell map must contain at least one cell")
        self._cells = sorted(adjacency, key=natural_key)
        self._neighbors = {cell: sorted(adjacency[cell], key=natural_key)
                           for cell in self._cells}

    @property
    def cells(self) -> List[CellId]:
        return list(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell: CellId) -> bool:
        return cell in self._neighbors

    def neighbors(self, cell: CellId) -> List[CellId]:
        """Cells reachable in one migration from *cell*, sorted."""
        if cell not in self._neighbors:
            raise MobilityError(f"unknown cell {cell!r}")
        return list(self._neighbors[cell])

    def position(self, cell: CellId) -> Tuple[float, float]:
        """2-D position of *cell* (grid layouts set it; defaults to 0,0)."""
        return self._positions.get(cell, (0.0, 0.0))


def _cell_name(index: int) -> CellId:
    return CellId(f"cell{index}")


def _row(n_cells: int) -> Dict[CellId, Tuple[float, float]]:
    return {_cell_name(i): (float(i), 0.0) for i in range(n_cells)}


def line_topology(n_cells: int) -> CellMap:
    """Cells in a row: cell0 - cell1 - ... - cell(n-1)."""
    if n_cells < 1:
        raise MobilityError("need at least one cell")
    return CellMap([(_cell_name(i), _cell_name(i + 1))
                    for i in range(n_cells - 1)], _row(n_cells))


def ring_topology(n_cells: int) -> CellMap:
    """Cells in a cycle (a beltway)."""
    if n_cells < 3:
        raise MobilityError("a ring needs at least three cells")
    return CellMap([(_cell_name(i), _cell_name((i + 1) % n_cells))
                    for i in range(n_cells)], _row(n_cells))


def grid_topology(width: int, height: int) -> CellMap:
    """A width x height 4-neighbour grid of cells (a city district map)."""
    if width < 1 or height < 1:
        raise MobilityError("grid dimensions must be positive")
    def name(x: int, y: int) -> CellId:
        return CellId(f"cell{x}_{y}")
    positions = {name(x, y): (float(x), float(y))
                 for x in range(width) for y in range(height)}
    edges = [(name(x, y), name(x + dx, y + dy))
             for x in range(width) for y in range(height)
             for dx, dy in ((1, 0), (0, 1))
             if x + dx < width and y + dy < height]
    return CellMap(edges, positions)


def complete_topology(n_cells: int) -> CellMap:
    """Every cell adjacent to every other (teleport mobility)."""
    if n_cells < 1:
        raise MobilityError("need at least one cell")
    return CellMap([(_cell_name(i), _cell_name(j))
                    for i in range(n_cells) for j in range(i + 1, n_cells)],
                   _row(n_cells))

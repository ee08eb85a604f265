"""Proxy placement policies.

The paper creates the proxy at the MH's respMss at the time of the first
request and argues that, because the proxy's location is decided anew for
every request series, "the protocol facilitates dynamic global load
balancing within the set of MSSs" (Sections 1, 3.3, 5).

Three policies make that claim measurable:

* :class:`CurrentCellPlacement` — the paper's rule.
* :class:`HomeMssPlacement` — a Mobile-IP-style *static* home agent: the
  proxy always lives at the MH's home MSS (the baseline of experiment AN5).
* ``placement="least_loaded"`` — an extension exploiting the dynamic
  placement freedom explicitly: create the proxy at the currently
  least-loaded MSS (``world.py``, bound to the world's load figures).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict

from ..errors import ConfigError
from ..types import NodeId


class PlacementPolicy(ABC):
    """Decides which MSS hosts a new proxy for *mh*."""

    name = "abstract"

    @abstractmethod
    def place(self, mh: NodeId, resp_mss: NodeId) -> NodeId:
        """Return the node id of the MSS that should host the proxy."""


class CurrentCellPlacement(PlacementPolicy):
    """The paper's rule: create the proxy at the current respMss."""

    name = "current"

    def place(self, mh: NodeId, resp_mss: NodeId) -> NodeId:
        return resp_mss


class HomeMssPlacement(PlacementPolicy):
    """Mobile-IP-style static placement at the MH's home MSS."""

    name = "home"

    def __init__(self, home_table: Dict[NodeId, NodeId]) -> None:
        if not home_table:
            raise ConfigError("home placement needs a non-empty home table")
        self.home_table = dict(home_table)

    def place(self, mh: NodeId, resp_mss: NodeId) -> NodeId:
        try:
            return self.home_table[mh]
        except KeyError:
            raise ConfigError(f"no home MSS configured for {mh!r}") from None

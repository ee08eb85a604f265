"""Directory service.

The paper assumes that "each server maintains a fixed address which can be
obtained by querying a directory service" (Section 2).  Because server
addresses are static and the directory itself is a static host, lookups
are modelled as local (zero-cost) calls.
"""

from __future__ import annotations

from typing import Dict

from ..errors import UnknownNodeError
from ..types import NodeId


class DirectoryService:
    """Name -> server-address registry with prefix listing."""

    def __init__(self) -> None:
        self._entries: Dict[str, NodeId] = {}

    def register(self, name: str, node: NodeId) -> None:
        """Bind *name* to *node*; re-binding overwrites."""
        self._entries[name] = node

    def lookup(self, name: str) -> NodeId:
        """Resolve *name*; raises :class:`UnknownNodeError` when unbound."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNodeError(f"no directory entry for {name!r}") from None

    def contains(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

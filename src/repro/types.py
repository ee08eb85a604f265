"""Shared identifier types and small value objects.

The simulation identifies every participant with a string :data:`NodeId`.
Conventions used across the library:

* Mobile Support Stations: ``"mss:<name>"``
* Mobile hosts:            ``"mh:<name>"``
* Application servers:     ``"srv:<name>"``
* Proxies are not nodes; they live inside their hosting MSS and are
  addressed with a :class:`ProxyRef` (MSS node id + proxy object id).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NewType

NodeId = NewType("NodeId", str)
CellId = NewType("CellId", str)
RequestId = NewType("RequestId", str)
ProxyId = NewType("ProxyId", str)


def mss_id(name: str) -> NodeId:
    """Build the canonical node id of a Mobile Support Station."""
    return NodeId(f"mss:{name}")


def mh_id(name: str) -> NodeId:
    """Build the canonical node id of a mobile host."""
    return NodeId(f"mh:{name}")


def server_id(name: str) -> NodeId:
    """Build the canonical node id of an application server."""
    return NodeId(f"srv:{name}")


def is_mss(node: NodeId) -> bool:
    """Return True when *node* names a Mobile Support Station."""
    return node.startswith("mss:")


class MhState(Enum):
    """Life-cycle states of a mobile host (paper, Section 2).

    DOZING and CRASHED extend the paper: doze is a radio-off power state
    (volatile state kept, like INACTIVE but entered deliberately with
    pending work), crash loses all volatile state — only the durable
    client log (``hosts/clientlog.py``) survives until ``recover``.
    """

    ACTIVE = "active"
    INACTIVE = "inactive"
    MIGRATING = "migrating"
    LEFT = "left"
    DOZING = "dozing"
    CRASHED = "crashed"


@dataclass(frozen=True, slots=True)
class ProxyRef:
    """Address of a proxy object: hosting MSS plus proxy object id.

    This is the payload of the *pref* structure that travels between MSSs
    during hand-off (paper, Section 3.1).
    """

    mss: NodeId
    proxy_id: ProxyId

    def __str__(self) -> str:
        return f"{self.mss}/{self.proxy_id}"

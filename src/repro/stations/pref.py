"""The proxy reference (*pref*) an MSS keeps for each local MH.

Per the paper (Section 3.1) a pref holds the address of the MH's current
proxy (or null when the MH has no pending requests) plus the
*Ready-to-Kill-pref* (RKpR) flag.  We additionally track, locally, the set
of results this MSS has forwarded to the MH and not yet seen acknowledged
(``outstanding``): the paper's proxy-removal condition is "RKpR is true
and for all of MH's requests the corresponding Ack has been received",
and ``outstanding`` is exactly the respMss's view of that condition.
``outstanding`` is *not* part of the hand-off payload — after a migration
the proxy re-sends unacknowledged results to the new MSS, which rebuilds
it.  The station holds each pref in the MH's
:class:`~repro.stations.mss.MhEntry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..types import ProxyRef, RequestId


@dataclass
class Pref:
    """One MH's proxy reference at its current respMss."""

    ref: Optional[ProxyRef] = None
    rkpr: bool = False
    outstanding: Set[RequestId] = field(default_factory=set)
    creating: bool = False  # a remote proxy creation is in flight
    # Deliveries forwarded by a proxy that is *not* this pref's owner (a
    # crash-orphaned predecessor retransmitting): the Ack must route back
    # to the forwarding proxy, but the pref itself must not be stolen —
    # new requests belong to the owner.  Keyed by request id.
    foreign: Dict[RequestId, ProxyRef] = field(default_factory=dict)

    @property
    def has_proxy(self) -> bool:
        return self.ref is not None

    def clear_proxy(self) -> None:
        """Null the address and drop flags (the proxy is being removed)."""
        self.ref = None
        self.rkpr = False
        self.outstanding.clear()

"""The paper's contribution: the Result Delivery Protocol.

* :mod:`repro.core.protocol` — the RDP message vocabulary
* :mod:`repro.core.proxy` — the proxy-for-requests object (Section 3)
* :mod:`repro.core.placement` — proxy placement policies (paper rule,
  Mobile-IP-style home placement, least-loaded extension)
"""

from .placement import (
    CurrentCellPlacement,
    HomeMssPlacement,
    PlacementPolicy,
)
from .proxy import Proxy, RequestRecord

__all__ = [
    "CurrentCellPlacement",
    "HomeMssPlacement",
    "PlacementPolicy",
    "Proxy",
    "RequestRecord",
]

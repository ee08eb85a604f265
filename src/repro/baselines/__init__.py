"""Baselines the paper compares RDP against.

* :mod:`repro.baselines.direct` — best-effort delivery, no proxy (results
  lost on migration/inactivity);
* :mod:`repro.baselines.mobile_ip` — static home-agent rendezvous
  (reliability-equalized; isolates the placement variable of AN5);
* :mod:`repro.baselines.itcp_like` — per-MH state at the respMss, full
  image transferred on hand-off, forwarding-pointer residue (AN7).
"""

from .direct import DirectDeliveryMss
from .itcp_like import ItcpLikeMss, MhImage, StoredResult
from .mobile_ip import mobile_ip_config

__all__ = [
    "DirectDeliveryMss",
    "ItcpLikeMss",
    "MhImage",
    "StoredResult",
    "mobile_ip_config",
]

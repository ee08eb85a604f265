"""Mobile-IP-style rendezvous baseline.

The paper contrasts RDP's *dynamic* proxy with Mobile IP's *static* home
agent (Section 4): "In Mobile IP the home agent is fixed rather than
dynamic, making dynamic load balancing impossible."

We model a reliability-equalized Mobile-IP-like protocol by reusing the
RDP machinery with two changes:

* the rendezvous point (home agent == proxy) is always created at the
  MH's *home* MSS, regardless of where the MH currently is
  (``placement="home"``);
* it is permanent: it never removes itself (``persistent_proxies=True``),
  like a home agent that exists for the lifetime of the subscription.

Delivery reliability (store + retransmit on binding update) is kept equal
to RDP's so that experiment AN5 isolates exactly the placement variable:
load concentration at home MSSs vs load that follows the MHs.
"""

from __future__ import annotations

from dataclasses import replace

from ..config import WorldConfig


def mobile_ip_config(base: WorldConfig) -> WorldConfig:
    """Derive the Mobile-IP variant of a world config."""
    return replace(base, placement="home", persistent_proxies=True)

"""repro — a reproduction of "RDP: A Result Delivery Protocol for Mobile
Computing" (Markus Endler, Dilma M. Silva, Kunio Okuda; ICDCS 2000).

The package provides:

* a deterministic discrete-event simulation kernel (:mod:`repro.sim`);
* wired (reliable, causally ordered) and wireless (cell-based, lossy)
  network substrates (:mod:`repro.net`);
* mobility models and traces (:mod:`repro.mobility`);
* the RDP protocol itself — proxies, prefs, hand-off, flags
  (:mod:`repro.core`, :mod:`repro.stations`, :mod:`repro.hosts`);
* application servers including the paper's Traffic Information Server
  network (:mod:`repro.servers`) and the SIDAM city workloads
  (:mod:`repro.sidam`);
* baselines (Mobile-IP-style home agent, best-effort direct delivery,
  I-TCP-style full-state hand-off) in :mod:`repro.baselines`;
* analysis tooling and the paper's experiments (:mod:`repro.analysis`,
  :mod:`repro.experiments`).

Quickstart::

    from repro import World, WorldConfig

    world = World(WorldConfig(n_cells=3))
    world.add_server("echo")
    client = world.add_host("mh1", world.cells[0])
    pending = client.request("echo", {"hello": "world"})
    world.run_until_idle()
    assert pending.done
"""

from .config import LatencySpec, WiredFaultSpec, WorldConfig
from .errors import ReproError
from .instruments import Instruments
from .world import World

__version__ = "1.0.0"

__all__ = [
    "Instruments",
    "LatencySpec",
    "ReproError",
    "WiredFaultSpec",
    "World",
    "WorldConfig",
    "__version__",
]

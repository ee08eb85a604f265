"""Live network backend: RDP over real asyncio UDP sockets.

The simulator runs the whole world inside one process on virtual time;
this package runs the *same protocol entities* (``MobileSupportStation``,
``Proxy``, ``MobileHost``, ``AppServer``, ``RdpClient``) on wall-clock
time over loopback UDP, one OS process per station.  Both backends are
just two implementations of :class:`repro.engine.Engine` plus two
transports behind the same structural interfaces, so entity code is
byte-identical between them and the trace/oracle/span tooling consumes a
live run unmodified.  See ``docs/LIVE.md`` for the architecture and
``repro.experiments live`` for the demo cluster.
"""

from .clock import LiveClock
from .cluster import ClusterResult, ClusterSpec, run_cluster
from .codec import CodecError
from .engine import AsyncioEngine

__all__ = [
    "AsyncioEngine",
    "ClusterResult",
    "ClusterSpec",
    "CodecError",
    "LiveClock",
    "run_cluster",
]

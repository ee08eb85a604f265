"""Network substrates: messages, wired and wireless channels, ordering.

* :class:`Message` — base class for all simulated messages
* :class:`WiredNetwork` — reliable static network (causal order by default)
* :class:`WirelessChannel` — cell radio with loss and inactivity drops
* :class:`DirectoryService` — fixed-address server lookup
* :class:`NetworkMonitor` — message/byte counters
* :class:`FaultPlan` — seeded wired fault injection (loss/dup/partitions)
* :class:`ReliableLink` — ack/retransmit transport repairing the faults
* latency models in :mod:`repro.net.latency`
* ordering layers (raw / fifo / causal) in :mod:`repro.net.causal`
"""

from .causal import CausalOrdering, FifoOrdering, OrderingLayer, RawOrdering, make_ordering
from .directory import DirectoryService
from .faults import FaultPlan
from .latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from .message import Message
from .monitor import NetworkMonitor
from .reliable import DeliveryFailure, LinkAckMsg, ReliableLink, RetryPolicy
from .vectorclock import VectorClock
from .wired import WiredNetwork
from .wireless import WirelessChannel

__all__ = [
    "CausalOrdering",
    "ConstantLatency",
    "DeliveryFailure",
    "DirectoryService",
    "ExponentialLatency",
    "FaultPlan",
    "FifoOrdering",
    "LatencyModel",
    "LinkAckMsg",
    "Message",
    "NetworkMonitor",
    "OrderingLayer",
    "RawOrdering",
    "ReliableLink",
    "RetryPolicy",
    "UniformLatency",
    "VectorClock",
    "WiredNetwork",
    "WirelessChannel",
    "make_ordering",
]

"""Mobile Support Stations: registration, hand-off, per-MH entries, inbox."""

from .inbox import Inbox, default_priority
from .mss import MhEntry, MobileSupportStation, MssConfig
from .pref import Pref

__all__ = [
    "Inbox",
    "MhEntry",
    "MobileSupportStation",
    "MssConfig",
    "Pref",
    "default_priority",
]

"""Application servers: base request/reply, TIS network, subscriptions,
group multicast."""

from .base import AppServer
from .echo import EchoServer, ManualServer, TaggingServer
from .mail import MailServer, Mailbox, StoredMail
from .multicast import GroupServer
from .ordered_multicast import (
    OrderedGroupServer,
    OrderedMembership,
    join_ordered_group,
    leave_ordered_group,
)
from .subscription import SubscriptionEntry, SubscriptionRegistry
from .tis import TrafficInfoServer, TrafficReport
from .tis_network import TisNetwork

__all__ = [
    "AppServer",
    "EchoServer",
    "GroupServer",
    "MailServer",
    "Mailbox",
    "ManualServer",
    "OrderedGroupServer",
    "StoredMail",
    "OrderedMembership",
    "join_ordered_group",
    "leave_ordered_group",
    "SubscriptionEntry",
    "SubscriptionRegistry",
    "TaggingServer",
    "TisNetwork",
    "TrafficInfoServer",
    "TrafficReport",
]

"""Durable client-side operation log for MH crash recovery.

Mobile-database style (see PAPERS.md: log management for mobile-host
recovery): the MH appends a tiny record for every request it issues and
marks it when the result arrives.  Everything else on the host is
volatile — on ``crash()`` the in-memory protocol state (dedup sets,
pending acks, registration) is wiped, and ``recover(cell)`` rebuilds
exactly what the log can vouch for:

* the set of *delivered* request ids, so redelivered results are
  deduplicated (exactly-once across the crash);
* the *unanswered* requests, re-issued to the new respMss so the proxy
  (which deduplicates by request id) re-forwards or re-delivers;
* the registration incarnation number, the last confirmed MSS and the
  recent *announce targets* (written ahead of each greet transmission),
  so the recovery greet carries a truthful ``old_mss`` — the last MSS
  the host may have handed its state to, confirmed or not — plus the
  candidates the custody chase needs when that greet never arrived.

The log stores only plain ids and payload values — no live object
references — so it is trivially shard-safe (SHD001/SHD006) and models
what a real client would keep in flash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..types import NodeId, RequestId


@dataclass
class LogRecord:
    """One issued request, as the durable log remembers it."""

    request_id: RequestId
    service: str
    payload: Any = None
    delivered: bool = False


class ClientLog:
    """Append-mostly durable log: issued requests, deliveries, registration."""

    def __init__(self) -> None:
        # Insertion-ordered: replay re-issues in original issue order.
        self._records: Dict[RequestId, LogRecord] = {}
        self._reg_seq = 0
        self._confirmed_mss: Optional[NodeId] = None
        self._announced: List[NodeId] = []

    # -- writes (called on the MH's hot paths) ---------------------------

    def note_issued(self, request_id: RequestId, service: str,
                    payload: Any = None) -> None:
        if request_id not in self._records:
            self._records[request_id] = LogRecord(request_id, service, payload)

    def note_delivered(self, request_id: RequestId) -> None:
        record = self._records.get(request_id)
        if record is not None:
            record.delivered = True
        else:
            # Delivery for a request issued before the log existed (or by
            # a direct protocol test): still worth remembering for dedup.
            self._records[request_id] = LogRecord(
                request_id, service="?", delivered=True)

    def note_registration(self, seq: int) -> None:
        """Persist the registration incarnation (monotonic high-water)."""
        if seq > self._reg_seq:
            self._reg_seq = seq

    def note_confirmed(self, mss: Optional[NodeId]) -> None:
        self._confirmed_mss = mss

    def note_announced(self, mss: NodeId) -> None:
        """Write-ahead record of a greet target: the host may be handing
        its state to *mss* even if the confirmation never comes back."""
        self._announced.insert(0, mss)
        del self._announced[3:]

    # -- reads (called during recovery) ----------------------------------

    @property
    def reg_seq(self) -> int:
        return self._reg_seq

    @property
    def confirmed_mss(self) -> Optional[NodeId]:
        return self._confirmed_mss

    @property
    def announced(self) -> List[NodeId]:
        """Recent greet targets, newest first."""
        return list(self._announced)

    def unanswered(self) -> List[LogRecord]:
        """Issued requests with no delivered result, in issue order."""
        return [r for r in self._records.values() if not r.delivered]

    def delivered_ids(self) -> List[RequestId]:
        return [r.request_id for r in self._records.values() if r.delivered]

    def __len__(self) -> int:
        return len(self._records)

    def wipe(self) -> None:
        """Erase everything — models a client *without* durable storage
        (AN16's amnesiac ``no_recovery`` arm)."""
        self._records.clear()
        self._reg_seq = 0
        self._confirmed_mss = None
        self._announced.clear()

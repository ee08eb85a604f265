"""Simple concrete servers used by tests and examples."""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.protocol import ServerRequestMsg
from ..types import RequestId
from .base import AppServer


class EchoServer(AppServer):
    """Replies with exactly the request payload."""


class ManualServer(AppServer):
    """Replies only when the test (or scenario script) says so.

    Scenario reproductions (Figures 3 and 4) need exact control over when
    each result reaches the proxy; ``release`` answers one held request.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.held: Dict[RequestId, ServerRequestMsg] = {}
        self.arrival_order: List[RequestId] = []

    def _complete(self, message: ServerRequestMsg) -> None:
        self.held[message.request_id] = message
        self.arrival_order.append(message.request_id)

    def release(self, request_id: RequestId, payload: Any = None) -> None:
        """Answer one held request (echoes its payload by default)."""
        message = self.held.pop(request_id)
        self.requests_served += 1
        self.reply(message, payload if payload is not None else message.payload)

    def release_next(self, payload: Any = None) -> RequestId:
        """Answer the oldest held request."""
        request_id = self.arrival_order.pop(0)
        while request_id not in self.held:
            request_id = self.arrival_order.pop(0)
        self.release(request_id, payload)
        return request_id


class TaggingServer(AppServer):
    """Wraps the payload with server identity and a serial number —
    convenient for asserting which server produced which result."""

    def handle_request(self, payload: Any) -> Any:
        return {
            "server": self.name,
            "serial": self.requests_served + 1,
            "echo": payload,
        }

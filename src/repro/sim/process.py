"""Retry and periodic-process helpers on top of the event kernel."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Hashable, Iterator, Optional

from ..engine import Engine
from ..errors import ConfigError, SchedulingError
from .event import Event


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission schedule limits: budget, clamps and jitter.

    Attempt *n* (1-based) waits ``timeout * backoff**(n-1)`` seconds,
    capped at ``max_timeout``: the complete schedule of
    :class:`~repro.net.reliable.LegacyReliableLink` and, jitter-free, of
    every protocol retry loop (:class:`Retrier`).  For the
    selective-repeat :class:`~repro.net.reliable.ReliableLink` the wait
    comes from the per-link RTO estimator instead; ``timeout`` seeds the
    estimator's initial RTO, ``min_timeout``/``max_timeout`` clamp it
    and ``backoff`` is the Karn timeout-doubling factor.

    Every armed delay is stretched by a deterministic jitter factor in
    ``[1, 1 + jitter]`` drawn from the link's seeded stream (jitter
    keeps synchronized retransmit storms apart without breaking replay)
    and then clamped so the jittered delay never exceeds
    ``max_timeout``.  After ``max_retries`` retransmissions
    (``max_retries + 1`` transmissions total) a frame is abandoned and
    a delivery failure is surfaced.
    """

    timeout: float = 0.25
    backoff: float = 2.0
    max_timeout: float = 8.0
    jitter: float = 0.1
    max_retries: int = 20
    min_timeout: float = 0.02

    def __post_init__(self) -> None:
        if self.timeout <= 0 or self.max_timeout < self.timeout:
            raise ConfigError(f"bad retry timeouts in {self!r}")
        if not 0 < self.min_timeout <= self.max_timeout:
            raise ConfigError(f"bad min_timeout in {self!r}")
        if self.backoff < 1.0:
            raise ConfigError(f"backoff {self.backoff!r} must be >= 1")
        if self.jitter < 0:
            raise ConfigError(f"negative jitter {self.jitter!r}")
        if self.max_retries < 0:
            raise ConfigError(f"negative retry budget {self.max_retries!r}")

    def timeout_for(self, attempt: int, draw: float) -> float:
        """Timeout before retransmitting transmission *attempt* (1-based);
        *draw* is a uniform [0, 1) sample from the link's stream.  The
        documented ``max_timeout`` cap applies to the *jittered* delay
        (clamping before jitter let delays overshoot the cap)."""
        try:
            grown = self.timeout * self.backoff ** (attempt - 1)
        except OverflowError:  # far past the cap: an unbounded loop's tail
            grown = self.max_timeout
        base = min(self.max_timeout, grown)
        return min(self.max_timeout, base * (1.0 + self.jitter * draw))

    def jittered(self, delay: float, draw: float) -> float:
        """Apply the policy's jitter + cap to an externally computed
        delay (the adaptive transport's RTO)."""
        return min(self.max_timeout, delay * (1.0 + self.jitter * draw))


@lru_cache(maxsize=64)
def retry_policy(timeout: Optional[float], cap: Optional[float] = None,
                 budget: Optional[int] = None) -> Optional[RetryPolicy]:
    """The jitter-free schedule of one protocol retry loop.

    Waits *timeout*, doubling per attempt up to *cap* (a cap below
    *timeout* clamps it; no cap: a fixed interval), for at most *budget*
    retries (none: unbounded).  A missing or non-positive *timeout* is
    the loop switched off: ``None``.  Policies are immutable, so equal
    arguments share one instance.
    """
    if timeout is None or timeout <= 0:
        return None
    if cap is None:
        cap, backoff = timeout, 1.0
    else:
        timeout, backoff = min(timeout, cap), 2.0
    return RetryPolicy(timeout=timeout, backoff=backoff, max_timeout=cap,
                       jitter=0.0, min_timeout=timeout,
                       max_retries=sys.maxsize if budget is None
                       else max(0, budget))


class Retrier:
    """One armed retry deadline per key, timed by a jitter-free
    :class:`RetryPolicy` (no random draw, so no RNG stream moves).

    :meth:`arm` schedules *key*'s deadline for *attempt* (default 1),
    superseding any armed one.  When it fires, ``retry(key, attempt,
    *args)`` runs the owner's "still needed?" check and retransmission;
    a truthy return arms ``attempt + 1`` unless the budget
    (``max_retries``) is spent.  An owner counting attempts itself
    returns nothing and re-arms from inside the callback.  A ``None``
    policy is the loop switched off.  Under a wall-clock engine an armed
    deadline keeps the event loop alive: owners cancel what dies.
    """

    __slots__ = ("_sim", "_policy", "_retry", "_label", "_armed")

    def __init__(self, sim: Engine, policy: Optional[RetryPolicy],
                 retry: Callable[..., Any], label: str) -> None:
        self._sim = sim
        self._policy = policy
        self._retry = retry
        self._label = label
        self._armed: Dict[Hashable, Event] = {}

    def __contains__(self, key: Hashable) -> bool:
        return key in self._armed

    def __iter__(self) -> Iterator[Hashable]:
        """The armed keys (a snapshot: cancelling while iterating is fine)."""
        return iter(list(self._armed))

    def arm(self, key: Hashable, *args: Any, attempt: int = 1,
            label: Optional[str] = None) -> None:
        """(Re)arm *key*'s deadline for *attempt*; *args* ride along to
        the callback and *label* (default: the retrier's) names the
        kernel event of this key's whole chain.  A no-op when the loop
        is off."""
        policy = self._policy
        if policy is None:
            return
        old = self._armed.get(key)
        if old is not None:
            old.cancel()
        self._armed[key] = self._sim.schedule(
            policy.timeout_for(attempt, 0.0), self._fire, key, attempt, args,
            label=label or self._label)

    def restart(self, key: Hashable) -> None:
        """Re-arm *key*'s pending attempt from now (after a retransmission
        the owner sent outside the loop); a no-op when *key* is not armed."""
        event = self._armed.get(key)
        if event is not None:
            _key, attempt, args = event.args
            self.arm(key, *args, attempt=attempt, label=event.label)

    def cancel(self, key: Hashable) -> None:
        """Disarm *key*; a no-op when it is not armed."""
        event = self._armed.pop(key, None)
        if event is not None:
            event.cancel()

    def cancel_all(self) -> None:
        for event in self._armed.values():
            event.cancel()
        self._armed.clear()

    def _fire(self, key: Hashable, attempt: int, args: tuple) -> None:
        label = self._armed.pop(key).label
        if (self._retry(key, attempt, *args)
                and attempt < self._policy.max_retries):
            self.arm(key, *args, attempt=attempt + 1, label=label)


class PeriodicProcess:
    """Invoke a callback at a (possibly randomized) period until stopped.

    The period is supplied by a zero-argument callable so callers can plug
    in exponential inter-arrival times, fixed ticks, etc.
    """

    def __init__(
        self,
        sim: Engine,
        action: Callable[[], Any],
        period: Callable[[], float],
        label: str = "",
    ) -> None:
        self._sim = sim
        self._action = action
        self._period = period
        self._label = label
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin ticking; the first tick fires after *initial_delay*
        (default: one period)."""
        if self._running:
            raise SchedulingError("periodic process already running")
        self._running = True
        delay = self._period() if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._tick, label=self._label)

    def stop(self) -> None:
        """Stop ticking; a no-op when not running."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._action()
        if not self._running:
            return
        self._event = self._sim.schedule(self._period(), self._tick, label=self._label)

"""Deterministic fault injection for the wired fabric and the radio last mile.

The paper's assumption 1 makes the inter-MSS network reliable and
causally ordered.  A :class:`FaultPlan` breaks the *reliable* half on
purpose — seeded message loss, duplication, delay spikes, and timed link
partitions — so the recovery machinery (``net/reliable.py``) can be
exercised and measured instead of assumed.

Every random decision draws from the plan's own ``random.Random``
stream (worlds derive it from the master seed as ``faults.wired``), so a
given seed produces the same fault schedule on every run.  The plan is
consulted once per frame through :meth:`FaultPlan.verdict` — by
:class:`~repro.net.wired.WiredNetwork` when it transmits, by the UDP
:class:`~repro.live.transport.LiveWiredTransport` when a datagram
arrives; drops and duplicates are recorded by the tracer under the
``wired_drop`` / ``wired_dup`` kinds and counted by the
:class:`~repro.net.monitor.NetworkMonitor`.

:class:`WirelessFaultPlan` is the radio-side sibling (stream
``faults.wireless``): loss bursts, congestion latency spikes, timed cell
blackouts and per-MH hand-off blackout windows, consulted by
:class:`~repro.net.wireless.WirelessFabric` on either engine and traced
under the ``wireless_drop`` / ``wireless_delay`` kinds.

:func:`wired_plan` and :func:`wireless_plan` are the one recipe from a
config spec and a world's RNG streams to a plan.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..sim.rng import RngStreams
from ..types import CellId, NodeId

if TYPE_CHECKING:  # config imports this package
    from ..config import WiredFaultSpec, WirelessFaultSpec

# One partition window: the unordered link {a, b} is cut for t0 <= now < t1.
PartitionWindow = Tuple[NodeId, NodeId, float, float]

# One blackout window: every frame in `cell` is lost for t0 <= now < t1.
BlackoutWindow = Tuple[CellId, float, float]


def _check_windows(windows: Sequence[Tuple[Hashable, float, float]],
                   what: str) -> None:
    """Reject negative-duration and overlapping windows on the same key.

    Shared by the wired and wireless plans: a schedule where two windows
    on one link/cell overlap almost always means a typo in an experiment
    config, and the resulting double-counted coverage is silent — fail
    loudly at construction instead.
    """
    for key, t0, t1 in windows:
        if t1 <= t0:
            raise ConfigError(f"empty or negative {what} window "
                              f"[{t0!r}, {t1!r}) on {key!r}")
    ordered = sorted(windows, key=lambda w: (repr(w[0]), w[1], w[2]))
    for (ka, a0, a1), (kb, b0, b1) in zip(ordered, ordered[1:]):
        if ka == kb and b0 < a1:
            raise ConfigError(
                f"overlapping {what} windows on {ka!r}: "
                f"[{a0!r}, {a1!r}) and [{b0!r}, {b1!r})")


class FaultPlan:
    """Seeded per-link fault schedule for the wired network.

    Rates are independent per frame: ``loss`` is the probability a frame
    vanishes in transit, ``duplication`` the probability it arrives
    twice, ``spike_probability`` the chance of adding ``spike`` seconds
    of extra latency, and ``reorder`` the chance of a uniform random
    delay in ``(0, reorder_spread]`` — enough to shuffle a frame behind
    its successors, the adversarial schedule the selective-repeat
    transport's SACK ranges exist for.  Partitions are absolute-time
    windows during which every frame on the named (undirected) link is
    dropped.
    """

    def __init__(
        self,
        rng: random.Random,
        loss: float = 0.0,
        duplication: float = 0.0,
        spike_probability: float = 0.0,
        spike: float = 0.0,
        reorder: float = 0.0,
        reorder_spread: float = 0.0,
        partitions: Tuple[PartitionWindow, ...] = (),
    ) -> None:
        for name, rate in (("loss", loss), ("duplication", duplication),
                           ("spike_probability", spike_probability),
                           ("reorder", reorder)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"fault {name} {rate!r} out of [0, 1]")
        if spike < 0:
            raise ConfigError(f"negative delay spike {spike!r}")
        if reorder_spread < 0:
            raise ConfigError(f"negative reorder spread {reorder_spread!r}")
        if reorder > 0.0 and reorder_spread == 0.0:
            raise ConfigError("reorder rate set but reorder_spread is 0")
        self.rng = rng
        self.loss = loss
        self.duplication = duplication
        self.spike_probability = spike_probability
        self.spike = spike
        self.reorder = reorder
        self.reorder_spread = reorder_spread
        self._partitions: List[PartitionWindow] = []
        for window in partitions:
            self.partition(*window)

    # -- schedule construction -------------------------------------------

    def partition(self, a: NodeId, b: NodeId, t0: float, t1: float) -> None:
        """Cut the undirected link between *a* and *b* for ``[t0, t1)``."""
        if t1 <= t0:
            raise ConfigError(f"empty partition window [{t0!r}, {t1!r})")
        self._partitions.append((a, b, t0, t1))

    def set_loss(self, probability: float) -> None:
        """Retarget the loss rate mid-run (used by the fuzzer's
        ``wired_loss`` op)."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigError(f"loss probability {probability!r} out of [0, 1]")
        self.loss = probability

    def validate(self) -> None:
        """Reject schedules with overlapping partition windows per link.

        Called once when a plan is built from a static spec; dynamically
        added windows (the fuzzer cuts links mid-run) are exempt because
        overlap there is a legitimate schedule, not a config typo.
        """
        _check_windows(
            [(tuple(sorted((a, b))), t0, t1)
             for a, b, t0, t1 in self._partitions],
            "partition")

    # -- per-frame queries ------------------------------------------------

    def verdict(self, src: NodeId, dst: NodeId, now: float,
                ) -> Tuple[Optional[str], Optional[float], float]:
        """One frame's fate: ``(drop reason, duplicate's extra delay,
        extra delay)``.

        The order — cut, loss, duplication (and, for a duplicate, the
        delay draw of the second copy), delay — is the plan's
        determinism contract: a cut consumes no draw, a lost frame none
        after the loss draw.  A reason means the frame is gone; a
        duplicate delay that is not ``None`` means it arrives twice.
        """
        if self.cut(src, dst, now):
            return "partition", None, 0.0
        if self.lost():
            return "loss", None, 0.0
        duplicate = self.extra_delay() if self.duplicated() else None
        return None, duplicate, self.extra_delay()

    def cut(self, src: NodeId, dst: NodeId, now: float) -> bool:
        """Is the src-dst link inside an active partition window?"""
        for a, b, t0, t1 in self._partitions:
            if t0 <= now < t1 and {a, b} == {src, dst}:
                return True
        return False

    def lost(self) -> bool:
        return self.loss > 0.0 and self.rng.random() < self.loss

    def duplicated(self) -> bool:
        return self.duplication > 0.0 and self.rng.random() < self.duplication

    def extra_delay(self) -> float:
        extra = 0.0
        if self.spike_probability > 0.0 and self.rng.random() < self.spike_probability:
            extra += self.spike
        # Guarded draws: a plan with reorder disabled consumes exactly
        # the PR-4 stream, keeping historical schedules byte-identical.
        if self.reorder > 0.0 and self.rng.random() < self.reorder:
            extra += self.rng.random() * self.reorder_spread
        return extra

    # -- reporting --------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Schedule parameters for experiment reports (stable keys)."""
        return {
            "loss": self.loss,
            "duplication": self.duplication,
            "spike_probability": self.spike_probability,
            "spike": self.spike,
            "reorder": self.reorder,
            "reorder_spread": self.reorder_spread,
            "partitions": [list(window) for window in self._partitions],
        }


class WirelessFaultPlan:
    """Seeded fault schedule for the radio last mile.

    Four fault shapes, mirroring what MHs actually experience:

    * **loss bursts** — radio fades arrive in runs, not independently:
      each frame has a ``burst_probability`` chance of opening a fade of
      ``burst_length`` seconds during which frames in that cell are lost
      with probability ``burst_loss`` (default: all of them);
    * **congestion spikes** — with ``congestion_probability`` a frame
      pays ``congestion_delay`` extra seconds of latency (cell saturated
      by other traffic), surfaced as a ``wireless_delay`` trace record;
    * **timed cell blackouts** — absolute-time windows during which a
      whole cell is dark (tower outage, tunnel);
    * **hand-off blackouts** — for ``handoff_blackout`` seconds after an
      MH switches cells its radio is retuning and every frame to or from
      it is lost, the classic hand-off disconnection window.

    Burst and blackout state is tracked per cell, hand-off state per
    host.  All randomness draws from the plan's own stream (worlds
    derive it as ``faults.wireless``), so the channel's pre-existing
    ``latency.wireless`` stream sees exactly the historical draw
    sequence and fault-free runs stay byte-identical.
    """

    def __init__(
        self,
        rng: random.Random,
        loss: float = 0.0,
        burst_probability: float = 0.0,
        burst_length: float = 0.0,
        burst_loss: float = 1.0,
        congestion_probability: float = 0.0,
        congestion_delay: float = 0.0,
        handoff_blackout: float = 0.0,
        blackouts: Tuple[BlackoutWindow, ...] = (),
    ) -> None:
        for name, rate in (("loss", loss),
                           ("burst_probability", burst_probability),
                           ("burst_loss", burst_loss),
                           ("congestion_probability", congestion_probability)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"wireless fault {name} {rate!r} out of [0, 1]")
        for name, duration in (("burst_length", burst_length),
                               ("congestion_delay", congestion_delay),
                               ("handoff_blackout", handoff_blackout)):
            if duration < 0:
                raise ConfigError(f"negative wireless {name} {duration!r}")
        if burst_probability > 0.0 and burst_length == 0.0:
            raise ConfigError("burst_probability set but burst_length is 0")
        if congestion_probability > 0.0 and congestion_delay == 0.0:
            raise ConfigError("congestion_probability set but congestion_delay is 0")
        self.rng = rng
        self.loss = loss
        self.burst_probability = burst_probability
        self.burst_length = burst_length
        self.burst_loss = burst_loss
        self.congestion_probability = congestion_probability
        self.congestion_delay = congestion_delay
        self.handoff_blackout = handoff_blackout
        self._blackouts: List[BlackoutWindow] = []
        for window in blackouts:
            self.blackout(*window)
        # Open fade per cell: cell -> absolute end time of the burst.
        self._burst_until: Dict[CellId, float] = {}
        # Retuning radio per host: host -> end of its hand-off blackout.
        self._handoff_until: Dict[NodeId, float] = {}

    # -- schedule construction -------------------------------------------

    def blackout(self, cell: CellId, t0: float, t1: float) -> None:
        """Darken *cell* for ``[t0, t1)`` (fuzzer ``cell_blackout`` op)."""
        if t1 <= t0:
            raise ConfigError(f"empty blackout window [{t0!r}, {t1!r})")
        self._blackouts.append((cell, t0, t1))

    def validate(self) -> None:
        """Reject overlapping blackout windows on the same cell.

        Like :meth:`FaultPlan.validate`, enforced for static specs only.
        """
        _check_windows(self._blackouts, "blackout")

    def note_handoff(self, host_id: NodeId, now: float) -> None:
        """An MH just switched cells: open its radio-retuning window."""
        if self.handoff_blackout > 0.0:
            self._handoff_until[host_id] = now + self.handoff_blackout

    # -- per-frame queries ------------------------------------------------

    def verdict(self, cell: CellId, host_id: NodeId,
                now: float) -> Optional[str]:
        """Why one frame between *host_id* and *cell* is lost, or None.

        Cell blackout, then the host's hand-off blackout — neither
        consumes a draw — then :meth:`lost`.
        """
        if self.blacked_out(cell, now):
            return "blackout"
        if self.in_handoff_blackout(host_id, now):
            return "handoff_blackout"
        return self.lost(cell, now)

    def blacked_out(self, cell: CellId, now: float) -> bool:
        for c, t0, t1 in self._blackouts:
            if c == cell and t0 <= now < t1:
                return True
        return False

    def in_handoff_blackout(self, host_id: NodeId, now: float) -> bool:
        return now < self._handoff_until.get(host_id, 0.0)

    def lost(self, cell: CellId, now: float) -> Optional[str]:
        """Frame-loss verdict for one transmission in *cell*, or None.

        Draw order (burst gate, then burst loss, then flat loss) is part
        of the plan's determinism contract: every frame consults the
        gates in the same sequence, so a given seed yields the same fade
        schedule regardless of which checks short-circuit downstream.
        """
        if now < self._burst_until.get(cell, 0.0):
            if self.rng.random() < self.burst_loss:
                return "burst"
        elif self.burst_probability > 0.0 and self.rng.random() < self.burst_probability:
            self._burst_until[cell] = now + self.burst_length
            if self.rng.random() < self.burst_loss:
                return "burst"
        if self.loss > 0.0 and self.rng.random() < self.loss:
            return "fault_loss"
        return None

    def extra_delay(self) -> float:
        if self.congestion_probability > 0.0 and self.rng.random() < self.congestion_probability:
            return self.congestion_delay
        return 0.0

    # -- reporting --------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Schedule parameters for experiment reports (stable keys)."""
        return {
            "loss": self.loss,
            "burst_probability": self.burst_probability,
            "burst_length": self.burst_length,
            "burst_loss": self.burst_loss,
            "congestion_probability": self.congestion_probability,
            "congestion_delay": self.congestion_delay,
            "handoff_blackout": self.handoff_blackout,
            "blackouts": [list(window) for window in self._blackouts],
        }


# -- spec -> plan -------------------------------------------------------------
#
# No spec, no plan.  A spec that is present always yields one, active or
# not: an all-zero plan draws nothing, and it is what arms the sim's
# reliable link and gives the fuzzer's ``wired_loss`` / ``cell_blackout``
# ops an object to mutate.


def wired_plan(spec: Optional[WiredFaultSpec],
               streams: RngStreams) -> Optional[FaultPlan]:
    """The wired plan *spec* describes, on the ``faults.wired`` stream."""
    if spec is None:
        return None
    plan = FaultPlan(
        rng=streams.stream("faults.wired"),
        loss=spec.loss,
        duplication=spec.duplication,
        spike_probability=spec.spike_probability,
        spike=spec.spike,
        reorder=spec.reorder,
        reorder_spread=spec.reorder_spread,
        partitions=tuple(
            (NodeId(a), NodeId(b), t0, t1)
            for a, b, t0, t1 in spec.partitions),
    )
    plan.validate()
    return plan


def wireless_plan(spec: Optional[WirelessFaultSpec],
                  streams: RngStreams) -> Optional[WirelessFaultPlan]:
    """The radio plan *spec* describes, on the ``faults.wireless`` stream."""
    if spec is None:
        return None
    plan = WirelessFaultPlan(
        rng=streams.stream("faults.wireless"),
        loss=spec.loss,
        burst_probability=spec.burst_probability,
        burst_length=spec.burst_length,
        burst_loss=spec.burst_loss,
        congestion_probability=spec.congestion_probability,
        congestion_delay=spec.congestion_delay,
        handoff_blackout=spec.handoff_blackout,
        blackouts=tuple(
            (CellId(cell), t0, t1) for cell, t0, t1 in spec.blackouts),
    )
    plan.validate()
    return plan

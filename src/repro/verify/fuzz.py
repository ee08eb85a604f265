"""Deterministic fault-injection fuzzing with the oracle attached.

One root seed fully determines a *case*: an environment profile (wireless
loss, Ack/processing delays, wired latency jitter) plus a randomized
schedule of migrations, activity toggles, request bursts and duplicate
uplinks.  ``run_case`` replays a case through the simulator with every
invariant checker subscribed to the live trace; ``shrink_case`` reduces a
failing schedule to a minimal reproducer (delta debugging over the op
list); ``save_repro``/``load_case`` round-trip cases through JSON seed
files so a failure found in a campaign can be pinned as a regression
test (see ``tests/corpus/``).

Everything here is deterministic: cases come from ``random.Random(seed)``,
the simulation itself draws only from the world's named RNG streams, and
every id comes from the world's own engine, so the same seed produces
byte-identical raw trace rows however many runs came before it in the
process (``keep_trace`` returns them as
:func:`repro.verify.canonical.canonical_lines`).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines import DirectDeliveryMss, ItcpLikeMss, mobile_ip_config
from ..config import LatencySpec, WiredFaultSpec, WirelessFaultSpec, WorldConfig
from ..errors import ConfigError
from ..net.latency import ExponentialLatency
from ..types import MhState
from ..world import World
from .canonical import canonical_lines
from .oracle import InvariantChecker, InvariantViolation, Oracle, default_checkers

REPRO_FORMAT = "rdp-fuzz-repro"
REPRO_VERSION = 1

PROTOCOLS = ("rdp", "mobile_ip", "itcp", "direct")

_OPS = ("migrate", "deactivate", "activate", "request", "burst", "resend")

# Extra ops available under the fault profile: MSS crash/restart cycles,
# timed wired partitions, mid-run loss-rate changes, and the last-mile
# lifecycle faults — MH crash/recover, doze/wake, and cell blackouts.
_FAULT_OPS = _OPS + ("crash", "partition", "wired_loss",
                     "mh_crash", "mh_doze", "cell_blackout")

# How long a fuzzed crash keeps its station down / a fuzzed partition
# keeps its link cut.  Short enough for the retry/backoff machinery to
# bridge within the drain budget, long enough to actually hurt.
_CRASH_DOWNTIME = 2.0
_PARTITION_LENGTH = 3.0
_MH_DOWNTIME = 2.0
_DOZE_LENGTH = 2.5
_BLACKOUT_LENGTH = 2.0


@dataclass(frozen=True)
class FuzzOp:
    """One scheduled action against one mobile host."""

    time: float
    op: str
    host: str
    arg: Optional[int] = None

    def as_list(self) -> List[Any]:
        return [self.time, self.op, self.host, self.arg]


@dataclass(frozen=True)
class FuzzProfile:
    """Environment knobs drawn once per case."""

    wireless_loss: float = 0.0
    ack_delay: float = 0.0
    proc_delay: float = 0.0
    wired_jitter: float = 0.0
    # Wired fault rates (nonzero only under the fault profile; the
    # defaults keep old repro files loading unchanged).
    wired_loss: float = 0.0
    wired_dup: float = 0.0
    # Wireless (last-mile) fault rates — same contract: zero defaults so
    # pre-wireless repro files load unchanged, drawn only under the
    # fault profile and strictly after every older draw.
    wireless_fault_loss: float = 0.0
    wireless_burst: float = 0.0
    wireless_congestion: float = 0.0
    wireless_handoff_blackout: float = 0.0


@dataclass(frozen=True)
class FuzzConfig:
    """Shape of generated cases (not drawn from the seed)."""

    n_hosts: int = 3
    n_cells: int = 4
    duration: float = 40.0
    ops_per_host: int = 14
    max_loss: float = 0.25
    retry_interval: float = 4.0
    drain_rounds: int = 10
    drain_window: float = 25.0
    # Wired delivery ordering; "raw" is the an6-style ablation that the
    # causal checker exists to catch.
    ordering: str = "causal"
    # Fault profile: draw wired loss/duplication rates per case, build
    # the world with a FaultPlan + ReliableLink, and add the
    # crash/partition/wired_loss ops to the schedule pool.
    fault_profile: bool = False


@dataclass(frozen=True)
class FuzzCase:
    """A fully determined input: seed + profile + op schedule."""

    seed: int
    profile: FuzzProfile
    config: FuzzConfig
    ops: Tuple[FuzzOp, ...]


@dataclass
class FuzzResult:
    """Outcome of running one case under one protocol."""

    case: FuzzCase
    protocol: str
    violations: List[InvariantViolation]
    trace: List[str] = field(default_factory=list)
    requests_issued: int = 0
    requests_delivered: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def invariants_hit(self) -> List[str]:
        return sorted({v.invariant for v in self.violations})


# -- case generation ---------------------------------------------------------

def generate_case(seed: int, config: Optional[FuzzConfig] = None) -> FuzzCase:
    """Expand one seed into a case (pure function of its arguments)."""
    config = config or FuzzConfig()
    rng = Random(seed)
    profile = FuzzProfile(
        wireless_loss=round(rng.uniform(0.0, config.max_loss), 3),
        ack_delay=rng.choice((0.0, 0.0, 0.01, 0.05)),
        proc_delay=rng.choice((0.0, 0.0, 0.001, 0.01)),
        wired_jitter=rng.choice((0.0, 0.002, 0.008)),
    )
    # Fault-profile draws come strictly after the base draws so default
    # generation stays byte-identical to the pinned corpus.
    if config.fault_profile:
        profile = replace(
            profile,
            wired_loss=round(rng.uniform(0.05, 0.30), 3),
            wired_dup=rng.choice((0.0, 0.05, 0.1)),
        )
        # Wireless draws sit strictly after the wired ones (same reason:
        # they must not perturb the wired-era draw sequence).
        profile = replace(
            profile,
            wireless_fault_loss=round(rng.uniform(0.0, 0.15), 3),
            wireless_burst=rng.choice((0.0, 0.01, 0.03)),
            wireless_congestion=rng.choice((0.0, 0.05, 0.10)),
            wireless_handoff_blackout=rng.choice((0.0, 0.0, 0.2)),
        )
    pool, weights = ((_FAULT_OPS, (30, 15, 15, 30, 5, 5, 4, 4, 3, 4, 4, 3))
                     if config.fault_profile else
                     (_OPS, (30, 15, 15, 30, 5, 5)))
    ops: List[FuzzOp] = []
    latest = max(2.0, config.duration - 8.0)
    for h in range(config.n_hosts):
        host = f"mh{h}"
        for _ in range(config.ops_per_host):
            t = round(rng.uniform(1.0, latest), 3)
            kind = rng.choices(pool, weights=weights)[0]
            arg: Optional[int] = None
            if kind == "migrate":
                arg = rng.randrange(config.n_cells)
            elif kind in ("request", "burst"):
                arg = rng.randrange(1_000)
            elif kind == "resend":
                arg = rng.randrange(16)
            elif kind in ("crash", "partition"):
                arg = rng.randrange(config.n_cells)
            elif kind == "wired_loss":
                arg = rng.randrange(40)
            elif kind in ("mh_crash", "cell_blackout"):
                # mh_crash: the cell the host recovers in (often not the
                # one it crashed in — custody must chase it there).
                arg = rng.randrange(config.n_cells)
            ops.append(FuzzOp(time=t, op=kind, host=host, arg=arg))
    ops.sort(key=lambda o: (o.time, o.host, o.op, -1 if o.arg is None else o.arg))
    return FuzzCase(seed=seed, profile=profile, config=config, ops=tuple(ops))


# -- running -----------------------------------------------------------------

def build_fuzz_world(case: FuzzCase, protocol: str) -> World:
    """The world a case runs in; protocol picks the MSS variant."""
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown fuzz protocol {protocol!r}")
    profile = case.profile
    jitter = profile.wired_jitter
    # Build the fault plan whenever the fault profile is in play, even
    # with zero rates, so partition/wired_loss ops have a plan to drive.
    faults = None
    if (case.config.fault_profile or profile.wired_loss
            or profile.wired_dup):
        faults = WiredFaultSpec(loss=profile.wired_loss,
                                duplication=profile.wired_dup)
    # Fault-profile worlds always carry a wireless plan — even at zero
    # rates — so the cell_blackout op has something to drive, and so the
    # MSS wireless-leg redelivery timer is armed for every faulted run.
    wireless_faults = None
    if case.config.fault_profile or any((
            profile.wireless_fault_loss, profile.wireless_burst,
            profile.wireless_congestion, profile.wireless_handoff_blackout)):
        wireless_faults = WirelessFaultSpec(
            loss=profile.wireless_fault_loss,
            burst_probability=profile.wireless_burst,
            burst_length=1.5,
            burst_loss=0.9,
            congestion_probability=profile.wireless_congestion,
            congestion_delay=0.1,
            handoff_blackout=profile.wireless_handoff_blackout,
        )
    config = WorldConfig(
        seed=case.seed,
        n_cells=case.config.n_cells,
        topology="ring" if case.config.n_cells >= 3 else "line",
        wired_latency=(LatencySpec(kind="uniform", mean=0.010, spread=jitter)
                       if jitter else LatencySpec(mean=0.010)),
        wireless_latency=LatencySpec(mean=0.005),
        wireless_loss=profile.wireless_loss,
        wired_faults=faults,
        wireless_faults=wireless_faults,
        # A lossy radio with the redelivery timer unarmed is the paper's
        # fire-and-forget respMss: one lost wireless Ack strands proxy
        # custody forever, and the no-custody-leak invariant rightly
        # flags it.  Arm the wireless-leg timer whenever the flat legacy
        # loss knob is live (a WirelessFaultSpec already auto-arms it).
        wireless_ack_timeout=3.0 if profile.wireless_loss > 0 else None,
        ack_delay=profile.ack_delay,
        proc_delay=profile.proc_delay,
        ordering=case.config.ordering,
        trace=True,
    )
    if protocol == "rdp":
        world = World(config)
    elif protocol == "mobile_ip":
        world = World(mobile_ip_config(config))
    elif protocol == "itcp":
        world = World(config, mss_class=ItcpLikeMss)
    else:
        world = World(config, mss_class=DirectDeliveryMss)
    world.add_server("echo", service_time=ExponentialLatency(
        scale=0.4, floor=0.05))
    # Client retries recover lost uplinks for protocols that store
    # results; the direct baseline gets none so its losses stay visible.
    retry = None if protocol == "direct" else case.config.retry_interval
    for h in range(case.config.n_hosts):
        world.add_host(f"mh{h}", world.cells[h % case.config.n_cells],
                       retry_interval=retry)
    return world


def _recover_mh_later(world: World, host: str, cell_index: int) -> None:
    """Guarded delayed recovery: only if the host is still crashed (the
    schedule may contain a later mh_crash or the drain got there first)."""
    if world.hosts[host].state is MhState.CRASHED:
        world.recover_mh(host, world.cells[cell_index % len(world.cells)])


def _wake_mh_later(world: World, host: str) -> None:
    if world.hosts[host].state is MhState.DOZING:
        world.wake_mh(host)


def _execute(world: World, op: FuzzOp) -> None:
    """Fire one op, skipping it when the host's state forbids it (the
    guard makes every schedule valid, which keeps shrinking simple)."""
    host = world.hosts[op.host]
    client = world.clients[op.host]
    if op.op == "migrate":
        if host.state is not MhState.LEFT:
            host.migrate_to(world.cells[(op.arg or 0) % len(world.cells)])
    elif op.op == "deactivate":
        if host.state is MhState.ACTIVE:
            host.deactivate()
    elif op.op == "activate":
        if host.state is MhState.INACTIVE:
            host.activate()
    elif op.op == "request":
        if host.state is MhState.ACTIVE:
            client.request("echo", {"n": op.arg})
    elif op.op == "burst":
        if host.state is MhState.ACTIVE:
            for i in range(3):
                client.request("echo", {"n": op.arg, "burst": i})
    elif op.op == "resend":
        if host.state is MhState.ACTIVE and host.registered:
            outstanding = [p for p in client.requests.values() if not p.done]
            if outstanding:
                pending = outstanding[(op.arg or 0) % len(outstanding)]
                host.resend_request(pending.request_id, pending.service,
                                    pending.payload)
    elif op.op == "crash":
        station = world.stations[world.cells[(op.arg or 0) % len(world.cells)]]
        if not station.down:
            station.crash()
            world.sim.schedule(_CRASH_DOWNTIME, station.restart,
                               label="fuzz:restart")
    elif op.op == "partition":
        plan = world.wired.faults
        if plan is not None:
            cells = world.cells
            a = world.stations[cells[(op.arg or 0) % len(cells)]]
            b = world.stations[cells[((op.arg or 0) + 1) % len(cells)]]
            plan.partition(a.node_id, b.node_id, world.sim.now,
                           world.sim.now + _PARTITION_LENGTH)
    elif op.op == "wired_loss":
        plan = world.wired.faults
        if plan is not None:
            plan.set_loss(((op.arg or 0) % 35) / 100.0)
    elif op.op == "mh_crash":
        if host.state not in (MhState.LEFT, MhState.CRASHED):
            host.crash()
            world.sim.schedule(_MH_DOWNTIME, _recover_mh_later, world,
                               op.host, op.arg or 0, label="fuzz:mh-recover")
    elif op.op == "mh_doze":
        if host.state is MhState.ACTIVE:
            host.doze()
            world.sim.schedule(_DOZE_LENGTH, _wake_mh_later, world, op.host,
                               label="fuzz:mh-wake")
    elif op.op == "cell_blackout":
        plan = world.wireless.faults
        if plan is not None:
            cell = world.cells[(op.arg or 0) % len(world.cells)]
            plan.blackout(cell, world.sim.now,
                          world.sim.now + _BLACKOUT_LENGTH)
    else:  # pragma: no cover - generate_case only emits known ops
        raise ConfigError(f"unknown fuzz op {op.op!r}")


def _outstanding(world: World) -> int:
    return sum(len(c.outstanding) for c in world.clients.values())


def _live_proxies(world: World) -> int:
    """Proxies still installed at any station.

    Client-level completion is not quiescence: a proxy whose final
    wireless ack was lost keeps redelivering on its ack timeout until
    the MH's duplicate-suppressing re-ack lands, and only then can the
    del-proxy handshake retire it.  The drain must wait for that tail
    or the oracle reads a healing proxy as leaked.
    """
    return sum(len(station.proxies) for station in world.stations.values())


def _drain(world: World, rounds: int, window: float) -> None:
    """Drive toward quiescence without ever raising: activity toggles
    trigger reactivation greets (and thus proxy re-sends); protocols that
    lose results (direct) simply stop making progress and we move on."""
    for driver in world.drivers:
        driver.stop()
    for host in world.hosts.values():
        if host.state is MhState.INACTIVE:
            host.activate()
        elif host.state is MhState.DOZING:
            host.wake()
        elif host.state is MhState.CRASHED:
            host.recover(host.current_cell)
    world.sim.run(until=world.sim.now + window)
    stale = 0
    previous = (_outstanding(world), _live_proxies(world))
    for _ in range(rounds):
        if previous == (0, 0):
            break
        for host in world.hosts.values():
            if host.state is MhState.ACTIVE:
                host.deactivate()
        world.sim.run(until=world.sim.now + window / 2)
        for host in world.hosts.values():
            if host.state is MhState.INACTIVE:
                host.activate()
            elif host.state is MhState.DOZING:
                host.wake()
            elif host.state is MhState.CRASHED:
                # A scheduled mh_crash can land mid-drain; the guarded
                # recovery callback then finds it already recovered.
                host.recover(host.current_cell)
        world.sim.run(until=world.sim.now + window)
        progress = (_outstanding(world), _live_proxies(world))
        stale = stale + 1 if progress == previous else 0
        previous = progress
        if stale >= 3:
            break
    for client in world.clients.values():
        client.cancel_retries()
    world.sim.run(until=world.sim.now + window)


def run_case(case: FuzzCase, protocol: str = "rdp",
             checkers: Optional[List[InvariantChecker]] = None,
             keep_trace: bool = False) -> FuzzResult:
    """Run one case with the oracle attached; never raises on violations."""
    world = build_fuzz_world(case, protocol)
    oracle = Oracle(checkers if checkers is not None else default_checkers())
    oracle.attach(world.recorder)
    for op in case.ops:
        world.sim.schedule_at(op.time, _execute, world, op, label=f"fuzz:{op.op}")
    world.run(until=case.config.duration)
    _drain(world, case.config.drain_rounds, case.config.drain_window)
    oracle.finish()
    oracle.detach()
    issued = sum(len(c.requests) for c in world.clients.values())
    delivered = sum(len(c.completed) for c in world.clients.values())
    return FuzzResult(
        case=case, protocol=protocol, violations=oracle.violations,
        trace=canonical_lines(world.recorder) if keep_trace else [],
        requests_issued=issued, requests_delivered=delivered,
    )


# -- shrinking ---------------------------------------------------------------

def shrink_case(case: FuzzCase, protocol: str,
                target_invariants: Optional[Sequence[str]] = None,
                max_runs: int = 120) -> FuzzCase:
    """Delta-debug the op schedule down to a minimal reproducer.

    A candidate reproduces when it still violates at least one of
    ``target_invariants`` (default: whatever the full case violates).
    The profile and seed are kept fixed — only ops are removed — so the
    result replays in the exact same environment.
    """
    if target_invariants is None:
        target_invariants = run_case(case, protocol).invariants_hit()
    target = set(target_invariants)
    if not target:
        return case

    runs = 0

    def reproduces(ops: Sequence[FuzzOp]) -> bool:
        nonlocal runs
        runs += 1
        trial = replace(case, ops=tuple(ops))
        result = run_case(trial, protocol)
        return bool(target & set(result.invariants_hit()))

    ops: List[FuzzOp] = list(case.ops)
    granularity = 2
    while len(ops) >= 2 and runs < max_runs:
        chunk = math.ceil(len(ops) / granularity)
        reduced = False
        for start in range(0, len(ops), chunk):
            candidate = ops[:start] + ops[start + chunk:]
            if not candidate:
                continue
            if runs >= max_runs:
                break
            if reproduces(candidate):
                ops = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if granularity >= len(ops):
                break
            granularity = min(len(ops), granularity * 2)
    return replace(case, ops=tuple(ops))


# -- repro files -------------------------------------------------------------

def case_to_dict(case: FuzzCase, protocol: str,
                 violations: Optional[Sequence[InvariantViolation]] = None,
                 ) -> Dict[str, Any]:
    return {
        "format": REPRO_FORMAT,
        "version": REPRO_VERSION,
        "seed": case.seed,
        "protocol": protocol,
        "profile": asdict(case.profile),
        "config": asdict(case.config),
        "ops": [op.as_list() for op in case.ops],
        "violations": [str(v) for v in (violations or [])],
    }


def save_repro(path: Path, case: FuzzCase, protocol: str,
               violations: Optional[Sequence[InvariantViolation]] = None,
               ) -> Path:
    """Write a replayable seed file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(case_to_dict(case, protocol, violations),
                               indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: Path) -> Tuple[FuzzCase, str]:
    """Read a seed file back into a (case, protocol) pair."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != REPRO_FORMAT:
        raise ConfigError(f"{path} is not a {REPRO_FORMAT} file")
    ops = []
    for entry in data["ops"]:
        try:
            time, op, host, arg = entry
            ops.append(FuzzOp(time=float(time), op=str(op), host=str(host),
                              arg=arg))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path}: malformed op {entry!r} — expected "
                "[time, op, host, arg]") from exc
    case = FuzzCase(
        seed=int(data["seed"]),
        profile=FuzzProfile(**data["profile"]),
        config=FuzzConfig(**data["config"]),
        ops=tuple(ops),
    )
    return case, str(data["protocol"])


# -- campaigns ---------------------------------------------------------------

@dataclass
class FuzzFailure:
    """One failing seed, shrunk and (optionally) written to disk."""

    seed: int
    invariants: List[str]
    violations: List[InvariantViolation]
    shrunk: FuzzCase
    repro_path: Optional[Path] = None


@dataclass
class CampaignResult:
    """Aggregate outcome of a multi-seed campaign."""

    protocol: str
    base_seed: int
    seeds: int
    failures: List[FuzzFailure] = field(default_factory=list)
    requests_issued: int = 0
    requests_delivered: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_campaign(seeds: int, base_seed: int = 0, protocol: str = "rdp",
                 config: Optional[FuzzConfig] = None, shrink: bool = True,
                 out_dir: Optional[Path] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 ) -> CampaignResult:
    """Fuzz ``seeds`` consecutive seeds; shrink and save each failure."""
    campaign = CampaignResult(protocol=protocol, base_seed=base_seed,
                              seeds=seeds)
    for i in range(seeds):
        seed = base_seed + i
        case = generate_case(seed, config)
        result = run_case(case, protocol)
        campaign.requests_issued += result.requests_issued
        campaign.requests_delivered += result.requests_delivered
        if result.ok:
            continue
        hit = result.invariants_hit()
        if progress is not None:
            progress(f"seed {seed}: {', '.join(hit)}")
        shrunk = (shrink_case(case, protocol, hit) if shrink else case)
        repro_path = None
        if out_dir is not None:
            repro_path = save_repro(
                Path(out_dir) / f"{protocol}-seed{seed}.json",
                shrunk, protocol, result.violations)
        campaign.failures.append(FuzzFailure(
            seed=seed, invariants=hit, violations=result.violations,
            shrunk=shrunk, repro_path=repro_path))
    return campaign

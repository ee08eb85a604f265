"""Differential tests of the kind-routed oracle.

Two references, both test-local copies of the designs they replaced:

* :class:`FanOutOracle` — one all-kinds sink that hands every row to
  every checker and keeps its own 64-row window.  The routed
  :class:`~repro.verify.Oracle` must report the same violations, in the
  same order, with the same messages, times and trace slices, over the
  pinned corpus and fuzz seeds 0–19 (plain and fault-profile).  A checker
  whose ``KINDS`` misses a kind its ``on_record`` reads makes the two
  diverge: the self-test drops ``mss_crash`` from one checker and expects
  exactly that.  A static audit backs it up for kinds no run can miss:
  each ``KINDS`` must equal the kinds its ``on_record`` compares against.
* :class:`ComponentwiseCausalOrder` — the causal checker comparing whole
  vector clocks (``stamp < delivered``, ``not d <= stamp``).  The O(1)
  rule in :class:`~repro.verify.CausalWiredOrder` must agree with it on
  violations and frontier contents over seeded random send/recv traces
  and over a ``raw``-ordered world with latency jitter (where it fires),
  and the oracle makes no component-wise comparison at all.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from collections import deque
from dataclasses import replace
from pathlib import Path
from random import Random
from typing import Dict, List

import pytest

from repro.net.vectorclock import VectorClock
from repro.sim.tracing import TraceRecorder
from repro.verify import (
    CausalWiredOrder,
    FuzzConfig,
    InvariantChecker,
    NoCustodyLeak,
    Oracle,
    default_checkers,
    fuzz,
    generate_case,
    load_case,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))
SEEDS = range(20)


class FanOutOracle(Oracle):
    """The oracle before kind routing (reference)."""

    def attach(self, recorder):
        self._window = deque(maxlen=self.WINDOW)
        self._last_time = 0.0
        recorder.add_sink(self._fan_out)
        return self

    def _fan_out(self, rec):
        self._window.append(rec)
        self._last_time = rec.time
        for checker in self.checkers:
            checker.on_record(rec)

    def window(self):
        return list(self._window)

    def finish(self, time=None):
        return super().finish(self._last_time if time is None else time)


def _key(violations):
    return [(v.invariant, v.time, v.detail, v.trace_slice) for v in violations]


def _run(case, protocol, *oracles):
    """Run one fuzz case as ``run_case`` does, with *oracles* attached
    (after the world is built) to its recorder; finish each."""
    world = fuzz.build_fuzz_world(case, protocol)
    attached = [make().attach(world.recorder) for make in oracles]
    for op in case.ops:
        world.sim.schedule_at(op.time, fuzz._execute, world, op,
                              label=f"fuzz:{op.op}")
    world.run(until=case.config.duration)
    fuzz._drain(world, case.config.drain_rounds, case.config.drain_window)
    return [oracle.finish() for oracle in attached]


def _routed_and_fan_out(case, protocol):
    routed, reference = _run(case, protocol,
                             lambda: Oracle(default_checkers()),
                             lambda: FanOutOracle(default_checkers()))
    return _key(routed), _key(reference)


def _fuzz_cases():
    for path in CORPUS:
        case, protocol = load_case(path)
        yield pytest.param(case, protocol, id=path.stem)
    for seed in SEEDS:
        yield pytest.param(generate_case(seed), "rdp", id=f"plain-{seed}")
    fault = FuzzConfig(fault_profile=True)
    for seed in SEEDS:
        yield pytest.param(generate_case(seed, fault), "rdp", id=f"fault-{seed}")


@pytest.mark.parametrize("case,protocol", _fuzz_cases())
def test_routed_oracle_equals_full_fan_out(case, protocol):
    routed, reference = _routed_and_fan_out(case, protocol)
    assert routed == reference


def test_fan_out_reference_sees_violations():
    """The differential compares something: the corpus's direct-protocol
    reproducers violate, with trace slices attached."""
    case, protocol = load_case(CORPUS_DIR / "direct-lost-result-seed0.json")
    routed, reference = _routed_and_fan_out(case, protocol)
    assert routed and routed == reference
    assert all(slice_ for *_, slice_ in routed)


def _kinds_compared(checker_cls):
    """Every string ``on_record`` compares a row's ``kind`` against."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(checker_cls.on_record)))
    kinds = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and (
                getattr(node.left, "id", None) == "kind"
                or getattr(node.left, "attr", None) == "kind"):
            kinds.update(const.value for comparator in node.comparators
                         for const in ast.walk(comparator)
                         if isinstance(const, ast.Constant))
    return kinds


@pytest.mark.parametrize("checker_cls",
                         [type(checker) for checker in default_checkers()],
                         ids=lambda cls: cls.__name__)
def test_kinds_declares_exactly_the_kinds_on_record_reads(checker_cls):
    # Static half of the contract: some kinds (SafeProxyDeletion's
    # mss_crash, say) only free state no fuzz schedule ever reads again,
    # so no differential run can notice them missing.
    assert checker_cls.KINDS == _kinds_compared(checker_cls)


def test_a_missing_kind_makes_the_differential_fail(monkeypatch):
    """Self-test: a checker that stops declaring ``mss_crash`` keeps
    custody of a crashed station's proxies, and a fault-profile case
    (which crashes stations) shows the divergence."""
    monkeypatch.setattr(NoCustodyLeak, "KINDS",
                        NoCustodyLeak.KINDS - {"mss_crash"})
    fault = FuzzConfig(fault_profile=True)
    diverged = []
    for seed in SEEDS:
        routed, reference = _routed_and_fan_out(generate_case(seed, fault), "rdp")
        if routed != reference:
            diverged.append(seed)
    assert diverged        # seeds 2 and 17 when this test was written


# -- the O(1) causal rule ------------------------------------------------------


class ComponentwiseCausalOrder(InvariantChecker):
    """:class:`CausalWiredOrder` before the O(1) rule (reference)."""

    name = CausalWiredOrder.name
    KINDS = CausalWiredOrder.KINDS

    def __init__(self):
        super().__init__()
        self._clocks: Dict[str, VectorClock] = {}
        self._stamps: Dict[int, VectorClock] = {}
        self._frontiers: Dict[str, List[VectorClock]] = {}

    def on_record(self, rec):
        if rec.get("net") != "wired":
            return
        if rec.kind == "send":
            clock = self._clocks.setdefault(rec.node, VectorClock())
            clock.tick(rec.node)
            self._stamps[rec.get("msg_id")] = clock.copy()
        elif rec.kind == "recv":
            stamp = self._stamps.pop(rec.get("msg_id"), None)
            if stamp is None:
                return
            frontier = self._frontiers.setdefault(rec.node, [])
            for delivered in frontier:
                if stamp < delivered:
                    self.fail(rec.time,
                              f"{rec.node} received {rec.get('msg')} "
                              f"#{rec.get('msg_id')} from {rec.get('src')} "
                              f"after a message its send causally precedes")
                    break
            self._clocks.setdefault(rec.node, VectorClock()).merge(stamp)
            frontier[:] = [d for d in frontier if not d <= stamp]
            frontier.append(stamp)


def _frontiers(checker):
    """node -> frontier clocks, from either checker's representation."""
    return {node: [entry[2] if isinstance(entry, tuple) else entry
                   for entry in frontier]
            for node, frontier in checker._frontiers.items()}


def _random_trace(seed, nodes=6, sends=300):
    """Wired send/recv rows: every message is delivered at most once, in
    an order that mixes FIFO with arbitrary overtaking; some are lost,
    some ``recv`` rows name a message nobody sent, and local rows mix in."""
    rng = Random(seed)
    names = [f"mss:s{i}" for i in range(nodes)]
    in_flight: List[tuple] = []
    rows = []
    t, msg_id = 0.0, 0
    while msg_id < sends or in_flight:
        t += 0.01
        if msg_id < sends and (not in_flight or rng.random() < 0.5):
            msg_id += 1
            src, dst = rng.sample(names, 2)
            net = "wired" if rng.random() < 0.95 else "local"
            rows.append((t, "send", src, {"net": net, "msg_id": msg_id,
                                          "msg": "m", "dst": dst}))
            in_flight.append((msg_id, src, dst, net))
            continue
        index = 0 if rng.random() < 0.6 else rng.randrange(len(in_flight))
        mid, src, dst, net = in_flight.pop(index)
        if rng.random() < 0.05:
            continue                                  # lost
        if rng.random() < 0.02:
            mid = -mid                                # an unknown message
        rows.append((t, "recv", dst, {"net": net, "msg_id": mid,
                                      "msg": "m", "src": src}))
    return rows


@pytest.mark.parametrize("seed", range(12))
def test_constant_time_causal_rule_equals_componentwise(seed):
    fast, slow = CausalWiredOrder(), ComponentwiseCausalOrder()
    oracles = [Oracle([fast]), Oracle([slow])]
    recorder = TraceRecorder()
    for oracle in oracles:
        oracle.attach(recorder)
    for time, kind, node, fields in _random_trace(seed):
        recorder.record(time, kind, node, **fields)
        assert _frontiers(fast) == _frontiers(slow)
    routed, reference = (_key(oracle.finish()) for oracle in oracles)
    assert routed == reference
    assert routed, "the random schedule should overtake at least once"


def _raw_jittered_case():
    # AN6's setting: raw wired delivery under latency jitter lets relayed
    # messages overtake their causal predecessors.
    case = generate_case(2, FuzzConfig(ordering="raw"))
    return replace(case, profile=replace(case.profile, wired_jitter=0.008))


def test_constant_time_causal_rule_fires_on_raw_ordering_like_the_reference():
    fast, slow = CausalWiredOrder(), ComponentwiseCausalOrder()
    routed, reference = _run(_raw_jittered_case(), "rdp",
                             lambda: Oracle([fast]), lambda: Oracle([slow]))
    assert routed and _key(routed) == _key(reference)
    assert _frontiers(fast) == _frontiers(slow)


def test_oracle_makes_no_componentwise_clock_comparison(monkeypatch):
    """Count ``VectorClock`` comparisons by the module that asked for
    them: none from ``verify/oracle.py``, while the reference, run over
    the same pinned world, makes plenty."""
    calls: Dict[str, int] = {}
    here = VectorClock.dominates.__code__.co_filename

    def counted(name):
        real = getattr(VectorClock, name)

        def wrapper(self, other):
            frame = sys._getframe(1)
            while frame.f_code.co_filename in (here, __file__) and \
                    frame.f_code.co_name in ("__le__", "__lt__", "wrapper"):
                frame = frame.f_back
            caller = Path(frame.f_code.co_filename).name
            calls[caller] = calls.get(caller, 0) + 1
            return real(self, other)
        return wrapper

    for name in ("dominates", "__le__", "__lt__", "concurrent_with"):
        monkeypatch.setattr(VectorClock, name, counted(name))
    routed, reference = _run(_raw_jittered_case(), "rdp",
                             lambda: Oracle([CausalWiredOrder()]),
                             lambda: Oracle([ComponentwiseCausalOrder()]))
    assert routed and _key(routed) == _key(reference)
    assert calls.get("oracle.py", 0) == 0
    assert calls.get(Path(__file__).name, 0) > 0

"""The channel model both engines run: recipes and per-frame verdicts.

The sim fabrics and the live UDP transports consult the same plan
objects through the same calls (``net/faults.py``), so what is pinned
here is the plans themselves:

* **Recipe** — :func:`repro.net.faults.wired_plan` /
  :func:`~repro.net.faults.wireless_plan` draw from the ``faults.wired``
  / ``faults.wireless`` substreams of the root seed, and build a plan
  for any spec that is present, all-zero included.
* **Verdict order** — wired: cut, loss, duplication (plus the
  duplicate's delay draw), delay; radio: blackout, hand-off blackout,
  burst, fault loss, then the fabric's flat-loss draw.  A 500-frame
  sequence per plan is pinned as literal values captured from the
  commit before the verdicts moved into the plans, so a reordered,
  added or dropped draw fails here.
"""

import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.config import (  # noqa: E402
    WiredFaultSpec,
    WirelessFaultSpec,
    WorldConfig,
)
from repro.net.faults import wired_plan, wireless_plan  # noqa: E402
from repro.net.message import Message  # noqa: E402
from repro.net.wired import WiredNetwork  # noqa: E402
from repro.net.wireless import WirelessFabric  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.sim.rng import RngStreams  # noqa: E402
from repro.types import CellId, NodeId  # noqa: E402
from repro.world import World  # noqa: E402

SEED = 20260808

WIRED_SPEC = WiredFaultSpec(loss=0.2, duplication=0.1,
                            spike_probability=0.15, spike=0.05,
                            reorder=0.1, reorder_spread=0.02)

WIRELESS_SPEC = WirelessFaultSpec(loss=0.1, burst_probability=0.05,
                                  burst_length=0.5, burst_loss=0.9,
                                  congestion_probability=0.1,
                                  congestion_delay=0.03,
                                  handoff_blackout=0.2)

# One character per frame (frame i at t = i * 0.01), SEED and the specs
# above.  Wired: L lost, D delivered twice, . delivered once.
WIRED_FATES = (
    "LL....D.....DL.LL..D.L...DL.....D..L.L..LL.......L....D......L..L."
    ".....L....D.......D..L..........D...L.......LL.....LL.D.L.L.LL..LL"
    "..........D.........D....L.....LL..L...L..L.......D...L.....DL...."
    ".DD....D..L...L.D...D....LDLL......LL.D.L.....LD.L....LL..L.....LL"
    "...............D...D...D...D..L..D....L..LD......D.......D.L......"
    "L.......L.LL..LL..L......................L..........L.D...D....L.D"
    ".LL.D.L...........LL.L............L.L....L.........L....DLL.L..L.."
    "..L..L.....L.....L.L..D..D........D.L.")
WIRED_DELAYS_SHA256 = (
    "321962f753c0172f2c15d042f6e8f6d36108143ef86c0c0b3ae13cd614dec78b")
WIRED_FIRST_DELAYS = [(5, 0.05), (9, 0.009819880995090213),
                      (18, 0.0548228700922402), (20, 0.05)]
WIRED_NEXT_DRAW = 0.5093476082112074

# Radio, host handing off at frame 100: B burst, F fault loss,
# H hand-off blackout, . delivered.
WIRELESS_FATES = (
    ".....F....BBBBBBBBBBBBBBB.BBBBB.BBBBBBB.BBBBBB.BBBBBBBBBBBBB......"
    ".BBBBBBB.BBB.BBBBB..BBBBBBBBBBBBBBHHHHHHHHHHHHHHHHHHHH.....BBBBBBB"
    "B.BBBBBBBBBFBBBBB..BBBBBBBBBBBBBBBBBBBBBBBF..F.........F....F....."
    "..BBBBBBBBBBBB.BBBBBBBB.BBBBBBBBBBB..BBBBBBBBBB.BBBBF..........BBB"
    "BBBBBFBBBBBBBBBBB.BBBBBBBBBBBBBBBBB.BBBBBBBBBBB......F...F...BBBB."
    "BBBBBBBBBBBBBFBBBBBBB.BBBBBBBBBBBBBBBBBBBBBB.............F.....BBB"
    "BBBBBBBBBBBBBBBBBBBBB.BBBBBBB.FBBBBBBBBBBBBBBBB....BB.BBBBBBBBBBBB"
    "BBBBB.BBBBB..B.FBBB.BBBBBBBBBBBBBBB...")
WIRELESS_NEXT_DRAW = 0.019621375032436106
WIRELESS_CODES = {None: ".", "burst": "B", "fault_loss": "F",
                  "handoff_blackout": "H", "blackout": "K"}


class _Node:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def on_wired_message(self, message):
        self.received.append(message)


# -- recipe -------------------------------------------------------------------


def test_an_all_zero_spec_still_builds_a_plan():
    """No spec, no plan; a spec that is present yields one (it is what
    arms the sim's reliable link and what the fuzzer's ops mutate), and
    an all-zero one draws nothing."""
    streams = RngStreams(SEED)
    assert wired_plan(None, streams) is None
    assert wireless_plan(None, streams) is None
    wired = wired_plan(WiredFaultSpec(), streams)
    radio = wireless_plan(WirelessFaultSpec(), streams)
    before = wired.rng.getstate(), radio.rng.getstate()
    for frame in range(50):
        assert wired.verdict(NodeId("a"), NodeId("b"),
                             frame * 0.1) == (None, None, 0.0)
        assert radio.verdict(CellId("c"), NodeId("h"), frame * 0.1) is None
        assert radio.extra_delay() == 0.0
    assert (wired.rng.getstate(), radio.rng.getstate()) == before


def test_wired_plan_matches_world_recipe():
    """A world's wired plan is the recipe's, on ``faults.wired``."""
    world = World(WorldConfig(seed=SEED, n_cells=2,
                              wired_faults=WIRED_SPEC))
    streams = RngStreams(SEED)
    built = wired_plan(WIRED_SPEC, streams)
    assert built.rng is streams.stream("faults.wired")
    assert world.wired.faults.describe() == built.describe()
    assert world.wired.faults.rng.getstate() == built.rng.getstate()


def test_wireless_plan_matches_world_recipe():
    world = World(WorldConfig(seed=SEED, n_cells=2,
                              wireless_faults=WIRELESS_SPEC))
    streams = RngStreams(SEED)
    built = wireless_plan(WIRELESS_SPEC, streams)
    assert built.rng is streams.stream("faults.wireless")
    params = ("loss", "burst_probability", "burst_length", "burst_loss",
              "congestion_probability", "congestion_delay",
              "handoff_blackout", "_blackouts")
    assert ([getattr(world.wireless.faults, name) for name in params]
            == [getattr(built, name) for name in params])
    assert world.wireless.faults.rng.getstate() == built.rng.getstate()


# -- wired verdict (the sim's ``_transmit`` and the live transport's inbound
# -- shaping both consult it) -------------------------------------------------


def test_inbound_shaper_consumes_draws_in_sim_transmit_order():
    plan = wired_plan(WIRED_SPEC, RngStreams(SEED))
    src, dst = NodeId("mss:s0"), NodeId("mss:s1")
    fates, delays = [], []
    for frame in range(500):
        reason, duplicate, extra = plan.verdict(src, dst, frame * 0.01)
        fates.append("L" if reason == "loss"
                     else "D" if duplicate is not None else ".")
        delays.append((reason, extra))
    assert "".join(fates) == WIRED_FATES
    assert [(i, d) for i, (_, d) in enumerate(delays)
            if d > 0][:4] == WIRED_FIRST_DELAYS
    assert hashlib.sha256(
        repr(delays).encode()).hexdigest() == WIRED_DELAYS_SHA256
    # Nothing extra and nothing missing was drawn along the way.
    assert plan.rng.random() == WIRED_NEXT_DRAW

    # The sim fabric spends exactly those draws, one verdict per frame.
    sim = Simulator()
    twin = wired_plan(WIRED_SPEC, RngStreams(SEED))
    net = WiredNetwork(sim, faults=twin, reliable=False, ordering="raw")
    nodes = [_Node(src), _Node(dst)]
    for node in nodes:
        net.attach(node)
    for frame in range(500):
        sim.schedule(frame * 0.01, net.send, src, dst, Message())
    sim.run()
    assert net.monitor.drops("loss") == WIRED_FATES.count("L")
    assert net.dup_injected == WIRED_FATES.count("D")
    assert len(nodes[1].received) == 500 - WIRED_FATES.count("L") \
        + WIRED_FATES.count("D")
    assert twin.rng.random() == WIRED_NEXT_DRAW


def test_inbound_shaper_partition_short_circuits_without_draws():
    spec = WiredFaultSpec(loss=0.5, partitions=(
        ("mss:s0", "mss:s1", 1.0, 2.0),))
    plan = wired_plan(spec, RngStreams(SEED))
    state_before = plan.rng.getstate()
    assert plan.verdict(NodeId("mss:s0"), NodeId("mss:s1"),
                        1.5) == ("partition", None, 0.0)
    assert plan.rng.getstate() == state_before, (
        "a partition cut must not consume loss/dup draws — the "
        "short-circuit order is part of the determinism contract")


# -- radio verdict (both engines' radios shape frames through it) -------------


def test_wireless_verdict_draw_sequence_is_pinned():
    plan = wireless_plan(WIRELESS_SPEC, RngStreams(SEED))
    cell, host = CellId("cell0"), NodeId("mh:h0")
    fates = []
    for step in range(500):
        now = step * 0.01
        if step == 100:
            plan.note_handoff(host, now)
        fates.append(WIRELESS_CODES[plan.verdict(cell, host, now)])
    assert "".join(fates) == WIRELESS_FATES
    assert plan.rng.random() == WIRELESS_NEXT_DRAW


def test_wireless_shaper_handoff_blackout_gates_before_draws():
    plan = wireless_plan(WIRELESS_SPEC, RngStreams(SEED))
    cell, host = CellId("cell0"), NodeId("mh:h0")
    plan.note_handoff(host, 1.0)
    state_before = plan.rng.getstate()
    assert plan.verdict(cell, host, 1.1) == "handoff_blackout"
    assert plan.rng.getstate() == state_before
    # Outside the window the plan draws again.
    assert plan.verdict(cell, host, 1.1 + WIRELESS_SPEC.handoff_blackout) \
        in (None, "burst", "fault_loss")
    assert plan.rng.getstate() != state_before


def test_wireless_shaper_flat_loss_matches_seeded_stream():
    """The plan-less loss decision of either engine's radio: one
    ``rng.random() < p`` per frame from the stream it was given."""
    fabric = WirelessFabric(Simulator(), loss_probability=0.3,
                            rng=RngStreams(SEED).stream("live.wireless"))
    twin = RngStreams(SEED).stream("live.wireless")
    cell, host = CellId("cell0"), NodeId("mh:h0")
    for _ in range(500):
        assert fabric._lost(cell, host, Message()) == (twin.random() < 0.3)
    assert fabric.monitor.drops("loss") == fabric.monitor.drops() > 0

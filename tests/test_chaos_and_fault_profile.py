"""Chaos scenarios and the fuzzer's fault profile.

Two standing guarantees ride on these tests:

* **The transport is what makes RDP survive a faulty fabric** — the
  pinned chaos scenario runs clean with the reliable link and visibly
  breaks without it (both directions asserted, so neither the faults nor
  the recovery can silently rot).
* **The fault-profile fuzzer still has teeth** — a deliberately broken
  retransmit timer is caught and shrunk (mutation test).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import chaos
from repro.experiments.cli import build_parser, main
from repro.net.reliable import ReliableLink
from repro.verify.fuzz import (
    FuzzConfig,
    generate_case,
    load_case,
    run_campaign,
    run_case,
)

SMOKE = chaos.PRESETS["smoke"]
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def smoke_result():
    return chaos.run_chaos(SMOKE, reliable=True)


def test_chaos_smoke_clean_with_reliable_transport(smoke_result):
    det = smoke_result["determinism"]
    assert det["violations"] == 0
    assert det["requests"] > 0
    assert det["delivered"] == det["requests"]
    # The scenario genuinely exercised every fault flavour.
    wired = det["wired"]
    assert wired["drops_loss"] > 0
    assert wired["drops_partition"] > 0
    assert wired["dup_injected"] > 0
    assert wired["transport"]["retransmissions"] > 0
    assert det["crashes"] == 1 and det["restarts"] == 1


def test_chaos_smoke_deterministic(smoke_result):
    again = chaos.run_chaos(SMOKE, reliable=True)
    a, b = dict(smoke_result), dict(again)
    a.pop("timing"), b.pop("timing")
    assert a == b


def test_chaos_smoke_breaks_without_transport():
    """The ablation direction: same faults, raw fabric -> the oracle
    must catch real protocol violations (otherwise the fault injection
    is not actually testing anything)."""
    result = chaos.run_chaos(SMOKE, reliable=False)
    det = result["determinism"]
    assert det["violations"] > 0
    assert det["delivered"] < det["requests"]
    assert det["wired"]["transport"] is None


def test_chaos_cli_writes_report(tmp_path, capsys):
    out = tmp_path / "CHAOS_report.json"
    rc = main(["chaos", "--preset", "smoke", "--out", str(out), "--quiet"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 2
    assert doc["scenario"]["preset"] == "smoke"
    assert doc["determinism"]["violations"] == 0


def test_bare_chaos_runs_the_committed_smoke_preset():
    # A bare `chaos` from the repo root writes CHAOS_report.json, so it
    # must be the smoke document that file pins, not a soak over it.
    args = build_parser().parse_args(["chaos"])
    assert args.preset == "smoke"
    assert args.out == pathlib.Path("CHAOS_report.json")


def test_chaos_smoke_equals_the_committed_report(smoke_result):
    """CHAOS_report.json is the smoke preset's document: any change to
    what the transport, the faults or the oracle do shows as a diff."""
    committed = json.loads((ROOT / "CHAOS_report.json").read_text())
    fresh = dict(smoke_result)
    committed.pop("timing"), fresh.pop("timing")
    assert (json.dumps(fresh, indent=2, sort_keys=True)
            == json.dumps(committed, indent=2, sort_keys=True))


def test_chaos_transport_ablation_block(smoke_result):
    """The 5–20% wired-loss sweep: one row per loss rate, every request
    delivered at 5% and 10%, and p99 delivery latency never falling as
    loss grows (the sweep must get harder, or it measures nothing)."""
    ablation = smoke_result["determinism"]["transport_ablation"]
    assert ablation["losses"] == [0.05, 0.10, 0.20]
    rows = ablation["rows"]
    assert [row["loss"] for row in rows] == ablation["losses"]
    for row in rows[:2]:
        assert row["delivered"] == row["requests"] > 0
    p99 = [row["latency_p99"] for row in rows]
    assert p99 == sorted(p99)


def test_chaos_wireless_ablation_block(smoke_result):
    """The last-mile acceptance criterion: with the full robustness
    stack (durable log, custody, redelivery) every issued request is
    delivered despite three mid-flight MH crashes and cell blackouts;
    amnesiac recovery with custody/redelivery disabled shows measurable
    loss."""
    ablation = smoke_result["determinism"]["wireless_ablation"]
    arms = {arm["arm"]: arm for arm in ablation["arms"]}
    assert set(arms) == {"recovery", "no_recovery"}
    recovery, bare = arms["recovery"], arms["no_recovery"]
    assert recovery["requests"] == bare["requests"] > 0
    assert recovery["delivery_ratio"] == 1.0
    assert bare["delivery_ratio"] < 1.0
    # The machinery must actually have run, not merely been configured.
    assert recovery["recoveries"] == len(ablation["crash_schedule"])
    assert recovery["redeliveries"] > 0
    assert recovery["custody_expired"] == 0
    # And the bare arm must show WHY it lost: expired custody.
    assert bare["custody_expired"] > 0 and bare["redeliveries"] == 0


# -- fuzzer fault profile ----------------------------------------------------

def test_fault_profile_extends_op_pool():
    plain = generate_case(11, FuzzConfig())
    faulty = generate_case(11, FuzzConfig(fault_profile=True))
    assert not any(op.op in ("crash", "partition", "wired_loss")
                   for op in plain.ops)
    assert plain.profile.wired_loss == 0.0 and plain.profile.wired_dup == 0.0
    assert faulty.profile.wired_loss > 0.0
    ops = {op.op for seed in range(20)
           for op in generate_case(seed, FuzzConfig(fault_profile=True)).ops}
    assert {"crash", "partition", "wired_loss"} <= ops


def test_fault_profile_mini_campaign_clean():
    campaign = run_campaign(seeds=25, base_seed=0,
                            config=FuzzConfig(fault_profile=True),
                            shrink=False)
    assert campaign.ok, [f.invariants for f in campaign.failures]
    assert campaign.requests_delivered == campaign.requests_issued > 0


def test_mutation_broken_retransmit_timer_caught_and_shrunk(
        tmp_path, monkeypatch):
    """Disable the transport's retransmit path: under wired loss the
    causally-ordered fabric wedges and the oracle must notice.  The
    failure is shrunk and the saved repro replays."""
    monkeypatch.setattr(ReliableLink, "_expire",
                        lambda self, pending: None)
    campaign = run_campaign(seeds=8, base_seed=0,
                            config=FuzzConfig(fault_profile=True),
                            shrink=True, out_dir=tmp_path)
    assert not campaign.ok
    failure = campaign.failures[0]
    assert failure.invariants  # named, not just "something broke"
    assert failure.repro_path is not None and failure.repro_path.exists()
    original = generate_case(failure.seed, FuzzConfig(fault_profile=True))
    assert len(failure.shrunk.ops) <= len(original.ops)
    case, protocol = load_case(failure.repro_path)
    replay = run_case(case, protocol)
    assert replay.invariants_hit() == failure.invariants


def test_mutation_recovery_without_dedup_caught_and_shrunk(
        tmp_path, monkeypatch):
    """Strip the dedup restore out of the MH recovery handshake: a
    result the custody chase redelivers after an mh_crash is accepted
    twice, the exactly-once invariant fires, and ddmin shrinks the
    failing schedule to a replayable repro."""
    from repro.hosts.mobile_host import MobileHost

    original = MobileHost.recover

    def forgetful(self, cell, amnesia=False):
        original(self, cell, amnesia=amnesia)
        self._delivered_requests = set()   # forget the log's dedup set

    monkeypatch.setattr(MobileHost, "recover", forgetful)
    campaign = run_campaign(seeds=12, base_seed=0,
                            config=FuzzConfig(fault_profile=True),
                            shrink=True, out_dir=tmp_path)
    assert not campaign.ok
    failure = next(f for f in campaign.failures
                   if "exactly_once_delivery" in f.invariants)
    original_case = generate_case(failure.seed, FuzzConfig(fault_profile=True))
    assert len(failure.shrunk.ops) <= len(original_case.ops)
    case, protocol = load_case(failure.repro_path)
    assert run_case(case, protocol).invariants_hit() == failure.invariants


def test_mutation_healthy_code_passes_saved_shape():
    """Control arm for the mutation test: the same seeds are clean when
    the retransmit timer works."""
    campaign = run_campaign(seeds=8, base_seed=0,
                            config=FuzzConfig(fault_profile=True),
                            shrink=False)
    assert campaign.ok

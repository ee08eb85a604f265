"""The fault sections of the report and the fuzzer's fault profile.

Two standing guarantees ride on these tests:

* **The transport is what makes RDP survive a faulty fabric** — the
  fault soak (AN14) runs clean with the reliable link and visibly breaks
  without it, and the transport (AN15) and last-mile (AN16) ablations
  state their claims as checks; every check holds and each section
  equals its ``REPORT.md`` section, so any change to what the
  transport, the faults or the oracle do shows as a diff.
* **The fault-profile fuzzer still has teeth** — a deliberately broken
  retransmit timer is caught and shrunk (mutation test).
"""

from __future__ import annotations

import pathlib
from typing import Dict, List

from repro.experiments.cli import _SECTION_RE, write_report
from repro.net.reliable import ReliableLink
from repro.verify.fuzz import (
    FuzzConfig,
    generate_case,
    load_case,
    run_campaign,
    run_case,
)

REPORT = pathlib.Path(__file__).resolve().parents[1] / "REPORT.md"


def _sections(text: str) -> Dict[str, List[str]]:
    """Each ``## <id>`` section's lines, its ``_regenerated in`` line left out."""
    marks = list(_SECTION_RE.finditer(text))
    ends = [mark.start() for mark in marks[1:]] + [len(text)]
    return {mark.group(1): [line for line in text[mark.start():end].splitlines()
                            if not line.startswith("_regenerated in")]
            for mark, end in zip(marks, ends)}


def test_fault_sections_hold_and_equal_the_report(tmp_path):
    out = tmp_path / "report.md"
    assert write_report(["an14", "an15", "an16"], out) == []
    fresh, committed = _sections(out.read_text()), _sections(REPORT.read_text())
    assert list(fresh) == ["an14", "an15", "an16"]
    for exp_id, lines in fresh.items():
        assert lines == committed[exp_id], exp_id


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

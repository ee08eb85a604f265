"""The deterministic fuzz harness: schedule generation, replayable
runs, byte-identical determinism, shrinking, repro files and the CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.experiments.cli import main
from repro.verify import (
    FuzzCase,
    FuzzConfig,
    FuzzOp,
    generate_case,
    load_case,
    run_campaign,
    run_case,
    save_repro,
    shrink_case,
)
from repro.verify.fuzz import PROTOCOLS


class TestGeneration:
    def test_same_seed_same_case(self):
        assert generate_case(42) == generate_case(42)

    def test_different_seeds_differ(self):
        assert generate_case(1) != generate_case(2)

    def test_schedule_shape(self):
        config = FuzzConfig(n_hosts=2, ops_per_host=10)
        case = generate_case(7, config)
        assert len(case.ops) == 20
        assert all(op.host in ("mh0", "mh1") for op in case.ops)
        assert all(1.0 <= op.time <= config.duration for op in case.ops)
        times = [op.time for op in case.ops]
        assert times == sorted(times)
        assert 0.0 <= case.profile.wireless_loss <= config.max_loss


class TestDeterminism:
    def test_same_seed_byte_identical_canonical_traces(self):
        # The determinism contract of the whole harness: two in-process
        # runs of one seed produce the same trace stream.
        case = generate_case(11)
        first = run_case(case, "rdp", keep_trace=True)
        second = run_case(case, "rdp", keep_trace=True)
        assert first.trace, "expected a non-empty trace"
        assert first.trace == second.trace
        assert first.invariants_hit() == second.invariants_hit()

    @pytest.mark.parametrize("protocol,fault_profile", [
        ("rdp", False), ("direct", False), ("rdp", True)])
    def test_same_case_twice_gives_equal_raw_traces(self, protocol,
                                                    fault_profile):
        # Raw rows, ids and free-text detail included: every id is drawn
        # from the world's engine, not from what ran before in the process.
        case = generate_case(11, FuzzConfig(fault_profile=fault_profile))
        first = run_case(case, protocol, keep_trace=True).trace
        second = run_case(case, protocol, keep_trace=True).trace
        assert any("msg_id=1 " in line for line in first)
        assert any("detail=" in line for line in first)
        assert first == second

    def test_traces_do_not_depend_on_the_hash_seed(self):
        # str hashes change with PYTHONHASHSEED, so set order and hash()
        # keys do too: a trace that follows either differs across seeds.
        # No in-process test can see that, so four interpreters run the
        # three figures and sixteen fuzz cases and compare digests.
        src = str(Path(repro.__file__).resolve().parents[1])
        runs = [subprocess.Popen(
            [sys.executable, "-c", _TRACE_DIGEST], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
            for seed in ("0", "1", "3", "5")]
        digests = []
        for run in runs:
            out, err = run.communicate(timeout=120)
            assert run.returncode == 0, err
            digests.append(out.strip())
        assert len(set(digests)) == 1, digests


#: Prints one digest over the canonical traces of FIG1, FIG3, FIG4 and
#: fuzz cases 0-7, plain and with the fault profile.
_TRACE_DIGEST = """
import hashlib
from repro.experiments.scenarios import run_fig1, run_fig3, run_fig4
from repro.verify import FuzzConfig, generate_case, run_case
from repro.verify.canonical import canonical_lines
traces = [canonical_lines(run().world.recorder)
          for run in (run_fig1, run_fig3, run_fig4)]
traces += [run_case(generate_case(seed, FuzzConfig(fault_profile=faults)),
                    "rdp", keep_trace=True).trace
           for faults in (False, True) for seed in range(8)]
assert all(traces)
print(hashlib.sha256("\\n".join(map("\\n".join, traces)).encode()).hexdigest())
"""


class TestRdpHoldsInvariants:
    def test_small_campaign_is_clean(self):
        campaign = run_campaign(seeds=15, base_seed=0, protocol="rdp",
                                shrink=False)
        assert campaign.ok, [f.invariants for f in campaign.failures]
        assert campaign.requests_delivered == campaign.requests_issued > 0


class TestDirectBaselineCaughtByOracle:
    def test_direct_loses_results_and_shrinks(self, tmp_path):
        campaign = run_campaign(seeds=5, base_seed=0, protocol="direct",
                                shrink=True, out_dir=tmp_path)
        assert not campaign.ok
        failure = campaign.failures[0]
        assert "no_lost_result" in failure.invariants
        # The shrunk schedule is no bigger and still reproduces.
        original = generate_case(failure.seed)
        assert len(failure.shrunk.ops) <= len(original.ops)
        replay = run_case(failure.shrunk, "direct")
        assert "no_lost_result" in replay.invariants_hit()
        # ... and was written as a replayable seed file.
        assert failure.repro_path is not None and failure.repro_path.exists()
        loaded_case, protocol = load_case(failure.repro_path)
        assert protocol == "direct"
        assert loaded_case == failure.shrunk


class TestShrinking:
    def test_shrink_keeps_seed_and_profile(self):
        case = generate_case(0)
        result = run_case(case, "direct")
        assert not result.ok
        shrunk = shrink_case(case, "direct", result.invariants_hit())
        assert shrunk.seed == case.seed
        assert shrunk.profile == case.profile
        assert 1 <= len(shrunk.ops) <= len(case.ops)

    def test_shrink_of_passing_case_is_identity(self):
        case = generate_case(0)
        assert shrink_case(case, "rdp") == case


class TestReproFiles:
    def test_round_trip(self, tmp_path):
        case = generate_case(3)
        path = save_repro(tmp_path / "case.json", case, "rdp")
        loaded, protocol = load_case(path)
        assert (loaded, protocol) == (case, "rdp")

    def test_rejects_foreign_files(self, tmp_path):
        from repro.errors import ConfigError

        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigError):
            load_case(path)

    def test_handcrafted_case_runs(self):
        # Ops built by hand (as after editing a repro file) replay fine;
        # state guards make any schedule valid.
        case = FuzzCase(
            seed=1, profile=generate_case(1).profile, config=FuzzConfig(),
            ops=(
                FuzzOp(time=2.0, op="request", host="mh0", arg=1),
                FuzzOp(time=3.0, op="activate", host="mh0"),   # no-op: active
                FuzzOp(time=4.0, op="migrate", host="mh0", arg=2),
                FuzzOp(time=5.0, op="resend", host="mh0", arg=0),
            ))
        result = run_case(case, "rdp")
        assert result.ok


class TestCli:
    def test_fuzz_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "0 failing seeds" in out

    def test_fuzz_direct_fails_and_writes_repros(self, tmp_path, capsys):
        code = main(["fuzz", "--seeds", "2", "--protocol", "direct",
                     "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "no_lost_result" in out
        written = list(tmp_path.glob("direct-seed*.json"))
        assert written

    def test_fuzz_replay_reports_violations(self, tmp_path, capsys):
        case = generate_case(0)
        path = save_repro(tmp_path / "direct.json", case, "direct")
        assert main(["fuzz", "--replay", str(path)]) == 1
        assert "no_lost_result" in capsys.readouterr().out

    def test_fuzz_replay_clean_file_exits_zero(self, tmp_path, capsys):
        case = generate_case(0)
        path = save_repro(tmp_path / "rdp.json", case, "rdp")
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_protocol_choices_cover_baselines(self):
        assert set(PROTOCOLS) == {"rdp", "mobile_ip", "itcp", "direct"}


class TestOtherProtocolsUnderOracle:
    @pytest.mark.parametrize("protocol", ["mobile_ip", "itcp"])
    def test_reliability_equalized_baselines_stay_clean(self, protocol):
        # Both keep RDP's store-and-retransmit reliability, so the oracle
        # must not flag them (they differ in placement/state cost only).
        for seed in range(3):
            result = run_case(generate_case(seed), protocol)
            assert result.ok, (protocol, seed, result.invariants_hit())

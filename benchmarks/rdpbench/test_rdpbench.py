"""Tests of the benchmark itself (not tier-1).

    python -m pytest benchmarks/rdpbench -q

Every workload runs end to end at 1/50 size; names are checked against
``BENCHMARK.json`` in both directions.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from . import ROOT, cli, metrics, micro, runner, trace, workloads

SMALL = 0.02
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the manifest -------------------------------------------------------------


def test_benchmark_json_is_the_generated_manifest():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.manifest()


def test_manifest_is_inside_the_contract_limits():
    doc = metrics.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"]
             + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert set(metrics.WORKLOADS) == set(workloads.WORKLOADS)
    assert len(json.dumps(doc)) < 64 * 1024


# -- every workload, end to end, at 1/50 size ---------------------------------


@pytest.fixture(scope="module")
def small_instances():
    return {name: workloads.run_instance(name, workloads.WORKING_SEED, SMALL)
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_and_reports_every_metric(small_instances, name):
    instance = small_instances[name]
    assert instance["problems"] == []
    assert instance["completed"] == instance["attempted"] > 0
    values = workloads.end_to_end(instance)
    gated = {m[0] for m in metrics.END_TO_END}
    assert set(values) == gated | {"failed_share"}
    assert all(values[m] > 0 for m in gated)
    assert values["failed_share"] == 0.0
    assert runner.problems_of([instance]) == []


def test_sim_repeats_are_identical_and_seed_reaches_the_inputs(
        small_instances):
    first = small_instances["sim-lossy"]
    again = workloads.run_instance("sim-lossy", workloads.WORKING_SEED, SMALL)
    other = workloads.run_instance("sim-lossy", workloads.HELD_OUT_SEED,
                                   SMALL)
    assert again["sim"] == first["sim"]
    assert other["sim"]["digest"] != first["sim"]["digest"]
    assert runner.problems_of([first, again, other]) == []
    again["sim"]["digest"] = "tampered"
    assert "differ between repeats" in runner.problems_of([first, again])[0]


def test_failed_requests_and_violations_are_reported(small_instances):
    broken = dict(small_instances["sim-observed"],
                  completed=small_instances["sim-observed"]["attempted"] - 1,
                  problems=["oracle: 1 violations (no_custody_leak x1)"])
    found = runner.problems_of([broken])
    assert any("no_custody_leak" in p for p in found)
    assert any("requests completed" in p for p in found)
    assert workloads.end_to_end(broken)["failed_share"] > 0


def test_full_size_sim_city_is_held_to_the_macro_pin():
    pinned = json.loads(
        (ROOT / "BENCH_macro.json").read_text())["determinism"]
    instance = {"workload": "sim-city", "scale": 1.0,
                "seed": workloads.WORKING_SEED, "sim": dict(pinned)}
    assert cli.pinned_macro_problems(instance) == []
    instance["sim"]["events"] += 1
    assert "differ" in cli.pinned_macro_problems(instance)[0]
    assert cli.pinned_macro_problems(dict(instance, scale=0.25)) == []


def test_observed_workload_keeps_every_trace_row(small_instances):
    counters = small_instances["sim-observed"]["counters"]
    assert (counters["trace_records"]
            > small_instances["sim-observed"]["events"])


def test_lossy_workload_runs_the_reliable_transport(small_instances):
    assert small_instances["sim-lossy"]["counters"][
        "reliable_retransmissions"] > 0
    assert "reliable_retransmissions" not in small_instances["sim-city"][
        "counters"]


# -- traced runs --------------------------------------------------------------


@pytest.mark.parametrize("name", ["sim-lossy", "live-rate"])
def test_traced_run_fills_every_per_layer_metric(small_instances, name,
                                                 monkeypatch):
    monkeypatch.setattr(micro, "ROUNDS", 1)
    recorder = trace.Recorder()
    with trace.live_children_traced():
        traced = workloads.run_instance(name, workloads.WORKING_SEED, SMALL,
                                        recorder.around)
    table = trace.merge([recorder.table()] + traced.pop("child_layers", []))
    traced["layers"] = table
    plain = small_instances[name]
    if name.startswith("sim-"):
        # Same inputs, same simulated outcome; self times partition the
        # profiled interval.
        assert traced["sim"] == plain["sim"]
        assert sum(table["self_s"].values()) == pytest.approx(
            table["wall_s"], rel=0.02)
    layers = runner.layer_metrics(plain, traced, micro.run_micro(), 10.0)
    assert list(layers) != []
    assert set(layers) == {m[0] for m in metrics.PER_LAYER}
    assert layers["trace_overhead_ratio"] > 1.0
    live_layers = [k for k in layers if k.startswith("live.")
                   and k.endswith(".calls")]
    if name == "live-rate":
        assert all(layers[k] > 0 for k in live_layers)
        assert layers["net.causal.calls"] == 0
        assert layers["live.engine.idle_s"] > 0
        assert layers["live.cluster.judge_s"] > 0
    else:
        assert all(layers[k] == 0 for k in live_layers)
        assert layers["net.reliable.calls"] > 0
        assert layers["net.causal.clock_compares"] > 0


def _entry(filename, name, inline, calls=()):
    code = name if filename is None else SimpleNamespace(
        co_filename=filename, co_name=name)
    return SimpleNamespace(code=code, callcount=1, inlinetime=inline,
                           totaltime=inline, calls=list(calls))


def test_builtin_and_stdlib_time_is_charged_to_the_calling_layer():
    builtin = _entry(None, "<built-in method builtins.sorted>", 1.0)
    stdlib = _entry("/usr/lib/python3/random.py", "expovariate", 2.0)
    key_fn = _entry("/x/src/repro/mobility/cellmap.py", "natural_key", 0.5)
    causal = _entry("/x/src/repro/net/causal.py", "_commit", 3.0)
    cellmap = _entry("/x/src/repro/mobility/cellmap.py", "neighbors", 0.25)

    def edge(callee, total):
        return SimpleNamespace(code=callee.code, callcount=4,
                               inlinetime=callee.inlinetime, totaltime=total)

    builtin.calls = [edge(key_fn, 0.5)]
    cellmap.calls = [edge(builtin, 1.5)]
    causal.calls = [edge(stdlib, 2.0), edge(cellmap, 1.75)]
    table = trace.fold([builtin, stdlib, key_fn, causal, cellmap])
    assert table["self_s"]["net.causal"] == pytest.approx(3.0 + 2.0)
    assert table["self_s"]["mobility"] == pytest.approx(0.25 + 1.0 + 0.5)
    assert sum(table["self_s"].values()) == pytest.approx(6.75)
    assert table["calls"]["mobility"] == 4      # causal -> cellmap only
    assert trace.layer_of("/x/lib/python3.11/asyncio/events.py") == \
        "live.engine"
    assert trace.layer_of("/x/src/repro/sidam/city.py") == trace.OTHER
    assert trace.layer_of("<string>") is None


# -- open-loop latency --------------------------------------------------------


def test_due_time_latency_charges_a_stall_to_every_delayed_request():
    gap = 0.010
    # Host 0 runs on schedule from t=1.0; host 1 starts at t=1.003 and
    # its generator stalls 50 ms before request 2, delaying 2, 3 and 4.
    requests = [(0, j, 1.0 + j * gap, 1.0 + j * gap + 0.020)
                for j in range(5)]
    stall = [0.0, 0.0, 0.050, 0.040, 0.030]
    requests += [(1, j, 1.003 + j * gap + stall[j],
                  1.003 + j * gap + stall[j] + 0.020) for j in range(5)]
    latency, lag = workloads.due_latencies(requests, gap)
    assert latency == pytest.approx(sorted([0.020] * 7
                                           + [0.070, 0.060, 0.050]))
    assert lag == pytest.approx([0.0] * 7 + [0.030, 0.040, 0.050])
    assert workloads.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0
    assert workloads.percentile([1.0], 0.99) == 1.0


# -- the contract command -----------------------------------------------------


def test_contract_command_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, *metrics.COMMAND[1:], "--workload", "sim-observed",
         "--seed", "11", "--seconds", "1", "--trace", "0"],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in metrics.END_TO_END]
    for name, unit, _better, _bound in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0

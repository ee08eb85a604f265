"""Golden and mutation tests for the shard-safety passes (SHD001-006).

Fixture trees reuse the live tree's relative paths (``stations/mss.py``,
``core/proxy.py`` ...) so the ownership spec classifies them exactly as
it classifies the real code.  Each rule gets a violating fixture and a
clean twin; three mutation tests then re-introduce real shard violations
into a copy of the live tree and prove ``analyze`` fails with exactly
the named rule.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import textwrap

import pytest

import repro
from repro.analysis.static import (
    classify_path,
    load_baseline,
    load_justifications,
    run_analysis,
    unjustified,
)
from repro.experiments.cli import main

REPRO_ROOT = pathlib.Path(repro.__file__).resolve().parent
REPO_ROOT = REPRO_ROOT.parents[1]
BASELINE = REPO_ROOT / "ANALYSIS_BASELINE.json"


def analyze(tmp_path, sources, rules=None):
    for name, text in sources.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    selected = {rules} if isinstance(rules, str) else rules
    return run_analysis(tmp_path, selected)


# -- path classification ----------------------------------------------------

def test_classify_path_components_and_roles():
    assert classify_path("stations/mss.py").component == "mss"
    assert classify_path("src/repro/stations/mss.py").component == "mss"
    assert classify_path("core/proxy.py").component == "proxy"
    assert classify_path("hosts/mobile_host.py").component == "mh"
    assert classify_path("servers/echo.py").component == "server"
    assert classify_path("servers/tis_network.py").role == "harness"
    assert classify_path("net/wired.py").role == "channel"
    assert classify_path("sim/simulator.py").role == "kernel"
    assert classify_path("world.py").role == "harness"
    assert classify_path("core/protocol.py").role == "data"
    assert classify_path("something_new.py").role == "harness"


# -- SHD001: cross-component attribute writes -------------------------------

def test_shd001_fires_on_foreign_attribute_write(tmp_path):
    result = analyze(tmp_path, {"stations/mss.py": '''
        class MobileSupportStation:
            def poke(self, proxy: "Proxy") -> None:
                proxy.currentloc = self.node_id
    '''}, rules="SHD001")
    assert [f.rule for f in result.findings] == ["SHD001"]
    assert "proxy-owned" in result.findings[0].message
    assert "currentloc" in result.findings[0].message


def test_shd001_quiet_on_own_state_and_method_calls(tmp_path):
    result = analyze(tmp_path, {"stations/mss.py": '''
        class MobileSupportStation:
            def poke(self, proxy: "Proxy") -> None:
                self.count = 1
                proxy.handle_update(self.node_id)
    '''}, rules="SHD001")
    assert result.findings == []


def test_shd001_quiet_in_harness_files(tmp_path):
    result = analyze(tmp_path, {"world.py": '''
        class World:
            def wire(self, proxy: "Proxy") -> None:
                proxy.currentloc = "mss1"
    '''}, rules="SHD001")
    assert result.findings == []


# -- SHD002: retained foreign references ------------------------------------

def test_shd002_fires_on_retained_peer_station(tmp_path):
    result = analyze(tmp_path, {"stations/mss.py": '''
        class MobileSupportStation:
            def adopt(self, other: "MobileSupportStation") -> None:
                self.peer = other
    '''}, rules="SHD002")
    assert [f.rule for f in result.findings] == ["SHD002"]
    assert "self.peer" in result.findings[0].message


def test_shd002_quiet_on_sanctioned_colocations(tmp_path):
    # The MSS proxy registry and Proxy(self, ...) hosting capture are the
    # declared co-locations (ownership.ALLOWED_REFS / HOSTED_BY).
    result = analyze(tmp_path, {"stations/mss.py": '''
        class Proxy:
            pass

        class MobileSupportStation:
            def create(self, pid: str) -> None:
                proxy = Proxy(self, pid)
                self.proxies[pid] = proxy
    '''}, rules="SHD002")
    assert result.findings == []


def test_shd002_fires_on_component_object_in_message(tmp_path):
    result = analyze(tmp_path, {"stations/mss.py": '''
        class Message:
            pass

        class LocateMsg(Message):
            kind = "locate"

        class MobileSupportStation:
            def locate(self, host: "MobileHost") -> None:
                self.send(LocateMsg(host=host))
    '''}, rules="SHD002")
    assert [f.rule for f in result.findings] == ["SHD002"]
    assert "LocateMsg" in result.findings[0].message
    assert "ids and values" in result.findings[0].message


def test_shd002_quiet_when_message_carries_ids(tmp_path):
    result = analyze(tmp_path, {"stations/mss.py": '''
        class Message:
            pass

        class LocateMsg(Message):
            kind = "locate"

        class MobileSupportStation:
            def locate(self, host_id: str) -> None:
                self.send(LocateMsg(host=host_id))
    '''}, rules="SHD002")
    assert result.findings == []


# -- SHD003: module-level mutable containers --------------------------------

def test_shd003_fires_on_handler_mutated_module_dict(tmp_path):
    result = analyze(tmp_path, {"stations/mss.py": '''
        _cache = {}

        class MobileSupportStation:
            def handle(self, key: str) -> None:
                _cache[key] = 1
    '''}, rules="SHD003")
    assert [f.rule for f in result.findings] == ["SHD003"]
    assert "_cache" in result.findings[0].message
    assert "MobileSupportStation.handle" in result.findings[0].message


def test_shd003_quiet_on_read_only_module_table(tmp_path):
    result = analyze(tmp_path, {"stations/mss.py": '''
        _TABLE = {"a": 1}

        class MobileSupportStation:
            def handle(self, key: str) -> int:
                return _TABLE[key]
    '''}, rules="SHD003")
    assert result.findings == []


def test_shd003_fires_through_helper_call_chain(tmp_path):
    # The mutation sits in a module helper the handler calls — the call
    # graph must chase it there.
    result = analyze(tmp_path, {"stations/mss.py": '''
        _cache = {}

        def _remember(key: str) -> None:
            _cache[key] = 1

        class MobileSupportStation:
            def handle(self, key: str) -> None:
                _remember(key)
    '''}, rules="SHD003")
    assert [f.rule for f in result.findings] == ["SHD003"]


def test_shd003_quiet_in_harness_files(tmp_path):
    result = analyze(tmp_path, {"presets.py": '''
        PRESETS = {}

        def register(name: str) -> None:
            PRESETS[name] = name
    '''}, rules="SHD003")
    assert result.findings == []


# -- SHD004: RNG-stream ownership -------------------------------------------

def test_shd004_fires_on_foreign_stream_draw(tmp_path):
    result = analyze(tmp_path, {"core/proxy.py": '''
        class Proxy:
            def __init__(self, rng) -> None:
                self.rng = rng.stream("faults.wired")
    '''}, rules="SHD004")
    assert [f.rule for f in result.findings] == ["SHD004"]
    assert "faults.wired" in result.findings[0].message
    assert "proxy component" in result.findings[0].message


def test_shd004_fires_on_undeclared_stream(tmp_path):
    result = analyze(tmp_path, {"core/proxy.py": '''
        class Proxy:
            def __init__(self, rng) -> None:
                self.rng = rng.stream("proxy.jitter")
    '''}, rules="SHD004")
    assert [f.rule for f in result.findings] == ["SHD004"]
    assert "STREAM_OWNERS" in result.findings[0].hint


def test_shd004_quiet_for_owners_and_harness(tmp_path):
    result = analyze(tmp_path, {
        "net/faults.py": '''
            class FaultPlan:
                def __init__(self, rng) -> None:
                    self.rng = rng.stream("faults.wired")
        ''',
        "mobility/driver.py": '''
            class MobilityDriver:
                def __init__(self, rng) -> None:
                    self.rng = rng.stream("mobility.mh1")
        ''',
        "world.py": '''
            def build(rng):
                return rng.stream("faults.wired")
        ''',
    }, rules="SHD004")
    assert result.findings == []


# -- SHD005: foreign Simulator access ---------------------------------------

def test_shd005_fires_on_foreign_sim_access(tmp_path):
    result = analyze(tmp_path, {"hosts/api.py": '''
        class RdpClient:
            def now_of(self, mss: "MobileSupportStation") -> float:
                return mss.sim.now
    '''}, rules="SHD005")
    assert [f.rule for f in result.findings] == ["SHD005"]
    assert "mss component" in result.findings[0].message


def test_shd005_quiet_on_own_and_sanctioned_sim(tmp_path):
    result = analyze(tmp_path, {"hosts/api.py": '''
        class RdpClient:
            def __init__(self, host: "MobileHost") -> None:
                self.host = host

            def now(self) -> float:
                return self.host.sim.now
    '''}, rules="SHD005")
    assert result.findings == []


# -- SHD006: captures in scheduled callbacks --------------------------------

def test_shd006_fires_on_component_event_payload(tmp_path):
    result = analyze(tmp_path, {"stations/mss.py": '''
        class MobileSupportStation:
            def defer(self, proxy: "Proxy") -> None:
                self.sim.schedule(1.0, self._fire, proxy)
    '''}, rules="SHD006")
    assert [f.rule for f in result.findings] == ["SHD006"]
    assert "proxy" in result.findings[0].message


def test_shd006_fires_on_closure_capture(tmp_path):
    result = analyze(tmp_path, {"stations/mss.py": '''
        class MobileSupportStation:
            def defer(self, host: "MobileHost") -> None:
                self.sim.schedule(1.0, lambda: host.wake())
    '''}, rules="SHD006")
    assert [f.rule for f in result.findings] == ["SHD006"]
    assert "'host'" in result.findings[0].message


def test_shd006_fires_on_foreign_bound_method(tmp_path):
    result = analyze(tmp_path, {"net/wireless.py": '''
        class WirelessHost:
            def on_wireless_message(self, message) -> None:
                pass

        class WirelessChannel:
            def send(self, host: "WirelessHost", message) -> None:
                self.sim.schedule(1.0, host.on_wireless_message, message)
    '''}, rules="SHD006")
    assert [f.rule for f in result.findings] == ["SHD006"]
    assert "bound method" in result.findings[0].message


def test_shd006_quiet_on_ids_and_data_attributes(tmp_path):
    # Ids, data attributes read at schedule time, and self's own bound
    # methods capture nothing foreign.
    result = analyze(tmp_path, {"net/wireless.py": '''
        class WirelessStation:
            cell_id: str

        class WirelessChannel:
            def send(self, station: "WirelessStation", host_id: str,
                     message) -> None:
                self.sim.schedule(1.0, self._deliver, station.cell_id,
                                  host_id, message)

            def _deliver(self, cell: str, host_id: str, message) -> None:
                pass
    '''}, rules="SHD006")
    assert result.findings == []


# -- live tree self-checks ---------------------------------------------------

def test_live_tree_is_shard_clean():
    """SHD001-006 must run clean on the committed tree: the machine-checked
    precondition for the sharded-kernel refactor (ROADMAP)."""
    result = run_analysis(REPRO_ROOT,
                          {f"SHD00{i}" for i in range(1, 7)})
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings)


def test_every_baseline_entry_is_justified():
    """The ratchet may hold debt, but never undocumented debt."""
    baseline = load_baseline(BASELINE)
    justifications = load_justifications(BASELINE)
    assert unjustified(baseline, justifications) == []


# -- mutation tests: seeded violations flip exactly the named rule ----------

@pytest.fixture
def mutable_tree(tmp_path):
    tree = tmp_path / "repro"
    shutil.copytree(REPRO_ROOT, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def _analyze_out(mutable_tree, capsys):
    code = main(["analyze", "--root", str(mutable_tree), "--no-baseline",
                 "--select", "SHD"])
    return code, capsys.readouterr().out


def test_direct_foreign_proxy_write_flips_shd001(mutable_tree, capsys):
    mss = mutable_tree / "stations" / "mss.py"
    text = mss.read_text()
    anchor = "proxy = self._create_proxy(msg.mh, currentloc=msg.resp_mss)"
    assert anchor in text
    mss.write_text(text.replace(
        anchor, anchor + "\n        proxy.currentloc = msg.resp_mss"))

    code, out = _analyze_out(mutable_tree, capsys)
    assert code == 1
    assert "SHD001" in out
    assert "currentloc" in out
    rules = set(re.findall(r":\d+: (SHD\d+) ", out))
    assert rules == {"SHD001"}


def test_mss_object_in_scheduled_closure_flips_shd006(mutable_tree, capsys):
    mss = mutable_tree / "stations" / "mss.py"
    mss.write_text(mss.read_text() + textwrap.dedent('''

        def _shard_mutation(sim: "Simulator",
                            other: "MobileSupportStation") -> None:
            sim.schedule(0.0, lambda: other.node_id)
    '''))

    code, out = _analyze_out(mutable_tree, capsys)
    assert code == 1
    assert "SHD006" in out
    assert "'other'" in out
    rules = set(re.findall(r":\d+: (SHD\d+) ", out))
    assert rules == {"SHD006"}


def test_foreign_stream_draw_in_proxy_flips_shd004(mutable_tree, capsys):
    proxy = mutable_tree / "core" / "proxy.py"
    proxy.write_text(proxy.read_text() + textwrap.dedent('''

        def _shard_mutation_rng(rng):
            return rng.stream("faults.wired")
    '''))

    code, out = _analyze_out(mutable_tree, capsys)
    assert code == 1
    assert "SHD004" in out
    assert "faults.wired" in out
    rules = set(re.findall(r":\d+: (SHD\d+) ", out))
    assert rules == {"SHD004"}


def test_reverting_wireless_to_object_capture_flips_shd006(
        mutable_tree, capsys):
    """Re-introducing the pre-refactor wireless delivery (scheduling live
    station/host objects instead of ids) must fail the SHD gate."""
    wireless = mutable_tree / "net" / "wireless.py"
    text = wireless.read_text()
    fixed = ("self.sim.schedule(delay, self._deliver_uplink, station.cell_id,\n"
             "                          host.node_id, message, "
             "label=f\"wl-up:{message.kind}\")")
    assert fixed in text
    wireless.write_text(text.replace(
        fixed,
        "self.sim.schedule(delay, self._deliver_uplink_obj, station,\n"
        "                          host.node_id, message, "
        "label=f\"wl-up:{message.kind}\")"))

    code, out = _analyze_out(mutable_tree, capsys)
    assert code == 1
    assert "SHD006" in out


def test_shard_context_is_cached_per_tree(tmp_path, monkeypatch):
    """The SourceTree holds one ClassIndex and one TypeEnv per function;
    all six rules and the call graph share them."""
    from repro.analysis.static import dataflow
    from repro.analysis.static.model import SourceTree
    from repro.analysis.static.shard_rules import run_shard_rules

    (tmp_path / "stations").mkdir()
    (tmp_path / "stations" / "mss.py").write_text(textwrap.dedent('''
        _SEEN = {}

        class MobileSupportStation:
            def on_join(self, host: "MobileHost") -> None:
                self._note(host.node_id)

            def _note(self, node_id) -> None:
                _SEEN[node_id] = True

        def helper() -> None:
            pass
    '''))
    built = {"index": 0, "envs": []}
    index_init, env_init = dataflow.ClassIndex.__init__, dataflow.TypeEnv.__init__

    def count_index(self, tree):
        built["index"] += 1
        index_init(self, tree)

    def count_env(self, tree, func, enclosing_class=None):
        built["envs"].append(func)
        env_init(self, tree, func, enclosing_class)

    monkeypatch.setattr(dataflow.ClassIndex, "__init__", count_index)
    monkeypatch.setattr(dataflow.TypeEnv, "__init__", count_env)
    tree = SourceTree.load(tmp_path)
    assert tree.class_index is tree.class_index
    run_shard_rules(tree)
    graph = dataflow.CallGraph(tree)
    functions = [(func, cls) for src in tree
                 for func, cls, _qual in dataflow.functions(src)]
    assert len(functions) == 3
    assert built["index"] == 1
    assert sorted(map(id, built["envs"])) == sorted(
        id(func) for func, _cls in functions)
    for func, cls in functions:
        assert tree.type_env(func, cls) is tree.type_env(func, cls)
    assert graph.index is tree.class_index

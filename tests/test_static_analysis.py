"""Golden tests for the static analyzer (``repro.analysis.static``).

Each rule gets a violating fixture (must fire, with the right rule id and
location) and a clean twin (must stay quiet).  Two mutation tests then
prove the passes catch real regressions in the live tree: deleting a
dispatch-dict entry from the MSS and injecting a wall-clock call into the
simulator both make ``python -m repro.experiments analyze`` fail.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import textwrap

import pytest

import repro
from repro.analysis.static import (
    RULES,
    compare,
    load_baseline,
    run_analysis,
    save_baseline,
)
from repro.experiments.cli import main

REPRO_ROOT = pathlib.Path(repro.__file__).resolve().parent
REPO_ROOT = REPRO_ROOT.parents[1]
BASELINE = REPO_ROOT / "ANALYSIS_BASELINE.json"

MESSAGE_BASE = '''
        class Message:
            """Fixture root — name matters, the analyzer keys on it."""
'''


def analyze(tmp_path, sources, rules=None):
    for name, text in sources.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    selected = {rules} if isinstance(rules, str) else rules
    return run_analysis(tmp_path, selected)


# -- RDP001: sent but never handled ----------------------------------------

def test_rdp001_fires_on_unhandled_kind(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class PingMsg(Message):
            kind = "ping"

        def send(net):
            net.push(PingMsg())
    '''}, rules="RDP001")
    assert [f.rule for f in result.findings] == ["RDP001"]
    finding = result.findings[0]
    assert finding.path == "proto.py"
    assert "'ping'" in finding.message
    assert "PingMsg()" in finding.context


def test_rdp001_quiet_with_dict_handler(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class PingMsg(Message):
            kind = "ping"

        def on_ping(msg):
            return msg.kind

        HANDLERS = {PingMsg: on_ping}

        def send(net):
            net.push(PingMsg())
    '''}, rules="RDP001")
    assert result.findings == []


def test_rdp001_quiet_with_kind_compare_handler(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class PingMsg(Message):
            kind = "ping"

        def dispatch(msg):
            if msg.kind == "ping":
                return True
            return False

        def send(net):
            net.push(PingMsg())
    '''}, rules="RDP001")
    assert result.findings == []


def test_rdp001_ignores_orphaned_annotation_handler(tmp_path):
    # A handler method whose dispatch entry was deleted must not count:
    # the annotation alone doesn't route any message to it.
    sources = {"proto.py": MESSAGE_BASE + '''
        class PingMsg(Message):
            kind = "ping"

        class Node:
            def on_ping(self, msg: PingMsg) -> None:
                pass

            def send(self, net):
                net.push(PingMsg())
    '''}
    result = analyze(tmp_path, sources, rules="RDP001")
    assert [f.rule for f in result.findings] == ["RDP001"]

    # Referencing the handler (here: explicit routing) credits it again.
    sources["proto.py"] += '''
        def route(node, msg):
            node.on_ping(msg)
    '''
    result = analyze(tmp_path, sources, rules="RDP001")
    assert result.findings == []


# -- RDP002: dead protocol vocabulary --------------------------------------

def test_rdp002_fires_on_never_constructed_kind(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class GhostMsg(Message):
            kind = "ghost"
    '''}, rules="RDP002")
    assert [f.rule for f in result.findings] == ["RDP002"]
    assert "never" in result.findings[0].message


def test_rdp002_quiet_when_constructed(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class GhostMsg(Message):
            kind = "ghost"

        def send(net):
            net.push(GhostMsg())
    '''}, rules="RDP002")
    assert result.findings == []


# -- RDP003: duplicate kind strings ----------------------------------------

def test_rdp003_fires_on_duplicate_kind(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class PingMsg(Message):
            kind = "ping"

        class OtherPingMsg(Message):
            kind = "ping"
    '''}, rules="RDP003")
    assert [f.rule for f in result.findings] == ["RDP003"]
    assert "OtherPingMsg" in result.findings[0].message
    assert "PingMsg" in result.findings[0].message


def test_rdp003_quiet_on_unique_kinds(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class PingMsg(Message):
            kind = "ping"

        class PongMsg(Message):
            kind = "pong"
    '''}, rules="RDP003")
    assert result.findings == []


# -- RDP004: unknown field access ------------------------------------------

def test_rdp004_fires_on_typoed_field(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class PingMsg(Message):
            kind = "ping"
            payload: int = 0

        def on_ping(msg):
            return msg.paylod

        HANDLERS = {PingMsg: on_ping}
    '''}, rules="RDP004")
    assert [f.rule for f in result.findings] == ["RDP004"]
    assert "paylod" in result.findings[0].message
    assert result.findings[0].path == "proto.py"


def test_rdp004_quiet_on_declared_field(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class PingMsg(Message):
            kind = "ping"
            payload: int = 0

        def on_ping(msg):
            return msg.payload

        HANDLERS = {PingMsg: on_ping}
    '''}, rules="RDP004")
    assert result.findings == []


def test_rdp004_honours_isinstance_narrowing(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class PingMsg(Message):
            kind = "ping"
            payload: int = 0

        class TracedPingMsg(PingMsg):
            kind = "traced_ping"
            trace_tag: str = ""

        def on_ping(msg):
            if isinstance(msg, TracedPingMsg):
                return msg.trace_tag
            return msg.payload

        HANDLERS = {PingMsg: on_ping}
    '''}, rules="RDP004")
    assert result.findings == []


# -- RDP005: ack obligations -----------------------------------------------

def test_rdp005_fires_when_handler_cannot_ack(tmp_path):
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class WirelessResultMsg(Message):
            kind = "wireless_result"

        class AckMsg(Message):
            kind = "ack"

        def on_result(msg):
            pass

        HANDLERS = {WirelessResultMsg: on_result}

        def sender(net):
            net.send(WirelessResultMsg())
            net.send(AckMsg())
    '''}, rules="RDP005")
    assert [f.rule for f in result.findings] == ["RDP005"]
    assert "wireless_result" in result.findings[0].message
    assert "ack" in result.findings[0].message


def test_rdp005_quiet_on_transitive_ack(tmp_path):
    # The ack send is two calls deep — reachability must follow it.
    result = analyze(tmp_path, {"proto.py": MESSAGE_BASE + '''
        class WirelessResultMsg(Message):
            kind = "wireless_result"

        class AckMsg(Message):
            kind = "ack"

        def on_result(msg):
            _reply(msg)

        def _reply(msg):
            _emit(AckMsg())

        def _emit(out):
            pass

        HANDLERS = {WirelessResultMsg: on_result}

        def sender(net):
            net.send(WirelessResultMsg())
            net.send(AckMsg())
    '''}, rules="RDP005")
    assert result.findings == []


# -- DET001: wall clocks ---------------------------------------------------

def test_det001_fires_on_time_time(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        import time

        def stamp():
            return time.time()
    '''}, rules="DET001")
    assert [f.rule for f in result.findings] == ["DET001"]
    assert "time.time()" in result.findings[0].message


def test_det001_fires_through_from_import_alias(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        from time import monotonic as now

        def stamp():
            return now()
    '''}, rules="DET001")
    assert [f.rule for f in result.findings] == ["DET001"]


def test_det001_quiet_on_sim_now(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        def stamp(sim):
            return sim.now
    '''}, rules="DET001")
    assert result.findings == []


# -- DET002: unseeded randomness -------------------------------------------

def test_det002_fires_on_global_random(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        import random

        def draw():
            return random.random()
    '''}, rules="DET002")
    assert [f.rule for f in result.findings] == ["DET002"]


def test_det002_fires_on_unseeded_random_instance(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        from random import Random

        def make():
            return Random()
    '''}, rules="DET002")
    assert [f.rule for f in result.findings] == ["DET002"]


def test_det002_quiet_on_seeded_random(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        import random

        def make(seed):
            return random.Random(seed)
    '''}, rules="DET002")
    assert result.findings == []


# -- DET003: id()/hash() leaks ---------------------------------------------

def test_det003_fires_on_id_call(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        def key_of(obj):
            return id(obj)
    '''}, rules="DET003")
    assert [f.rule for f in result.findings] == ["DET003"]


def test_det003_allows_hash_inside_dunder_hash(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        class Key:
            def __init__(self, name):
                self.name = name

            def __hash__(self):
                return hash(self.name)
    '''}, rules="DET003")
    assert result.findings == []


# -- DET004: set-iteration order leaks -------------------------------------

def test_det004_fires_on_effectful_set_loop(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        class Hub:
            def __init__(self):
                self.peers = set()

            def broadcast(self, net, msg):
                for peer in self.peers:
                    net.send(peer, msg)
    '''}, rules="DET004")
    assert [f.rule for f in result.findings] == ["DET004"]
    assert "set order" in result.findings[0].message


def test_det004_reports_a_loop_in_a_nested_def_once(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        def outer(net, msg):
            def inner():
                for peer in set(net.peers):
                    net.send(peer, msg)
            return inner
    '''}, rules="DET004")
    assert [(f.rule, f.line) for f in result.findings] == [("DET004", 4)]


def test_det004_quiet_on_sorted_iteration(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        class Hub:
            def __init__(self):
                self.peers = set()

            def broadcast(self, net, msg):
                for peer in sorted(self.peers):
                    net.send(peer, msg)
    '''}, rules="DET004")
    assert result.findings == []


# -- DET005: module-level counters -----------------------------------------

def test_det005_fires_on_new_module_counter(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        import itertools

        _widget_ids = itertools.count(1)
    '''}, rules="DET005")
    assert [f.rule for f in result.findings] == ["DET005"]
    assert "_widget_ids" in result.findings[0].message


def test_det005_quiet_on_instance_counter(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        import itertools

        class Factory:
            def __init__(self):
                self._widget_ids = itertools.count(1)
    '''}, rules="DET005")
    assert result.findings == []


# -- suppressions and SUP001 -----------------------------------------------

def test_same_line_suppression_swallows_finding(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        import time

        def stamp():
            return time.time()  # repro: allow[DET001]
    '''})
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["DET001"]


def test_preceding_comment_suppression_swallows_finding(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        import time

        def stamp():
            # repro: allow[DET001]
            return time.time()
    '''})
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["DET001"]


def test_suppression_above_decorated_function_covers_head(tmp_path):
    """Satellite regression: an allow comment above a decorated function
    covers findings on the function head (here: an unseeded Random()
    default evaluated at def time)."""
    result = analyze(tmp_path, {"mod.py": '''
        from random import Random

        def deco(f):
            return f

        # repro: allow[DET002]
        @deco
        def make(rng=Random()):
            return rng
    '''})
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["DET002"]


def test_suppression_above_multiline_statement_head_covers_finding(tmp_path):
    """Satellite regression: the allow comment sits above a statement
    whose expression continues onto the next line — the finding's own
    line is inside the statement, not directly under the comment."""
    result = analyze(tmp_path, {"mod.py": '''
        import time

        def stamp():
            # repro: allow[DET001]
            return (
                time.time())
    '''})
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["DET001"]


def test_suppression_above_decorator_does_not_cover_body(tmp_path):
    """Precision guard: a head-level allow must not swallow findings in
    the function body."""
    result = analyze(tmp_path, {"mod.py": '''
        import time

        def deco(f):
            return f

        # repro: allow[DET001]
        @deco
        def stamp():
            return time.time()
    '''})
    rules = sorted(f.rule for f in result.findings)
    assert rules == ["DET001", "SUP001"]  # unsuppressed + stale allow


def test_unused_suppression_reports_sup001(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        def fine():
            return 1  # repro: allow[DET001]
    '''})
    assert [f.rule for f in result.findings] == ["SUP001"]
    assert "allow[DET001]" in result.findings[0].message


def test_suppression_mentioned_in_docstring_is_not_a_suppression(tmp_path):
    result = analyze(tmp_path, {"mod.py": '''
        """Docs may show the syntax: ``# repro: allow[DET001]``."""

        def fine():
            return 1
    '''})
    assert result.findings == []


def test_unparseable_file_is_reported(tmp_path):
    result = analyze(tmp_path, {"broken.py": '''
        def f(:
    '''})
    assert [f.rule for f in result.findings] == ["SUP001"]
    assert "does not parse" in result.findings[0].message


# -- baseline ratchet ------------------------------------------------------

def test_baseline_roundtrip_and_ratchet(tmp_path):
    sources = {"mod.py": '''
        import time

        def stamp():
            return time.time()
    '''}
    result = analyze(tmp_path / "tree", sources, rules="DET001")
    assert len(result.findings) == 1

    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, result.findings)
    payload = json.loads(baseline_path.read_text())
    assert payload["version"] == 1
    assert len(payload["findings"]) == 1

    # Same findings again: all baselined, nothing new.
    comparison = compare(result.findings, load_baseline(baseline_path))
    assert comparison.ok
    assert len(comparison.baselined) == 1

    # A second wall-clock call exceeds the baselined count: new finding.
    sources["mod.py"] += '''
        def stamp2():
            return time.time()
    '''
    worse = analyze(tmp_path / "tree", sources, rules="DET001")
    comparison = compare(worse.findings, load_baseline(baseline_path))
    assert not comparison.ok
    assert len(comparison.new) == 1

    # Fixing everything marks the baseline entry as fixed.
    comparison = compare([], load_baseline(baseline_path))
    assert comparison.ok
    assert comparison.fixed == 1


def test_missing_baseline_is_empty():
    assert load_baseline(pathlib.Path("/nonexistent/baseline.json")) == {}


# -- live tree self-checks -------------------------------------------------

def test_live_tree_matches_committed_baseline():
    """The committed tree must carry no analyzer debt beyond the baseline,
    and the baseline must carry no stale (already-fixed) entries."""
    result = run_analysis(REPRO_ROOT)
    comparison = compare(result.findings, load_baseline(BASELINE))
    assert comparison.new == [], "\n".join(f.render() for f in comparison.new)
    assert comparison.fixed == 0, (
        "baseline has stale entries — re-record with "
        "'python -m repro.experiments analyze --update-baseline'")


def test_live_tree_protocol_surface_is_known():
    """Every paper message kind the chain depends on exists and is live."""
    from repro.analysis.static import SourceTree, build_protocol_model

    model = build_protocol_model(SourceTree.load(REPRO_ROOT))
    kinds = {c.kind for c in model.classes.values() if c.is_concrete}
    for kind in ("request", "forwarded_request", "server_request",
                 "server_result", "result_forward", "wireless_result",
                 "ack", "ack_forward", "dereg", "deregack"):
        assert kind in kinds, f"paper kind '{kind}' missing from the tree"


def test_node_index_is_ast_walk_on_live_tree():
    """Each module's node index lists, per node type, exactly what
    ``ast.walk`` yields of that type, in walk order: first-wins tables
    and finding order depend on it.  The parent map matches too (for
    statements and expressions: contexts and operators are shared
    singletons with no one parent)."""
    import ast

    from repro.analysis.static import SourceTree

    for src in SourceTree.load(REPRO_ROOT):
        walked = list(ast.walk(src.tree))
        types = {type(node) for node in walked}
        assert set(src.by_type) == types, src.rel
        for node_type in types:
            assert src.nodes(node_type) == [
                n for n in walked if isinstance(n, node_type)], (
                src.rel, node_type.__name__)
        assert all(src.parents[child] is node for node in walked
                   for child in ast.iter_child_nodes(node)
                   if isinstance(child, (ast.stmt, ast.expr))), src.rel


# -- mutation tests: the analyzer must catch real regressions --------------

@pytest.fixture
def mutable_tree(tmp_path):
    tree = tmp_path / "repro"
    shutil.copytree(REPRO_ROOT, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_deleting_a_dispatch_entry_fails_analyze(mutable_tree, capsys):
    """Satellite (f): removing the MSS dispatch entry for del_pref_notice
    leaves the kind sent-but-unhandled — RDP001 must fail the CLI."""
    mss = mutable_tree / "stations" / "mss.py"
    text = mss.read_text()
    entry = "DelPrefNoticeMsg: self._on_del_pref_notice"
    assert entry in text
    mss.write_text("\n".join(
        line for line in text.splitlines() if entry not in line) + "\n")

    code = main(["analyze", "--root", str(mutable_tree), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RDP001" in out
    assert "del_pref_notice" in out
    assert "core/proxy.py:" in out  # file:line of the now-orphaned send


def test_injected_wallclock_fails_analyze(mutable_tree, capsys):
    sim = mutable_tree / "sim" / "simulator.py"
    sim.write_text("import time\n_T0 = time.time()\n" + sim.read_text())

    code = main(["analyze", "--root", str(mutable_tree), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET001" in out
    assert "sim/simulator.py:2" in out


def test_new_global_counter_fails_analyze(mutable_tree, capsys):
    mail = mutable_tree / "servers" / "mail.py"
    mail.write_text(mail.read_text()
                    + "\n_regression_ids = itertools.count(1)\n")

    code = main(["analyze", "--root", str(mutable_tree), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET005" in out
    assert "_regression_ids" in out


def test_restored_message_counter_fails_analyze(mutable_tree, capsys):
    # DET005 has no whitelist: a module-level msg_id counter in the
    # message module is a finding like any other.
    message = mutable_tree / "net" / "message.py"
    message.write_text(message.read_text() + "\nimport itertools\n"
                       "_msg_counter = itertools.count(1)\n")

    assert main(["analyze", "--root", str(mutable_tree), "--no-baseline",
                 "--select", "DET005"]) == 1
    assert "_msg_counter" in capsys.readouterr().out


# -- CLI surface -----------------------------------------------------------

def test_cli_analyze_clean_tree_exits_zero(capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "files scanned" in out


def test_cli_list_rules(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_cli_rules_subset(capsys):
    assert main(["analyze", "--rules", "DET001,DET002",
                 "--no-baseline"]) == 0


def test_cli_select_prefix_expansion(tmp_path, capsys):
    (tmp_path / "stations").mkdir()
    (tmp_path / "stations" / "mss.py").write_text(textwrap.dedent('''
        import time

        class MobileSupportStation:
            def poke(self, proxy: "Proxy") -> None:
                proxy.currentloc = time.time()
    '''))
    # The SHD prefix selects the whole shard family — and only it: the
    # DET001 wall clock on the same line must not appear.
    code = main(["analyze", "--root", str(tmp_path), "--no-baseline",
                 "--select", "SHD"])
    out = capsys.readouterr().out
    assert code == 1
    assert "SHD001" in out
    assert "DET001" not in out


def test_cli_select_unknown_rule_errors(capsys):
    assert main(["analyze", "--no-baseline", "--select", "NOPE"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_format_json_is_stable(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n")
    outputs = []
    for _ in range(2):
        code = main(["analyze", "--root", str(tmp_path), "--no-baseline",
                     "--format", "json"])
        assert code == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["findings"][0]["rule"] == "DET001"
    assert payload["findings"][0]["path"] == "mod.py"
    assert "fingerprint" in payload["findings"][0]


def test_cli_format_sarif(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n")
    out_file = tmp_path / "analysis.sarif"
    code = main(["analyze", "--root", str(tmp_path), "--no-baseline",
                 "--format", "sarif", "--out", str(out_file)])
    assert code == 1
    printed = capsys.readouterr().out
    assert out_file.read_text() == printed
    sarif = json.loads(printed)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analyze"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == {"DET001"}
    result = run["results"][0]
    assert result["ruleId"] == "DET001"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "mod.py"
    assert location["region"]["startLine"] == 4


def test_baseline_justifications_roundtrip(tmp_path, capsys):
    from repro.analysis.static import load_justifications, unjustified

    (tmp_path / "mod.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n")
    baseline = tmp_path / "baseline.json"
    assert main(["analyze", "--root", str(tmp_path),
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    capsys.readouterr()

    # An unjustified entry passes the gate but warns on stderr.
    assert main(["analyze", "--root", str(tmp_path),
                 "--baseline", str(baseline)]) == 0
    assert "lacks a justification" in capsys.readouterr().err

    # Writing the justification silences the warning ...
    payload = json.loads(baseline.read_text())
    fingerprint = next(iter(payload["findings"]))
    payload["justifications"] = {fingerprint: "legacy wall clock, tracked"}
    baseline.write_text(json.dumps(payload))
    assert main(["analyze", "--root", str(tmp_path),
                 "--baseline", str(baseline)]) == 0
    assert "lacks a justification" not in capsys.readouterr().err
    assert unjustified(load_baseline(baseline),
                       load_justifications(baseline)) == []

    # ... and --update-baseline preserves it for surviving fingerprints.
    assert main(["analyze", "--root", str(tmp_path),
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    assert json.loads(baseline.read_text())["justifications"] == {
        fingerprint: "legacy wall clock, tracked"}


def test_mypy_strict_ratchet_modules_exist():
    """Every module on the pyproject strict-ratchet list must exist, so
    the ratchet cannot silently rot when files move."""
    import tomllib

    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    strict = [o for o in config["tool"]["mypy"]["overrides"]
              if not o.get("ignore_errors", False)]
    assert strict, "pyproject.toml lost its mypy strict-ratchet override"
    modules = strict[0]["module"]
    assert len(modules) >= 3  # the ratchet must cover at least 3 modules
    for module in modules:
        rel = module.replace(".", "/").removeprefix("repro/")
        assert (REPRO_ROOT / f"{rel}.py").exists() \
            or (REPRO_ROOT / rel / "__init__.py").exists(), \
            f"ratcheted module {module} has no source file"


def test_mypy_strict_ratchet_passes():
    """Run mypy on the ratchet when it is installed (CI); skip offline."""
    import shutil as _shutil
    import subprocess

    if _shutil.which("mypy") is None:
        pytest.skip("mypy not installed in this environment")
    proc = subprocess.run(["mypy"], cwd=REPO_ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ruff_critical_rules_pass():
    """Run ruff when it is installed (CI); skip offline."""
    import shutil as _shutil
    import subprocess

    if _shutil.which("ruff") is None:
        pytest.skip("ruff not installed in this environment")
    proc = subprocess.run(["ruff", "check", "src"], cwd=REPO_ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_update_baseline(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n")
    baseline = tmp_path / "baseline.json"

    # Without a baseline the finding fails the run ...
    assert main(["analyze", "--root", str(tmp_path), "--no-baseline"]) == 1
    # ... recording it makes the run pass ...
    assert main(["analyze", "--root", str(tmp_path),
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    assert baseline.exists()
    assert main(["analyze", "--root", str(tmp_path),
                 "--baseline", str(baseline)]) == 0
    # ... and the output still shows the baselined debt.
    out = capsys.readouterr().out
    assert "1 baselined" in out

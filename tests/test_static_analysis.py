"""Tests for the static analyzer (``repro.analysis.static``).

SHD004 gets violating fixtures (must fire, with the right rule id and
location) and a clean twin (must stay quiet); a mutation test then
draws another role's RNG stream from the live tree's proxy code, which
must make ``python -m repro.experiments analyze`` fail.  The fixtures
reuse the live tree's relative paths (``core/proxy.py`` ...), so the
ownership spec classifies them exactly as it classifies the real code.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import textwrap

import pytest

import repro
from repro.analysis.static import classify_path, run_analysis
from repro.analysis.static.ownership import _PATH_RULES
from repro.experiments.cli import main

REPRO_ROOT = pathlib.Path(repro.__file__).resolve().parent
REPO_ROOT = REPRO_ROOT.parents[1]

FOREIGN_DRAW = '''
    class Proxy:
        def __init__(self, rng) -> None:
            self.rng = rng.stream("faults.wired")
'''


def analyze(tmp_path, sources):
    for name, text in sources.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return run_analysis(tmp_path)


# -- SHD004: RNG-stream ownership ------------------------------------------

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


def test_every_source_file_has_an_explicit_path_role():
    """No file of the package falls through to classify_path's default:
    a new module or directory gets its role on purpose."""
    unmatched = [
        rel for rel in (path.relative_to(REPRO_ROOT).as_posix()
                        for path in sorted(REPRO_ROOT.rglob("*.py")))
        if not any(rel.startswith(prefix) for prefix, _r, _c in _PATH_RULES)]
    assert unmatched == []


def test_shd004_fires_on_foreign_stream_draw(tmp_path):
    result = analyze(tmp_path, {"core/proxy.py": FOREIGN_DRAW})
    assert [f.rule for f in result.findings] == ["SHD004"]
    assert "faults.wired" in result.findings[0].message
    assert "proxy component" in result.findings[0].message


def test_shd004_fires_on_undeclared_stream(tmp_path):
    result = analyze(tmp_path, {"core/proxy.py": '''
        class Proxy:
            def __init__(self, rng) -> None:
                self.rng = rng.stream("proxy.jitter")
    '''})
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
    })
    assert result.findings == []


def test_unparseable_file_is_reported(tmp_path, capsys):
    result = analyze(tmp_path, {"broken.py": '''
        def f(:
    '''})
    assert [f.rule for f in result.findings] == ["PARSE"]
    assert "does not parse" in result.findings[0].message
    assert main(["analyze", "--root", str(tmp_path)]) == 1
    assert "broken.py:1: PARSE" in capsys.readouterr().out


def test_node_index_is_ast_walk_on_live_tree():
    """Each module's node index lists, per node type, exactly what
    ``ast.walk`` yields of that type, in walk order: finding order
    depends on it."""
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


# -- mutation test: the analyzer must catch a real regression --------------

@pytest.fixture
def mutable_tree(tmp_path):
    tree = tmp_path / "repro"
    shutil.copytree(REPRO_ROOT, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_foreign_stream_draw_in_proxy_flips_shd004(mutable_tree, capsys):
    proxy = mutable_tree / "core" / "proxy.py"
    proxy.write_text(proxy.read_text() + textwrap.dedent('''

        def _shard_mutation_rng(rng):
            return rng.stream("faults.wired")
    '''))

    code = main(["analyze", "--root", str(mutable_tree)])
    out = capsys.readouterr().out
    assert code == 1
    assert "core/proxy.py:" in out
    assert "SHD004" in out
    assert "faults.wired" in out
    assert "1 finding(s)" in out


# -- CLI surface -----------------------------------------------------------

def test_cli_analyze_clean_tree_exits_zero(capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "files scanned, 0 finding(s)" in out


def test_cli_format_sarif(tmp_path, capsys):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "proxy.py").write_text(textwrap.dedent(FOREIGN_DRAW))
    out_file = tmp_path / "analysis.sarif"
    code = main(["analyze", "--root", str(tmp_path), "--format", "sarif",
                 "--out", str(out_file)])
    assert code == 1
    printed = capsys.readouterr().out
    assert out_file.read_text() == printed
    sarif = json.loads(printed)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analyze"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == {"SHD004"}
    result = run["results"][0]
    assert result["ruleId"] == "SHD004"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "core/proxy.py"
    assert location["region"]["startLine"] == 4
    assert result["partialFingerprints"]["repro/v1"].startswith(
        "SHD004|core/proxy.py|")


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

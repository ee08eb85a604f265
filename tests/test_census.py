"""The reachability census (``tools/census.py``) on a synthetic package.

One traced run of a tiny program covers what the census must get right:
a called and an uncalled function, a def nested in an uncalled def
(counted once, inside its parent), stubs (counted zero), a decorated def
(matched by its first decorator's line), a dunder (listed, not gated) and
a function reached only in a forked child.  A second traced run stands
in for the test suite of ``--tests``: it reaches one uncalled function,
which the census marks ``test``, and leaves another, marked ``none``
(a ``keep`` entry there fails ``--tests``).
The last tests keep the census's artefact list in step with the CI
workflow and the standing benchmark.
"""

from __future__ import annotations

import textwrap

from tools import census

MODULE = '''
import multiprocessing


def called():
    return 1


def uncalled():
    def nested():
        return 2
    return nested()


def stub():
    """Docstring only."""


def stub_raise():
    raise NotImplementedError("abstract")


class Thing:
    def __repr__(self):
        return "thing"

    @staticmethod
    def decorated():
        return 3


def parent_called():
    def nested_uncalled():
        return 4
    return 5


def in_child():
    return 6


def run():
    called()
    Thing.decorated()
    parent_called()
    child = multiprocessing.get_context("fork").Process(target=in_child)
    child.start()
    child.join(30)
    assert child.exitcode == 0
'''


def _synthetic_package(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(MODULE))
    return package


def _traced(tmp_path, package, script, body):
    """Run *body* as ``<tmp_path>/<script>`` under the census tracer."""
    (tmp_path / script).write_text(body)
    into = tmp_path / f"trace-{script}"
    into.mkdir()
    done = census.trace_run([script], into, cwd=tmp_path, pythonpath=tmp_path)
    assert done.returncode == 0, done.stderr
    return census.reached(into, package)


def test_census_of_a_synthetic_package(tmp_path):
    package = _synthetic_package(tmp_path)
    hits = _traced(tmp_path, package, "main.py",
                   "import pkg.mod\n\npkg.mod.run()\n")
    dead = census.uncalled(census.units_of(package), hits)

    by_key = {unit.key: unit for unit in dead}
    assert sorted(by_key) == [
        "pkg/mod.py::Thing.__repr__",
        "pkg/mod.py::parent_called.<locals>.nested_uncalled",
        "pkg/mod.py::uncalled",
    ]
    assert by_key["pkg/mod.py::uncalled"].lines == 4  # nested def inside
    assert not by_key["pkg/mod.py::Thing.__repr__"].gated
    assert census.gate(dead, {"uncalled": {}}) == [
        "pkg/mod.py::uncalled (4 lines)",
        "pkg/mod.py::parent_called.<locals>.nested_uncalled (2 lines)",
    ]
    assert census.gate(dead, {"uncalled": {u.key: u.lines for u in dead}}) == []


def test_tests_column_splits_test_only_from_dead_code(tmp_path):
    package = _synthetic_package(tmp_path)
    hits = _traced(tmp_path, package, "main.py",
                   "import pkg.mod\n\npkg.mod.run()\n")
    dead = census.uncalled(census.units_of(package), hits)
    test_hits = _traced(tmp_path, package, "suite.py",
                        "import pkg.mod\n\nassert pkg.mod.uncalled() == 2\n")

    assert census.reached_by_tests(dead, test_hits) == {
        "pkg/mod.py::uncalled": True,          # only the "suite" runs it
        "pkg/mod.py::parent_called.<locals>.nested_uncalled": False,
    }
    table = census.tests_column(dead, test_hits).splitlines()
    assert table[1].split() == ["pkg/mod.py::uncalled", "4", "test"]
    assert table[2].split()[-1] == "none"
    assert table[-1].startswith("1 of 2 gated uncalled functions")
    # --tests fails on a keep entry that nothing reaches, and only there.
    keep = ["pkg/mod.py::uncalled",
            "pkg/mod.py::parent_called.<locals>.nested_uncalled"]
    assert census.unreached_keep(
        keep, census.reached_by_tests(dead, test_hits)) == [
        "keep-list entry pkg/mod.py::parent_called.<locals>.nested_uncalled "
        "is reached by no artefact and no test"]


def test_every_ci_experiments_command_is_a_census_artefact():
    text = census.CI_YML.read_text()
    assert {cmd[0] for cmd in census.ci_commands(text)} == {
        "report", "fuzz", "observe", "live", "analyze"}
    assert census.missing_from_census(text) == []


def test_an_unlisted_ci_command_is_reported():
    text = "run: PYTHONPATH=src python -m repro.experiments fuzz --seeds 7 --out x\n"
    assert census.missing_from_census(text) == [("fuzz", "--seeds", "7")]


def test_the_benchmark_micro_loops_are_a_census_artefact():
    assert (["-m", "benchmarks.rdpbench", "micro"], 0) in census.ARTEFACTS

"""Reachability census: which functions of ``src/repro`` no artefact runs.

    python tools/census.py            # run every artefact, print, gate
    python tools/census.py --update   # rewrite the baseline's uncalled list
    python tools/census.py --tests    # also run tier-1: which uncalled
                                      # functions only tests reach

Every command of :data:`ARTEFACTS` (the CI commands, the benchmark's
``micro`` loops and every ``examples/*.py``) runs in a fresh interpreter
that records the code object of each call and nothing further
(``sys.monitoring`` from Python 3.12, a ``sys.settrace`` hook before;
see :func:`_record_calls`).  A code object is matched to its ``def`` by
(file, ``co_firstlineno``) — for a decorated def, the first decorator's
line.
Forked children are followed: ``os.register_at_fork`` starts a fresh
record in the child and a wrapped ``os._exit`` writes it out, since a
multiprocessing child leaves through ``os._exit`` without running
``atexit`` hooks or finalizers.

Counting: a def nested in an uncalled def counts once, inside its
parent; a stub (docstring only, ``...`` or ``raise NotImplementedError``)
counts zero; a dunder other than ``__init__`` is listed but not gated.

The gate: the run fails when a gated uncalled function is not in the
committed baseline (``tools/census_baseline.json``), or when a
``python -m repro.experiments`` command of ``.github/workflows/ci.yml``
is missing from :data:`ARTEFACTS`.  The baseline's ``keep`` map holds
the uncalled functions that stay on purpose, each with its reason.

``--tests`` runs :data:`TIER1` under the same tracer beside the
artefacts and marks each uncalled function ``test`` (some test reaches
it: test-only code) or ``none`` (nothing reaches it).  It fails as the
plain run does, and also when a ``keep`` function is reached by nothing,
so a keep reason cannot go stale unnoticed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import CodeType, FrameType
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
BASELINE = Path(__file__).resolve().with_name("census_baseline.json")
CI_YML = ROOT / ".github" / "workflows" / "ci.yml"
WORKERS = 2

_EXPERIMENTS = ["-m", "repro.experiments"]


def _sim_instance(workload: str) -> List[str]:
    spec = {"workload": workload, "seed": 2026, "scale": 0.05,
            "traced": False}
    return ["benchmarks/rdpbench/run.py", "--instance", json.dumps(spec)]


#: (python argv, expected exit status).  ``{out}`` is a scratch directory.
ARTEFACTS: List[Tuple[List[str], int]] = [
    (_EXPERIMENTS + ["report", "--out", "{out}/report.md"], 0),
    (_EXPERIMENTS + ["fuzz", "--seeds", "200", "--base-seed", "0"], 0),
    (_EXPERIMENTS + ["fuzz", "--seeds", "200", "--base-seed", "0",
                     "--fault-profile"], 0),
    (_EXPERIMENTS + ["fuzz", "--seeds", "5", "--protocol", "direct",
                     "--no-shrink", "--out", "{out}/repros"], 1),
    (_EXPERIMENTS + ["observe", "--preset", "smoke", "--export", "prom",
                     "--out", "{out}/obs.prom"], 0),
    (_EXPERIMENTS + ["observe", "--preset", "smoke", "--export", "json",
                     "--out", "{out}/obs.json"], 0),
    (_EXPERIMENTS + ["live", "--preset", "smoke", "--out", "{out}/live.json"], 0),
    (_EXPERIMENTS + ["analyze"], 0),
    (_EXPERIMENTS + ["analyze", "--format", "sarif",
                     "--out", "{out}/analyze.sarif"], 0),
    (_sim_instance("sim-city"), 0),
    (_sim_instance("sim-lossy"), 0),
    (_sim_instance("sim-observed"), 0),
    (["-m", "benchmarks.rdpbench", "micro"], 0),
] + [([str(path.relative_to(ROOT))], 0)
     for path in sorted((ROOT / "examples").glob("*.py"))]

#: The tier-1 suite, for ``--tests``.
TIER1: List[str] = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]


# -- the tracer (runs inside each artefact's interpreter) ----------------------


def _record_calls(seen: Set[CodeType]) -> Callable[[], None]:
    """Add every code object that starts running to *seen*; returns the
    function that stops recording.

    From Python 3.12, ``sys.monitoring`` reports a code object's first
    start and is then disabled there, so a hot function costs one
    callback per process; before 3.12 a ``sys.settrace`` hook sees every
    call.  A forked child inherits the disabled code objects, which its
    parent has already recorded.
    """
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:
        tool = monitoring.COVERAGE_ID

        def on_start(code: CodeType, offset: int) -> object:
            seen.add(code)
            return monitoring.DISABLE

        monitoring.use_tool_id(tool, "census")
        monitoring.register_callback(tool, monitoring.events.PY_START, on_start)
        monitoring.set_events(tool, monitoring.events.PY_START)
        return lambda: monitoring.set_events(tool, 0)

    def tracer(frame: FrameType, event: str, arg: object) -> None:
        seen.add(frame.f_code)

    threading.settrace(tracer)
    sys.settrace(tracer)
    return lambda: sys.settrace(None)


def _traced_main(into: str, argv: List[str]) -> None:
    """Run *argv* as ``python argv...`` would, recording every code object
    called; each process appends its record to ``<into>/<pid>.txt``."""
    seen: Set[CodeType] = set()

    def dump() -> None:
        with open(os.path.join(into, f"{os.getpid()}.txt"), "a") as fh:
            for code in seen:
                fh.write(f"{code.co_filename}\t{code.co_firstlineno}\n")

    real_exit = os._exit

    def traced_exit(status: int) -> None:
        stop()
        dump()
        real_exit(status)

    os._exit = traced_exit
    os.register_at_fork(after_in_child=seen.clear)
    sys.argv = list(argv)
    stop = _record_calls(seen)
    try:
        if argv[0] == "-m":
            sys.path.insert(0, os.getcwd())
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        stop()
        dump()


def trace_run(argv: List[str], into: Path, cwd: Path = ROOT,
              pythonpath: Path = SRC) -> subprocess.CompletedProcess:
    """One artefact in a fresh interpreter under the tracer."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--trace-into",
         str(into), "--", *argv],
        cwd=str(cwd), env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)


def reached(into: Path, root: Path) -> Set[Tuple[str, int]]:
    """(path relative to *root*'s parent, first line) of every code object
    under *root* that any traced process called."""
    prefix = str(root.resolve()) + os.sep
    base = root.resolve().parent
    out: Set[Tuple[str, int]] = set()
    for dump in into.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, _, lineno = line.rpartition("\t")
            filename = os.path.realpath(filename)
            if filename.startswith(prefix):
                out.add((Path(filename).relative_to(base).as_posix(), int(lineno)))
    return out


# -- the units (defs) and what counts ------------------------------------------


@dataclass(frozen=True)
class Unit:
    """One ``def``: its key, its code object's first line, its line count."""

    key: str
    path: str
    line: int
    lines: int
    gated: bool
    parent: Optional[str]


def _is_stub(node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> bool:
    body = list(node.body)
    first = body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def units_of(root: Path) -> List[Unit]:
    """Every def under *root*, in file order, parents before children."""
    out: List[Unit] = []
    base = root.resolve().parent
    for path in sorted(root.resolve().rglob("*.py")):
        rel = path.relative_to(base).as_posix()
        taken: Dict[str, int] = {}

        def visit(node: ast.AST, qual: str, parent: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{qual}{child.name}.", parent)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{qual}{child.name}"
                    taken[name] = taken.get(name, 0) + 1
                    key = f"{rel}::{name}"
                    if taken[name] > 1:
                        key += f"#{taken[name]}"
                    line = (child.decorator_list[0].lineno
                            if child.decorator_list else child.lineno)
                    stub = _is_stub(child)
                    dunder = (child.name.startswith("__")
                              and child.name.endswith("__")
                              and child.name != "__init__")
                    out.append(Unit(
                        key, rel, line,
                        0 if stub else (child.end_lineno or line) - line + 1,
                        not (stub or dunder), parent))
                    visit(child, f"{name}.<locals>.", key)
                else:
                    visit(child, qual, parent)

        visit(ast.parse(path.read_text(), str(path)), "", None)
    return out


def uncalled(units: Iterable[Unit], hits: Set[Tuple[str, int]]) -> List[Unit]:
    """The defs never called, a nested def counted inside its uncalled
    parent, stubs left out."""
    out: List[Unit] = []
    dead: Set[str] = set()
    for unit in units:
        if unit.parent in dead:
            dead.add(unit.key)
            continue
        if (unit.path, unit.line) not in hits:
            dead.add(unit.key)
            if unit.lines:
                out.append(unit)
    return out


# -- ci.yml must not drift from ARTEFACTS --------------------------------------


def _normalised(args: List[str]) -> Tuple[str, ...]:
    """An experiments command without its output path and ``--quiet``."""
    out: List[str] = []
    skip = False
    for arg in args:
        if skip:
            skip = False
        elif arg == "--out":
            skip = True
        elif arg != "--quiet":
            out.append(arg)
    return tuple(out)


def ci_commands(text: str) -> List[Tuple[str, ...]]:
    """Every ``python -m repro.experiments`` command in a workflow file."""
    out = []
    for match in re.finditer(r"python -m repro\.experiments ([^|&\n]*)", text):
        out.append(_normalised(shlex.split(match.group(1))))
    return out


def missing_from_census(text: str) -> List[Tuple[str, ...]]:
    declared = {_normalised(argv[2:]) for argv, _ in ARTEFACTS
                if argv[:2] == _EXPERIMENTS}
    return sorted({cmd for cmd in ci_commands(text) if cmd not in declared})


# -- the census ----------------------------------------------------------------


def run_artefacts(into: Path, out: Path) -> List[str]:
    """Run every artefact under the tracer; returns the failures."""
    def one(entry: Tuple[List[str], int]) -> Optional[str]:
        argv, expected = entry
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        done = trace_run(argv, into)
        if done.returncode != expected:
            return (f"{' '.join(argv)}: exit {done.returncode}, expected "
                    f"{expected}\n{done.stderr[-2000:]}")
        return None

    with ThreadPoolExecutor(WORKERS) as pool:
        return [fail for fail in pool.map(one, ARTEFACTS) if fail]


def src_lines(root: Path) -> Dict[str, int]:
    base = root.resolve().parent
    return {path.relative_to(base).as_posix(): len(path.read_text().splitlines())
            for path in sorted(root.resolve().rglob("*.py"))}


def summary(dead: List[Unit], sizes: Dict[str, int]) -> str:
    per_module: Dict[str, int] = {}
    for unit in dead:
        per_module[unit.path] = per_module.get(unit.path, 0) + unit.lines
    rows = [f"{'module':<44}{'uncalled':>9}{'lines':>7}"]
    for path, lines in sorted(per_module.items(), key=lambda kv: (-kv[1], kv[0])):
        rows.append(f"{path:<44}{lines:>9}{sizes[path]:>7}")
    rows.append(f"total: {sum(u.lines for u in dead)} uncalled lines in "
                f"{len(dead)} functions of {sum(sizes.values())} src/repro lines")
    return "\n".join(rows)


def reached_by_tests(dead: List[Unit],
                     test_hits: Set[Tuple[str, int]]) -> Dict[str, bool]:
    """Each gated uncalled function: does some test reach it?"""
    return {u.key: (u.path, u.line) in test_hits for u in dead if u.gated}


def tests_column(dead: List[Unit], test_hits: Set[Tuple[str, int]]) -> str:
    """The gated uncalled functions, each marked ``test`` (only tests reach
    it) or ``none`` (nothing does)."""
    lines = {u.key: u.lines for u in dead}
    reach = reached_by_tests(dead, test_hits)
    rows = [f"{'uncalled function':<72}{'lines':>6}  reached by"]
    rows += [f"{key:<72}{lines[key]:>6}  {'test' if hit else 'none'}"
             for key, hit in reach.items()]
    tested = sum(reach.values())
    rows.append(f"{tested} of {len(reach)} gated uncalled functions are "
                f"reached by tests only; {len(reach) - tested} by nothing")
    return "\n".join(rows)


def unreached_keep(keep: Iterable[str],
                   reach: Dict[str, bool]) -> List[str]:
    """``keep`` entries that no artefact and no test reaches."""
    return [f"keep-list entry {key} is reached by no artefact and no test"
            for key in keep if reach.get(key) is False]


def gate(dead: List[Unit], baseline: Dict[str, Dict[str, object]]) -> List[str]:
    """Gated uncalled functions the baseline does not list."""
    known = baseline["uncalled"]
    return [f"{u.key} ({u.lines} lines)" for u in dead
            if u.gated and u.key not in known]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="tools/census.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline's uncalled list from this run")
    parser.add_argument("--tests", action="store_true",
                        help="also run tier-1 under the tracer, mark the "
                             "uncalled functions only tests reach, and fail "
                             "when a keep entry is reached by nothing")
    args = parser.parse_args(argv)

    problems = [f"ci.yml runs `python -m repro.experiments {' '.join(cmd)}`, "
                f"which ARTEFACTS does not list"
                for cmd in missing_from_census(CI_YML.read_text())]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        into, out, tested = (Path(scratch, name)
                             for name in ("trace", "out", "tests"))
        for path in (into, out, tested):
            path.mkdir()
        with ThreadPoolExecutor(1) as side:
            suite = side.submit(trace_run, TIER1, tested) if args.tests else None
            problems += run_artefacts(into, out)
            hits = reached(into, PACKAGE)
            if suite is not None:
                status = suite.result().returncode
                if status != 0:
                    print(f"tier-1 exited {status} under the tracer",
                          file=sys.stderr)
                test_hits = reached(tested, PACKAGE)
    dead = uncalled(units_of(PACKAGE), hits)
    print(f"reachability census: {len(ARTEFACTS)} artefacts in "
          f"{time.perf_counter() - started:.1f} s")
    print(summary(dead, src_lines(PACKAGE)))
    if args.tests:
        print(tests_column(dead, test_hits))

    baseline = json.loads(BASELINE.read_text())
    keep: Dict[str, str] = baseline["keep"]
    if args.update:
        baseline["uncalled"] = {u.key: u.lines for u in dead}
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline rewritten: {len(dead)} uncalled functions")
    problems += gate(dead, baseline)
    now = {u.key for u in dead}
    problems += [f"keep-list entry {key} is no longer an uncalled function"
                 for key in keep if key not in now]
    if args.tests:
        problems += unreached_keep(keep, reached_by_tests(dead, test_hits))
    gone = [key for key in baseline["uncalled"] if key not in now]
    if gone:
        print(f"{len(gone)} baseline entries are now reached or deleted; "
              f"--update shrinks the baseline")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) > 3 and sys.argv[1] == "--trace-into" and sys.argv[3] == "--":
        _traced_main(sys.argv[2], sys.argv[4:])
    else:
        sys.exit(main())

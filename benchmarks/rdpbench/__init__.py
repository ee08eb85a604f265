"""rdpbench — the standing benchmark of the RDP reproduction.

Four workloads (three on the simulation kernel, one on the live
asyncio-UDP backend), seven gated end-to-end metrics, and a per-layer
table taken by a benchmark-owned profiler.  Everything is measured from
outside the program, through its public entry points; nothing under
``src/`` knows this package exists.  See ``README.md`` in this directory.

Entry points:

* ``python3 benchmarks/rdpbench/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one measured run, one JSON result line (the contract
  ``BENCHMARK.json`` names);
* ``python -m benchmarks.rdpbench`` — the session report: every
  workload, repeats, spread, correctness gates, ``--traced`` layer table.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

# The program under test is not installed; it lives in <root>/src.  In a
# tree without it the first `import repro` fails, which is the intended
# outcome (the benchmark must not produce a result without the program).
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

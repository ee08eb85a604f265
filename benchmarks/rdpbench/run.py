"""One measured run of one workload: the command ``BENCHMARK.json`` names.

    python3 benchmarks/rdpbench/run.py --workload W --seed N
        --seconds S --trace 0|1

Prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import pathlib
import sys

if __name__ == "__main__":
    # Run as a script: make the package importable, whatever the cwd.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
    from rdpbench.runner import driver_main

    sys.exit(driver_main())

"""Benchmark fixtures.

The paper's figures and Section-5 claims are regenerated and checked by
``python -m repro.experiments report``; the pytest-benchmark files here
time the SIDAM macro workload and kernel micro-loops.  ``save_table``
both *prints* a reproduced table and writes it under
``benchmarks/results/`` so the evidence survives the run.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def save_table():
    """Print a table and persist it to benchmarks/results/<name>.txt."""

    def _save(name: str, rendered: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(rendered + "\n")
        print()
        print(rendered)

    return _save

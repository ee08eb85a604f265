"""The package runs on the standard library alone (``dependencies = []``)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

# Imports the package's entry points in a fresh interpreter and prints every
# top-level module they load that is neither stdlib nor repro.  Modules the
# interpreter loaded at start-up (site .pth hooks may pull in third-party
# ones) are not counted, under any name they are later aliased to.
_PROBE = """
import sys
start = set(sys.modules.values())
import repro, repro.world, repro.live.cluster, repro.experiments.cli
added = {name.partition(".")[0] for name, module in list(sys.modules.items())
         if module not in start}
print(" ".join(sorted(added - set(sys.stdlib_module_names) - {"repro"})))
"""


def test_entry_points_import_only_the_standard_library():
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _PROBE],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []

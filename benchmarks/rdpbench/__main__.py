"""``python -m benchmarks.rdpbench`` — the session report (see cli.py)."""

import sys

from .cli import main

sys.exit(main())

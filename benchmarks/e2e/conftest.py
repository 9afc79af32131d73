"""Put the benchmark's own modules on ``sys.path`` for its tests.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository
root; ``benchmarks/conftest.py`` adds ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_HERE = str(Path(__file__).resolve().parent)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

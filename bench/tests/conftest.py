"""Make the ``totneg`` sources of this checkout importable for the benchmark's self-tests."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

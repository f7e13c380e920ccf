"""Let subprocesses started by the tests import the package from ``src``.

``pythonpath`` in pyproject.toml covers the test process itself; the CLI
tests start ``python -m kannanlab.cli`` children, which only see the
environment.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

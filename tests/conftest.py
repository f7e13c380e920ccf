"""Let subprocesses started by the tests import the package from ``src``.

``pythonpath`` in pyproject.toml covers the test process itself; the CLI
tests start ``python -m kannanlab.cli`` children, which only see the
environment.  The ``sample_rule`` fixture states the cross-check sample
rule the tests hold ``stated_sample`` and its three callers to.
"""

import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def sample_rule():
    """The stated cross-check sample as a membership test: of ``total``
    items, index i is sampled iff it is a multiple of max(1, total // 1000)
    or the last index."""
    def sampled(total):
        step = max(1, total // 1000)
        chosen = []
        for start in range(0, total, 1 << 20):  # a chunk at a time: totals reach 5 * 10^7
            ids = np.arange(start, min(start + (1 << 20), total))
            chosen += ids[(ids % step == 0) | (ids == total - 1)].tolist()
        return chosen
    return sampled

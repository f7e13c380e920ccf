"""Build one workload's inputs and exit, with no verdict work.

This is the set-up a CLI invocation pays before it decides anything:
interpreter start, the import graph of ``kannanlab.cli``, and the inputs
the verdict is computed on (a finite space and its conditions, the
positive-integer space and its map, or the reciprocal witness and the
constructed map).  ``run.py`` times it as a child process for
``setup_s`` and imports :func:`build_inputs` for its in-process
throughput calls, so both measure the same construction.

Usage (with the repository's ``src`` on ``PYTHONPATH``)::

    python3 perfbench/setup_inputs.py <workload> <key> <size>
"""

import sys

import kannanlab.cli  # noqa: F401  (the CLI's whole import graph)
from kannanlab import (GornickiNat, TripleNat, build_reciprocal_witness,
                       construct_counterexample_map, load_condition,
                       random_finite_space)

# the conditions `kannanlab census` classifies against when given none
CENSUS_CONDITIONS = [
    {"kind": "strict_kannan"},
    {"kind": "kannan_k", "k": "1/3"},
    {"kind": "fisher"},
    {"kind": "khan"},
    {"kind": "chen_yeh", "a": "0", "b": "0"},
]


def build_inputs(workload: str, key: int, size: int):
    if workload == "census":
        return (random_finite_space(size, key, mode="band"),
                [load_condition(c) for c in CENSUS_CONDITIONS])
    if workload == "integer_scan":
        space = GornickiNat()
        return space, TripleNat(space)
    if workload == "counterexample":
        return construct_counterexample_map(build_reciprocal_witness())
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    build_inputs(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))

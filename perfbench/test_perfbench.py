"""Tests of the benchmark harness itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads(run.GOLDEN.read_text())


def harness(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = harness("--workload", workload, "--seed", "0", "--seconds", "0.1",
                   "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    record = json.loads(proc.stdout.splitlines()[-2])
    assert record["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert {"nproc", "cpu_model", "python", "numpy", "commit",
            "loadavg"} <= set(record["provenance"])


def test_declared_metrics_match_the_harness():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_UNITS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in WORKLOADS.values()]


def traced_counts(workload):
    metrics = run.trace(workload, 0, GOLDEN)[0]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


@pytest.mark.parametrize("name, expected", [
    # 3^3 maps on a 3-point space, 5 conditions each
    ("census", {"census.classify_map.calls": 27,
                "conditions.evaluate_condition.calls": 5 * 27}),
    # all 20*19/2 pairs of the prefix hold, so none is skipped
    ("counterexample", {"conditions.pairs_checked.strict_kannan": 190,
                        "conditions.evaluate_condition.calls": 1}),
    # 50*49/2 integer pairs in the gallery's positive-integer section
    ("integer_scan", {"completeness.gornicki.pairs_checked": 1225}),
])
def test_traced_counts_are_exact_and_repeat(name, expected):
    workload = WORKLOADS[name](smoke=True)
    counts = traced_counts(workload)
    assert {k: counts[k] for k in expected} == expected
    assert traced_counts(workload) == counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_never_changes_stdout_and_unpatches_everything(name):
    workload = WORKLOADS[name](smoke=True)
    argv = workload.argv(workload.inputs(0)[0])
    code, plain, _ = run.run_in_process(argv)
    assert code == 0
    modules = [m for n, m in sys.modules.items() if n.startswith("kannanlab")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    with Tracer().installed():
        census = sys.modules["kannanlab.census"]
        assert census.orbit is not before[("kannanlab.maps", "orbit")]
        assert census.evaluate_condition is not before[
            ("kannanlab.conditions", "evaluate_condition")]
        code, traced, _ = run.run_in_process(argv)
    assert code == 0 and traced == plain
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())


def test_golden_digest_mismatch_is_a_failure():
    workload = WORKLOADS["counterexample"](smoke=True)
    argv = workload.argv(0)
    code, stdout, _ = run.run_in_process(argv)
    assert run.check_output(workload, 0, code, stdout, GOLDEN)[0] == []
    problems = run.check_output(workload, 0, code, stdout,
                                {" ".join(argv): "0" * 64})[0]
    assert problems == ["stdout sha256 differs from the golden digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = harness("--workload", "census", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

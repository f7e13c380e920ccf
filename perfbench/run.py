"""kannanlab benchmark: end-to-end CLI timings, or a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload census --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --workload census --seed 0 --seconds 1 --trace 0 --smoke

``--trace 0`` runs the real CLI (``python3 -m kannanlab.cli``) as one
serial child at a time, in rounds.  A round is one CLI invocation on the
round's input, checked, then one in-process call of the layer entry on
the same input (tracing off), checked.  Rounds cycle through the inputs
the seed selects and stop, at a whole cycle, once another cycle would
overrun ``--seconds``; at least two rounds run.  Before them, a discarded
smoke-size invocation absorbs ``.pyc`` compilation, and the set-up child
(``setup_inputs.py``) runs several times.

``--trace 1`` runs the CLI in process twice on the seed's first input,
untraced and then traced (see ``tracer.py``), and reports per-layer
counts and times.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records provenance, every
sample, ``error_rate`` and any problem found.  ``--smoke`` runs the same
code at tiny sizes in a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}
SETUP_REPS = 9
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(argv: list[str]) -> dict:
    """Run one command to exit with its output drained, through spawn.py:
    wall time from spawn to exit, exit code, and the command's own peak
    RSS from os.wait4 (not RUSAGE_CHILDREN)."""
    report_r, report_w = os.pipe()
    proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py"), str(report_w), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=(report_w,), env=child_env(), cwd=ROOT,
                            start_new_session=True)
    os.close(report_w)
    # the new session holds spawn.py and the command: a hang kills both
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with os.fdopen(report_r, "rb") as fh:
        raw = fh.read()
    report = json.loads(raw) if raw else {"wall_s": None, "peak_rss_mb": None,
                                          "code": proc.returncode}
    return {**report, "stdout": out, "stderr": err.decode(errors="replace")}


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "kannanlab.cli", *args]


def check_output(workload, key, code, stdout: bytes, golden: dict):
    """Problems with one invocation's exit code and stdout, and the parsed
    document.  A recorded digest must match; the invariants always apply."""
    problems = [] if code == 0 else [f"exit code {code}"]
    expected = golden.get(" ".join(workload.argv(key)))
    if expected is not None and hashlib.sha256(stdout).hexdigest() != expected:
        problems.append("stdout sha256 differs from the golden digest")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"], None
    return problems + workload.check(doc, key), doc


def schema_problems(workload, doc) -> list[str]:
    import jsonschema
    from workloads import load_schema
    try:
        jsonschema.validate(workload.schema_doc(doc), load_schema(workload))
    except jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    return []


class Tally:
    """Attempted and failed operations, with what went wrong."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def measure(workload, warmup, seed: int, seconds: float, golden: dict):
    keys = workload.inputs(seed)
    tally = Tally()
    samples = {name: [] for name in END_TO_END_UNITS}

    run_child(cli_argv(warmup.argv(keys[0])))  # discarded: .pyc compilation

    for i in range(SETUP_REPS):
        key = keys[i % len(keys)]
        child = run_child([sys.executable, str(HERE / "setup_inputs.py"),
                           workload.name, str(key), str(workload.size)])
        ok = tally.record(f"setup {key}", [] if child["code"] == 0 else
                          [f"exit code {child['code']}: {child['stderr'][-500:]}"])
        if ok:
            samples["setup_s"].append(child["wall_s"])

    schema_stdout = None  # validated after the rounds, off the timed path
    start = perf_counter()
    rounds = 0
    while True:
        key = keys[rounds % len(keys)]
        args = workload.argv(key)
        inv = run_child(cli_argv(args))
        problems, doc = check_output(workload, key, inv["code"], inv["stdout"], golden)
        del doc
        if inv["code"] != 0:
            problems.append(inv["stderr"][-500:])
        if tally.record(" ".join(args), problems):
            samples["wall_s"].append(inv["wall_s"])
            samples["peak_rss_mb"].append(inv["peak_rss_mb"])
            if schema_stdout is None:
                schema_stdout = inv["stdout"]
        del inv

        call, items, verify = workload.library_call(key)
        gc.collect()  # every call starts from the same collector state
        t0 = perf_counter()
        result = call()
        dt = perf_counter() - t0
        if tally.record(f"library call {key}", verify(result)):
            samples["items_per_s"].append(items / dt)
        del result

        rounds += 1
        elapsed = perf_counter() - start
        cycle = elapsed / rounds * len(keys)
        if rounds >= MIN_ROUNDS and rounds % len(keys) == 0 and elapsed + cycle > seconds:
            break

    if schema_stdout is not None:
        tally.record("schema", schema_problems(workload, json.loads(schema_stdout)))

    metrics = {name: {"value": statistics.median(values) if values else None,
                      "unit": END_TO_END_UNITS[name]}
               for name, values in samples.items()}
    return metrics, tally, {"inputs": keys, "rounds": rounds, "samples": samples,
                            "sample_counts": {k: len(v) for k, v in samples.items()}}


def run_in_process(argv: list[str]):
    from kannanlab import cli
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, buf.getvalue().encode("utf-8"), perf_counter() - t0


def trace(workload, seed: int, golden: dict):
    from tracer import Tracer
    key = workload.inputs(seed)[0]
    args = workload.argv(key)
    tally = Tally()

    code, plain, plain_s = run_in_process(args)
    tally.record("untraced " + " ".join(args),
                 check_output(workload, key, code, plain, golden)[0])

    tracer = Tracer()
    with tracer.installed():
        code, traced, traced_s = run_in_process(args)
    problems = check_output(workload, key, code, traced, golden)[0]
    if traced != plain:
        problems.append("traced stdout differs from untraced stdout")
    tally.record("traced " + " ".join(args), problems)

    metrics = tracer.metrics(stdout_bytes=len(traced), overhead_ratio=traced_s / plain_s)
    return metrics, tally, {"input": key, "untraced_s": plain_s, "traced_s": traced_s}


def provenance() -> dict:
    import numpy
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git.stdout.strip() if git.returncode == 0 else None,
            "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness, measures nothing useful")
    args = parser.parse_args(argv)

    if not (SRC / "kannanlab" / "cli.py").is_file():
        print(f"error: no kannanlab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kannanlab
    if SRC not in Path(kannanlab.__file__).resolve().parents:
        print(f"error: kannanlab was imported from {kannanlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload, warmup = cls(smoke=args.smoke), cls(smoke=True)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "provenance": provenance()}

    if args.trace:
        metrics, tally, detail = trace(workload, args.seed, golden)
    else:
        metrics, tally, detail = measure(workload, warmup, args.seed, args.seconds, golden)
    correct = tally.failed == 0 and all(m["value"] is not None for m in metrics.values())

    record.update(detail)
    record["loadavg_end"] = list(os.getloadavg())
    record["error_rate"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
    record["problems"] = tally.problems
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

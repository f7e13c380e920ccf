"""The benchmark's three workloads: CLI arguments, inputs, and checks.

Each workload is one `kannanlab` subcommand at a fixed size.  It knows
the inputs a seed selects, the argument vector of one invocation, the
semantic invariants its stdout must satisfy, and the library entry call
whose throughput is ``items_per_s``.  A ``smoke`` workload runs the same
code paths at tiny sizes.
"""

from __future__ import annotations

import json
from pathlib import Path

from setup_inputs import build_inputs

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "kannanlab" / "schemas"


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


class Workload:
    name: str
    why: str
    schema: str  # file name under SCHEMA_DIR

    def __init__(self, smoke: bool):
        self.size = self.SMOKE_SIZE if smoke else self.SIZE

    def inputs(self, seed: int) -> list[int]:
        """Input keys a seed selects; rounds cycle through them in order."""
        return [seed]

    def argv(self, key: int) -> list[str]:
        raise NotImplementedError

    def check(self, doc: dict, key: int) -> list[str]:
        """Semantic invariants of one parsed stdout; returns the problems."""
        raise NotImplementedError

    def schema_doc(self, doc: dict) -> dict:
        """The part of the stdout document the schema describes."""
        return doc

    def library_call(self, key: int):
        """(call, items, verify): call() runs the layer entry with inputs
        already built; verify(result) returns the problems it finds."""
        raise NotImplementedError


class Census(Workload):
    name = "census"
    why = ("brute-force oracle: all 46,656 self-maps of three seeded 6-point "
           "spaces under 5 conditions, early-exit pair scans, JSON rendering")
    schema = "census_report.schema.json"
    SIZE, SMOKE_SIZE = 6, 3

    def inputs(self, seed):
        # three spaces per seed: one space's census time varies by about
        # 9% (sd) from space to space; three cut the seed-to-seed spread
        # of a run's medians by a factor of sqrt(3)
        return [3 * seed, 3 * seed + 1, 3 * seed + 2]

    def argv(self, key):
        return ["census", "--size", str(self.size), "--seed", str(key),
                "--mode", "band", "--format", "json"]

    def check(self, doc, key):
        problems = []
        rows = doc.get("rows", [])
        if len(rows) != self.size ** self.size:
            problems.append(f"{len(rows)} rows, expected {self.size ** self.size}")
        if doc.get("config", {}).get("seed") != key:
            problems.append("config does not record the seed")
        for row in rows:
            if row["satisfies"].get("strict_kannan") and not (
                    row["fixed_point_count"] == 1 and row["converges"]):
                problems.append(f"strict_kannan row {row['map_id']} lacks a "
                                "unique attracting fixed point")
                break
        return problems

    def library_call(self, key):
        from kannanlab import enumerate_census
        space, conditions = build_inputs(self.name, key, self.size)
        total = self.size ** self.size

        def verify(rows):
            return [] if len(rows) == total else [f"{len(rows)} rows, expected {total}"]

        return (lambda: enumerate_census(space, conditions)), total, verify


class IntegerScan(Workload):
    name = "integer_scan"
    why = ("the 49,995,000-pair positive-integer scan at N=10^4 (numpy int64 "
           "gcd kernel); too small to reach the int64 overflow near N=26.7k")
    schema = "gallery_report.schema.json"
    SIZE, SMOKE_SIZE = 10_000, 50

    def argv(self, key):
        argv = ["gallery", "--format", "json", "--gornicki-n", str(self.size)]
        return argv if self.size == self.SIZE else argv + ["--prefix", "20"]

    def check(self, doc, key):
        problems = [] if doc.get("ok") is True else ["gallery reports ok=false"]
        answer = next((s["details"] for s in doc.get("sections", [])
                       if s.get("name") == "gornicki_answer"), {})
        if answer.get("pairs_checked") != _pairs(self.size):
            problems.append(f"gornicki pairs_checked {answer.get('pairs_checked')}, "
                            f"expected {_pairs(self.size)}")
        return problems

    def library_call(self, key):
        from kannanlab import verify_gornicki_answer
        n = self.size

        def verify(report):
            if report.ok and report.pairs_checked == _pairs(n):
                return []
            return [f"verify_gornicki_answer({n}): ok={report.ok}, "
                    f"pairs_checked={report.pairs_checked}"]

        return (lambda: verify_gornicki_answer(n)), _pairs(n), verify


class Counterexample(Workload):
    name = "counterexample"
    why = ("one full strict-Kannan scan (no early exit) over 179,700 exact "
           "Fraction pairs of the reciprocal set, plus the target gallop")
    schema = "counterexample_report.schema.json"
    SIZE, SMOKE_SIZE = 600, 20

    def argv(self, key):
        scan = 10_000 if self.size == self.SIZE else 100
        return ["counterexample", "--prefix", str(self.size), "--scan", str(scan)]

    def check(self, doc, key):
        report = doc.get("report", {})
        problems = []
        if report.get("verdict") != "holds":
            problems.append(f"verdict {report.get('verdict')!r}")
        if report.get("pairs_checked") != _pairs(self.size):
            problems.append(f"pairs_checked {report.get('pairs_checked')}, "
                            f"expected {_pairs(self.size)}")
        if report.get("fixed_point_free_scan_ok") is not True:
            problems.append("fixed-point-free scan failed")
        return problems

    def schema_doc(self, doc):
        return doc.get("report", {})

    def library_call(self, key):
        from kannanlab import verify_counterexample
        # a fresh map per call: the map caches its target indices
        cmap = build_inputs(self.name, key, self.size)
        prefix = self.size

        def verify(report):
            pairs = report.condition_report.pairs_checked
            if report.ok and pairs == _pairs(prefix):
                return []
            return [f"verify_counterexample: ok={report.ok}, pairs_checked={pairs}"]

        return (lambda: verify_counterexample(cmap, prefix)), _pairs(prefix), verify


WORKLOADS = {w.name: w for w in (Census, IntegerScan, Counterexample)}


def load_schema(workload: Workload) -> dict:
    return json.loads((SCHEMA_DIR / workload.schema).read_text(encoding="utf-8"))

"""In-process tracing of kannanlab's layers from outside the package.

The tracer wraps public functions of each package module and patches
every place the function object is bound: ``from .x import y`` copies the
name into the importing module, so patching only the defining module
would miss calls made through ``census.orbit``, ``conditions.lt_sqrt``,
``cli.evaluate_condition`` and the like.

Two kinds of wrapper:

* spans, at coarse boundaries (per ``classify_map``, per
  ``evaluate_condition``, per scan entry, per render).  They keep calls,
  total time and self time (total minus the time covered by nested spans)
  aggregated per name, plus per-call durations where a percentile is
  reported.
* counters, at sub-microsecond boundaries (``lt_sqrt``, ``dist``,
  ``check_member``, ``apply``, ``target_index``).  They record an exact
  call count and keep a sparse sample of arguments.  Their per-call cost
  is timed afterwards, outside the trace, on those sampled workload
  inputs, so the wrapper does not swamp what it measures.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (metric prefix, defining module, function name)
SPANS = [
    ("maps.orbit", "kannanlab.maps", "orbit"),
    ("conditions.evaluate_condition", "kannanlab.conditions", "evaluate_condition"),
    ("picard.run_picard", "kannanlab.picard", "run_picard"),
    ("picard.uniqueness_probe", "kannanlab.picard", "uniqueness_probe"),
    ("completeness.verify_gornicki_answer", "kannanlab.completeness",
     "verify_gornicki_answer"),
    ("completeness.verify_counterexample", "kannanlab.completeness",
     "verify_counterexample"),
    ("completeness.scan_fixed_point_free", "kannanlab.completeness",
     "scan_fixed_point_free"),
    ("census.classify_map", "kannanlab.census", "classify_map"),
    ("census.enumerate_census", "kannanlab.census", "enumerate_census"),
    ("cli.render", "kannanlab.cli", "render_json"),
    ("cli.render", "kannanlab.census", "census_csv"),
]

# (metric prefix, defining module, class whose subclasses are patched or
# None for a function, attribute name)
COUNTERS = [
    ("rationals.lt_sqrt", "kannanlab.rationals", None, "lt_sqrt"),
    ("spaces.check_member", "kannanlab.spaces", "Space", "check_member"),
    ("spaces.dist", "kannanlab.spaces", "Space", "dist"),
    ("maps.apply", "kannanlab.maps", "SelfMap", "apply"),
    ("completeness.target_index", "kannanlab.completeness", "ConstructedMap",
     "target_index"),
]

# the condition kinds of the census default set; per-kind metrics use
# the kind, because labels such as kannan_k(1/3) are not metric names
CONDITION_KINDS = ["strict_kannan", "kannan_k", "fisher", "khan", "chen_yeh"]

SAMPLE_STRIDE = 997   # keep the arguments of every 997th call ...
SAMPLE_CAP = 2000     # ... up to this many per counter

PER_LAYER_UNITS = {
    "rationals.lt_sqrt.calls": "count",
    "rationals.lt_sqrt.us_per_call": "us",
    "spaces.check_member.calls": "count",
    "spaces.check_member.per_pair": "ratio",
    "spaces.check_member.us_per_call": "us",
    "spaces.dist.calls": "count",
    "spaces.dist.us_per_call": "us",
    "maps.apply.calls": "count",
    "maps.apply.us_per_call": "us",
    "maps.orbit.calls": "count",
    "maps.orbit.self_s": "s",
    "conditions.evaluate_condition.calls": "count",
    "conditions.evaluate_condition.self_s": "s",
    **{f"conditions.pairs_checked.{k}": "count" for k in CONDITION_KINDS},
    **{f"conditions.holds_ratio.{k}": "ratio" for k in CONDITION_KINDS},
    "picard.run_picard.calls": "count",
    "picard.run_picard.self_s": "s",
    "picard.uniqueness_probe.self_s": "s",
    "completeness.verify_gornicki_answer.self_s": "s",
    "completeness.gornicki.pairs_checked": "count",
    "completeness.gornicki.pairs_per_s": "pairs/s",
    "completeness.cross_checked_pairs": "count",
    "completeness.verify_counterexample.self_s": "s",
    "completeness.target_index.calls": "count",
    "completeness.scan_fixed_point_free.self_s": "s",
    "census.classify_map.calls": "count",
    "census.classify_map.p50_us": "us",
    "census.classify_map.p99_us": "us",
    "census.enumerate_census.self_s": "s",
    "census.strict_hit_ratio": "ratio",
    "cli.render.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kannanlab" or name.startswith("kannanlab."))]


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.durations = defaultdict(list)               # span name -> per call
        self.counts = {}                                 # counter -> [calls]
        self.samples = defaultdict(list)                 # counter -> (fn, args)
        self.pairs = defaultdict(int)                    # condition kind -> pairs
        self.evaluations = defaultdict(int)
        self.holds = defaultdict(int)
        self.gornicki_pairs = 0
        self.gornicki_s = 0.0
        self.cross_checked = 0
        self.census_rows = 0
        self.census_strict = 0
        self._stack = []        # child-span time accumulated per open span
        self._patches = []      # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, keep_durations=False):
        stats, stack = self.spans[name], self._stack
        durations = self.durations[name] if keep_durations else None
        observe = self._observers().get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if durations is not None:
                    durations.append(dt)
            if observe is not None:
                observe(result, dt)
            return result
        return wrapper

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])
        samples = self.samples[name]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            n = cell[0] = cell[0] + 1
            if n % SAMPLE_STRIDE == 1 and len(samples) < SAMPLE_CAP:
                samples.append((fn, args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    def _observers(self):
        return {
            "conditions.evaluate_condition": self._on_condition_report,
            "completeness.verify_gornicki_answer": self._on_gornicki_report,
            "census.enumerate_census": self._on_census_rows,
        }

    def _on_condition_report(self, report, dt):
        kind = report.condition.kind
        self.evaluations[kind] += 1
        self.pairs[kind] += report.pairs_checked
        self.holds[kind] += bool(report.holds)

    def _on_gornicki_report(self, report, dt):
        self.gornicki_pairs += report.pairs_checked
        self.gornicki_s += dt
        self.cross_checked += report.cross_checked_pairs

    def _on_census_rows(self, rows, dt):
        self.census_rows += len(rows)
        self.census_strict += sum(1 for r in rows
                                  if dict(r.satisfies).get("strict_kannan"))

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        for name, module_name, attr in SPANS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if callable(original):
                self._replace_everywhere(
                    original, self._span(name, original,
                                         keep_durations=name == "census.classify_map"))
        for name, module_name, base_name, attr in COUNTERS:
            module = sys.modules.get(module_name)
            if base_name is None:
                original = getattr(module, attr, None)
                if callable(original):
                    self._replace_everywhere(original, self._counter(name, original))
                continue
            base = getattr(module, base_name, None)
            for cls in _subclasses(base):
                if attr in vars(cls):
                    original = vars(cls)[attr]
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, self._counter(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def micro_us_per_call(self, name, repeats=5, min_pass_s=0.02):
        """Median per-call cost in microseconds of the unwrapped function on
        the sampled arguments; 0 when the workload never called it."""
        calls = self.samples.get(name)
        if not calls:
            return 0.0
        def one_pass(loops):
            t0 = perf_counter()
            for _ in range(loops):
                for fn, args, kwargs in calls:
                    fn(*args, **kwargs)
            return perf_counter() - t0

        loops = 1
        while one_pass(loops) < min_pass_s:
            loops *= 2
        per_call = [one_pass(loops) / (loops * len(calls)) for _ in range(repeats)]
        return statistics.median(per_call) * 1e6

    def metrics(self, stdout_bytes: int, overhead_ratio: float) -> dict:
        calls = {name: cell[0] for name, cell in self.counts.items()}
        spans = self.spans
        total_pairs = sum(self.pairs.values())
        classify = sorted(self.durations["census.classify_map"])
        values = {
            "spaces.check_member.per_pair": (calls.get("spaces.check_member", 0)
                                             / total_pairs if total_pairs else 0.0),
            "completeness.gornicki.pairs_checked": self.gornicki_pairs,
            "completeness.gornicki.pairs_per_s": (self.gornicki_pairs / self.gornicki_s
                                                  if self.gornicki_s else 0.0),
            "completeness.cross_checked_pairs": self.cross_checked,
            # a tail percentile is reported only with >= 10 samples beyond it
            "census.classify_map.p50_us": _percentile(classify, 0.50) * 1e6,
            "census.classify_map.p99_us": (_percentile(classify, 0.99) * 1e6
                                           if len(classify) >= 1000 else 0.0),
            "census.strict_hit_ratio": (self.census_strict / self.census_rows
                                        if self.census_rows else 0.0),
            "cli.stdout_bytes": stdout_bytes,
            "trace.overhead_ratio": overhead_ratio,
        }
        for name, unit in PER_LAYER_UNITS.items():
            if name in values:
                continue
            prefix, _, field = name.rpartition(".")
            if prefix.startswith("conditions.pairs_checked"):
                values[name] = self.pairs[field]
            elif prefix.startswith("conditions.holds_ratio"):
                n = self.evaluations[field]
                values[name] = self.holds[field] / n if n else 0.0
            elif field == "calls":
                values[name] = calls.get(prefix, spans[prefix][0] if prefix in spans else 0)
            elif field == "self_s":
                values[name] = spans[prefix][2] if prefix in spans else 0.0
            elif field == "us_per_call":
                values[name] = self.micro_us_per_call(prefix)
            else:
                raise KeyError(f"no rule computes {name}")
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}


def _subclasses(base):
    if not isinstance(base, type):
        return []
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]

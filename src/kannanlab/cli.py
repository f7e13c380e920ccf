"""Command-line surface: gallery | check | iterate | census | counterexample.

Output is machine-first and reproducible: identical configs give
byte-identical output (all randomness is seeded, all arithmetic exact,
JSON keys sorted), and every run embeds its own config.  Exit codes are a
contract for scripting:

    0  verdicts as expected
    1  a verdict differed from the expectation (--expect, gallery items)
    2  configuration/parse error
    3  membership or closure error (a point outside its space)
    4  theorem contradiction from the oracle or a cross-check (defect, loud)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from typing import Iterable

from .rationals import parse_scalar, scalar_text
from .spaces import (ClosureError, FiniteSpace, HalfLineUsual, MembershipError,
                     SplitSet, UnitIntervalRight, load_space, split_set_sample)
from .maps import PiecewiseDrop, Scale, StairScale, Truncated, load_map, orbit, orbit_cluster_probe
from .conditions import (EXHAUSTIVE, StrictKannan, evaluate_condition,
                         load_condition, sample_pairs)
from .picard import orbit_trace_csv, run_picard, uniqueness_probe, verify_fixed_point
from .completeness import (build_reciprocal_witness, check_gornicki_n,
                           construct_counterexample_map, scan_fixed_point_free,
                           verify_counterexample, verify_gornicki_answer)
from .census import (TheoremContradictionError, enumerate_census, random_finite_space,
                     render_census)


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _human_lines(obj, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines += _human_lines(value, indent + 1)
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, dict):
                lines += _human_lines(value, indent)
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _render(result: dict, fmt: str) -> str:
    """The result as a JSON document, or as indented human-readable lines."""
    if fmt == "json":
        return render_json(result)
    return "\n".join(_human_lines(result)) + "\n"


def _load_json_arg(text: str):
    """Inline JSON if it looks like JSON, otherwise a file path."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        return json.loads(stripped)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_point(space, text: str):
    if isinstance(space, FiniteSpace):
        return space.check_member(text)
    return space.check_member(parse_scalar(text))


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def build_gallery(gornicki_n: int, prefix: int) -> dict:
    """Run every catalog example end to end and collect verdicts."""
    # refuse a bad size before any section runs: verify_counterexample
    # refuses its prefix before its first row
    check_gornicki_n(gornicki_n)
    witness = build_reciprocal_witness()
    cmap = construct_counterexample_map(witness)
    verification = verify_counterexample(cmap, prefix)
    sections = []

    half_line = HalfLineUsual()
    stair = StairScale(half_line)
    o_stair = orbit(stair, Fraction(3, 2), horizon=64)
    probe_stair = orbit_cluster_probe(o_stair, Fraction(1, 10))
    doubling = Scale(half_line, 2)
    o_double = orbit(doubling, Fraction(1), horizon=10)
    probe_double = orbit_cluster_probe(o_double, Fraction(1, 2))
    sections.append({
        "name": "orbit_probes",
        "ok": (probe_stair.clustered and not probe_double.clustered
               and isinstance(o_double.status, Truncated)),
        "details": {
            "stair_scale_clustered": probe_stair.clustered,
            "stair_scale_diameter": scalar_text(probe_stair.max_pairwise),
            "doubling_clustered": probe_double.clustered,
            "doubling_diameter": scalar_text(probe_double.max_pairwise),
        },
    })

    unit = UnitIntervalRight()
    halving = Scale(unit, Fraction(1, 2))
    run = run_picard(unit, halving, Fraction(1, 2), horizon=20)
    gaps = run.orbit.gaps
    halving_exact = all(gaps[i] * 2 == gaps[i - 1] for i in range(1, len(gaps)))
    sections.append({
        "name": "incomplete_interval_iteration",
        "ok": (isinstance(run.orbit.status, Truncated) and run.gap_monotone
               and halving_exact and unit.complete is False
               and run.fixed_point is None),
        "details": {
            "status": "truncated",
            "gaps_halve_exactly": halving_exact,
            "last_gap": scalar_text(run.gap_limit_evidence),
            "cauchy_evidence": scalar_text(run.cauchy_evidence),
            "space_complete": unit.complete,
        },
    })

    split = SplitSet()
    drop = PiecewiseDrop(split)
    sample = split_set_sample(200)
    report = evaluate_condition(StrictKannan(), split, drop, sample_pairs(sample))
    fixed = uniqueness_probe(split, drop, sample)
    from_two = run_picard(split, drop, Fraction(2), horizon=8)
    check_zero = verify_fixed_point(split, drop, Fraction(0))
    status = from_two.orbit.status
    steps_from_two = status.at + 1 if hasattr(status, "at") else None
    sections.append({
        "name": "split_set_drop",
        "ok": (report.holds and fixed == [Fraction(0)] and check_zero.is_fixed
               and from_two.fixed_point == Fraction(0)
               and steps_from_two is not None and steps_from_two <= 3),
        "details": {
            "strict_condition": "holds" if report.holds else "violated",
            "pairs_checked": report.pairs_checked,
            "fixed_points_in_sample": [scalar_text(p) for p in fixed],
            "steps_from_2": steps_from_two,
        },
    })

    answer = verify_gornicki_answer(gornicki_n)
    sections.append({
        "name": "gornicki_answer",
        "ok": answer.ok,
        "details": answer.to_json(),
    })

    scan_count = 10_000
    fixed_free_scan = scan_fixed_point_free(cmap, scan_count)
    sections.append({
        "name": "reciprocal_counterexample",
        "ok": (verification.ok and fixed_free_scan
               and cmap.target_index(1) == 5 and cmap.target_index(2) == 13),
        "details": {
            "prefix": prefix,
            "pairs_checked": verification.condition_report.pairs_checked,
            "strict_condition": ("holds" if verification.condition_report.holds
                                 else "violated"),
            "first_targets": [[1, cmap.target_index(1)], [2, cmap.target_index(2)]],
            "fixed_point_free_first": scan_count,
        },
    })

    return {
        "config": {"command": "gallery", "gornicki_n": gornicki_n,
                   "prefix": prefix},
        "sections": sections,
        "ok": all(s["ok"] for s in sections),
    }


def cmd_gallery(args) -> tuple[int, Iterable[str]]:
    result = build_gallery(args.gornicki_n, args.prefix)
    if args.format == "json":
        text = render_json(result)
    else:
        lines = ["gallery run", ""]
        for section in result["sections"]:
            mark = "ok" if section["ok"] else "FAIL"
            lines.append(f"[{mark}] {section['name']}")
            lines += _human_lines(section["details"], indent=1)
            lines.append("")
        lines.append(f"overall: {'ok' if result['ok'] else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    if not result["ok"]:
        failing = next(s["name"] for s in result["sections"] if not s["ok"])
        print(f"gallery: first failing section: {failing}", file=sys.stderr)
        return 1, [text]
    return 0, [text]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _resolve_pairs_arg(space, pairs_arg):
    if pairs_arg is None or pairs_arg == "exhaustive":
        return EXHAUSTIVE
    raw = _load_json_arg(pairs_arg)
    if not (isinstance(raw, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in raw)):
        raise ValueError("--pairs must be a JSON list of [x, y] pairs")
    return tuple((_pair_point(space, x), _pair_point(space, y)) for x, y in raw)


def _pair_point(space, value):
    """A --pairs point: a JSON string or integer, never a float or bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"--pairs points must be JSON strings or integers, "
                         f"not {json.dumps(value)}")
    return _parse_point(space, str(value))


def cmd_check(args) -> tuple[int, Iterable[str]]:
    space = load_space(_load_json_arg(args.space))
    mapping = load_map(_load_json_arg(args.map), space)
    condition = load_condition(_load_json_arg(args.condition))
    pairs = _resolve_pairs_arg(space, args.pairs)
    report = evaluate_condition(condition, space, mapping, pairs)
    result = {
        "config": {"command": "check", "space": space.to_json(),
                   "map": mapping.to_json(), "condition": condition.to_json(),
                   "pairs": args.pairs or "exhaustive",
                   "expect": args.expect},
        "report": report.to_json(),
    }
    text = _render(result, args.format)
    if args.expect is not None:
        got = "holds" if report.holds else "violated"
        if got != args.expect:
            print(f"check: expected {args.expect}, got {got}", file=sys.stderr)
            return 1, [text]
    return 0, [text]


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------

def cmd_iterate(args) -> tuple[int, Iterable[str]]:
    space = load_space(_load_json_arg(args.space))
    mapping = load_map(_load_json_arg(args.map), space)
    x0 = _parse_point(space, args.x0)
    run = run_picard(space, mapping, x0, horizon=args.horizon)
    config = {"command": "iterate", "space": space.to_json(),
              "map": mapping.to_json(), "x0": args.x0, "horizon": args.horizon}
    if args.format == "csv":
        return 0, ["# " + json.dumps(config, sort_keys=True) + "\n", orbit_trace_csv(run.orbit)]
    return 0, [_render({"config": config, "run": run.to_json()}, args.format)]


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

_DEFAULT_CENSUS_CONDITIONS = [
    {"kind": "strict_kannan"},
    {"kind": "kannan_k", "k": "1/3"},
    {"kind": "fisher"},
    {"kind": "khan"},
    {"kind": "chen_yeh", "a": "0", "b": "0"},
]


def cmd_census(args) -> tuple[int, Iterable[str]]:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, not {args.workers}")
    space = random_finite_space(args.size, args.seed, mode=args.mode)
    condition_spec = (_load_json_arg(args.conditions)
                      if args.conditions else _DEFAULT_CENSUS_CONDITIONS)
    census = enumerate_census(space, [load_condition(c) for c in condition_spec])
    # the embedded config holds exactly what determines the rows
    config = {"command": "census", "size": args.size, "seed": args.seed,
              "mode": args.mode, "conditions": condition_spec}
    return 0, render_census(census, config, args.format)


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------

def cmd_counterexample(args) -> tuple[int, Iterable[str]]:
    witness = build_reciprocal_witness()
    cmap = construct_counterexample_map(witness)
    # the cheap index-rule scan refuses a bad --scan before any prefix pair
    fixed_free = scan_fixed_point_free(cmap, args.scan)
    verification = verify_counterexample(cmap, args.prefix)
    config = {"command": "counterexample", "prefix": args.prefix,
              "scan": args.scan}
    report = verification.to_json()
    report["fixed_point_free_scanned"] = args.scan
    report["fixed_point_free_scan_ok"] = fixed_free
    text = _render({"config": config, "report": report}, args.format)
    if not (verification.ok and fixed_free):
        print("counterexample: verification failed", file=sys.stderr)
        return 1, [text]
    return 0, [text]


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kannanlab",
        description="exact fixed-point laboratory for Kannan-type contractive maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gallery", help="run every catalog example end to end")
    p.add_argument("--gornicki-n", type=int, default=1000,
                   help="exhaustive bound for the positive-integer check")
    p.add_argument("--prefix", type=int, default=200,
                   help="sequence prefix for the counterexample verification")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("check", help="evaluate a contractive condition on a pair set")
    p.add_argument("--space", required=True, help="space JSON (inline or file path)")
    p.add_argument("--map", required=True, help="map JSON (inline or file path)")
    p.add_argument("--condition", required=True, help="condition JSON")
    p.add_argument("--pairs", help="'exhaustive' or JSON list of [x, y] point pairs")
    p.add_argument("--expect", choices=["holds", "violated"])
    p.add_argument("--format", choices=["json", "human"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("iterate", help="Picard iteration with diagnostics")
    p.add_argument("--space", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--x0", required=True, help="start point (Scalar text or label)")
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--format", choices=["json", "csv", "human"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("census", help="enumerate and classify all self-maps")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["band", "line"], default="band")
    p.add_argument("--conditions", help="JSON list of condition definitions")
    p.add_argument("--workers", type=int, default=1,
                   help="at least 1; has no effect and no upper bound, as the "
                        "census runs serially and starts no process")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("counterexample",
                       help="build and verify the fixed-point-free tail map")
    p.add_argument("--prefix", type=int, default=200)
    p.add_argument("--scan", type=int, default=10_000,
                   help="how many leading terms to scan for fixed points")
    p.add_argument("--format", choices=["json", "human"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, parts = args.func(args)
    except (MembershipError, ClosureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TheoremContradictionError as exc:
        print(f"THEOREM CONTRADICTION (implementation defect): {exc}",
              file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        with (open(args.out, "w", encoding="utf-8", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as out:
            out.writelines(parts)
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Mutation check of the tier-1 suite: does some test notice each wrong line?

Usage, from anywhere:

    python3 mutation/run.py               # every mutant
    python3 mutation/run.py --only 50,51  # just these, numbered as printed

For each entry of ``MUTANTS`` the tree is copied (without ``.git``) to a
temporary directory, the one text change is applied there, and tier-1
runs on the copy with ``-x``.  A mutant is *killed* when the suite fails
(the first failing test is named) and *survives* when it passes.  An
equivalent mutant carries a proof that it cannot change any verdict; it is
reported apart from the others, and is expected to survive.

Exit status 0 when every non-equivalent mutant run is killed and every
equivalent one survives, 1 otherwise, and 2 for a number that names no
mutant.  Standard library only; each mutant costs one tier-1 run (about
a minute for a survivor on 2 cores).
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text, equivalence proof or None); each old text
# occurs exactly once in its file (tests/test_mutation_list.py checks it).
MUTANTS = [
    ("src/kannanlab/conditions.py",
     "        return lhs <= rhs, lhs, rhs",
     "        return lhs < rhs, lhs, rhs", None),
    ("src/kannanlab/conditions.py",
     "        rhs = (d(x, tx) + d(y, ty)) / 2\n        return lhs < rhs",
     "        rhs = (d(x, tx) + d(y, ty)) / 2\n        return lhs <= rhs", None),
    ("src/kannanlab/conditions.py",
     "        rhs = (d(x, tx) + d(y, ty)) / 2",
     "        rhs = (d(x, tx) + d(y, tx)) / 2", None),
    ("src/kannanlab/conditions.py",
     "        rhs = (d(x, ty) + d(y, tx)) / 2\n        return lhs < rhs",
     "        rhs = (d(x, ty) + d(y, tx)) / 2\n        return lhs <= rhs", None),
    ("src/kannanlab/conditions.py",
     "        rhs = (d(x, ty) + d(y, tx)) / 2",
     "        rhs = (d(x, ty) + d(y, ty)) / 2", None),
    ("src/kannanlab/rationals.py",
     "    return a * a < u",
     "    return a * a <= u", None),
    ("src/kannanlab/conditions.py",
     "            dxy,",
     "            dxtx,", None),
    ("src/kannanlab/conditions.py",
     "            a * dxty * dytx,",
     "            0 * dxty * dytx,", None),
    ("src/kannanlab/conditions.py",
     "            holds = lt_sqrt(lhs / b, dxty * dytx)",
     "            pass", None),
    ("src/kannanlab/conditions.py",
     "        if not holds and b > 0:",
     "        if not holds and b > 1:",
     "for 0 < b <= 1, b*sqrt(d(x,Ty)d(y,Tx)) <= sqrt(d(x,Ty)d(y,Tx)) <= "
     "(d(x,Ty)+d(y,Tx))/2 by AM-GM, and lhs has already reached that "
     "Fisher mean, so the skipped b term could only have been False"),
    ("src/kannanlab/census.py",
     "    fixed = sum(1 for l in space.labels if tm.assign[l] == l)",
     "    fixed = sum(1 for l in space.labels[1:] if tm.assign[l] == l)", None),
    ("src/kannanlab/conditions.py",
     "        for x, y in pair_list:",
     "        for x, y in pair_list[:-1]:", None),
    ("src/kannanlab/census.py",
     "        if holds and cond.picard_converges and not attracts:",
     "        if holds and False and not attracts:", None),
    ("src/kannanlab/completeness.py",
     "    strict = lhs < rhs",
     "    strict = lhs <= rhs",
     "over the common denominator 6xy, rhs - lhs = 2(3xy+x+y) - 2(3xy+y-x) "
     "= 4x > 0 for x < y, i.e. a margin of 2/(3y); the rows form every "
     "value exactly in both dtypes, int32 up to _INT32_SAFE_N and int64 up "
     "to _VECTOR_SAFE_N, as none passes _largest_intermediate(n), so the 4x "
     "margin holds on both, lhs == rhs never occurs and < and <= agree on "
     "every pair"),
    ("src/kannanlab/conditions.py",
     "        if isinstance(m, bool) or not isinstance(m, (int, str)):",
     "        if not isinstance(m, (int, str)):", None),
    ("src/kannanlab/rationals.py",
     "    except TypeError as exc:\n        raise ValueError(str(exc)) from None",
     "    except KeyError as exc:\n        raise ValueError(str(exc)) from None", None),
    ("src/kannanlab/cli.py",
     "    fixed_free = scan_fixed_point_free(cmap, args.scan)\n"
     "    verification = verify_counterexample(cmap, args.prefix)\n",
     "    verification = verify_counterexample(cmap, args.prefix)\n"
     "    fixed_free = scan_fixed_point_free(cmap, args.scan)\n", None),
    ("src/kannanlab/census.py",
     "            limit = o.points[-1] if isinstance(o.status, FixedPointReached) else None",
     "            limit = o.points[-1]", None),
    ("src/kannanlab/census.py",
     "    weight = space.size ** (space.size - 2)",
     "    weight = space.size ** (space.size - 1)", None),
    ("src/kannanlab/census.py",
     "            ratio = lhs / rhs",
     "            ratio = lhs / rhs / 2", None),
    ("src/kannanlab/completeness.py",
     "    return ((f > c)",
     "    return ((f >= c)", None),
    ("src/kannanlab/completeness.py",
     "            | ((f == c) & ((r1 > 0) | (r2 > 0)))",
     "            | (f == c)", None),
    ("src/kannanlab/completeness.py",
     "            | ((f == c - 1) & (r1 * b + r2 * a > a * b)))",
     "            | False)", None),
    ("src/kannanlab/completeness.py",
     "    lambda k: _reciprocal_intermediate_bound(k) > np.iinfo(np.int64).max, start=1) - 1",
     "    lambda k: _reciprocal_intermediate_bound(k) > np.iinfo(np.int64).max, start=1)", None),
    ("src/kannanlab/completeness.py",
     "        return 2 * n * (n + 1) + 1",
     "        return 2 * n * (n + 1)", None),
    ("src/kannanlab/completeness.py",
     "            and (t - 1 == n0 or not w.tail_bound(t - 1) < half_gap))",
     "            )", None),
    ("src/kannanlab/completeness.py",
     "        if w.term_index(w.term(n)) != n:\n            return False\n",
     "", None),
    ("src/kannanlab/completeness.py",
     "        if not t > n0:",
     "        if not t >= n0:", None),
    ("src/kannanlab/conditions.py",
     "        if self.m > MAX_HORIZON:",
     "        if self.m >= MAX_HORIZON:", None),
    ("src/kannanlab/conditions.py",
     "        if self.m > MAX_HORIZON:",
     "        if self.m > MAX_HORIZON + 1:", None),
    ("src/kannanlab/census.py",
     "        grid &= table[x, y].reshape(",
     "        grid &= table[x, y].T.reshape(", None),
    ("src/kannanlab/census.py",
     "    U = _power(T, m)",
     "    U = _power(T, m - 1)", None),
    ("src/kannanlab/census.py",
     "        entries.append(np.where(u == v, T[rows, u] != u,",
     "        entries.append(np.where(u == v, T[rows, u] == u,", None),
    ("src/kannanlab/census.py",
     "        ends = _power(T, n - 1)",
     "        ends = _power(T, n - 2)", None),
    ("src/kannanlab/census.py",
     "        base, m = (StrictKannan(), cond.m) if isinstance(cond, IteratedKannan) else (cond, 0)",
     "        base, m = (StrictKannan(), 0) if isinstance(cond, IteratedKannan) else (cond, 0)", None),
    ("src/kannanlab/census.py",
     "        key = np.vstack([verdicts, count, converges, limit + 1]).T.astype(np.uint8, order=\"C\")",
     "        key = np.vstack([verdicts, count, converges]).T.astype(np.uint8, order=\"C\")", None),
    ("src/kannanlab/census.py",
     "        census.codes[ids] = np.array([known[shape] for shape in shapes], dtype=np.int32)[local]",
     "        census.codes[ids] = local", None),
    ("src/kannanlab/census.py",
     "        new = [j for j in np.argsort(first).tolist() if shapes[j] not in known]",
     "        new = [j for j in range(len(first)) if shapes[j] not in known]", None),
    ("src/kannanlab/census.py",
     "        if start:\n            yield separator\n",
     "", None),
    ("src/kannanlab/spaces.py",
     "    return [*range(0, total - 1, step), *range(max(0, total - 1), total)]",
     "    return [*range(0, total - 1, step)]", None),
    ("src/kannanlab/spaces.py",
     "    step = max(1, total // 1000)",
     "    step = max(1, total // 1000) + 1", None),
    ("src/kannanlab/cli.py",
     "    if not (isinstance(raw, list)\n"
     "            and all(isinstance(pair, list) and len(pair) == 2 for pair in raw)):\n"
     "        raise ValueError(\"--pairs must be a JSON list of [x, y] pairs\")\n",
     "", None),
    ("src/kannanlab/cli.py",
     "    if isinstance(value, bool) or not isinstance(value, (str, int)):",
     "    if isinstance(value, bool):", None),
    ("src/kannanlab/completeness.py",
     "        if n0 is None:",
     "        if False:", None),
    ("src/kannanlab/maps.py",
     "    if space != m.space:",
     "    if False:", None),
    ("src/kannanlab/maps.py",
     "    if horizon > MAX_HORIZON:",
     "    if horizon >= MAX_HORIZON:", None),
    ("src/kannanlab/conditions.py",
     "    if horizon > MAX_HORIZON:",
     "    if horizon >= MAX_HORIZON:", None),
    ("src/kannanlab/conditions.py",
     "    if horizon > MAX_HORIZON:",
     "    if horizon > MAX_HORIZON + 1:", None),
    ("src/kannanlab/picard.py",
     "    found = list(dict.fromkeys(fixed))",
     "    found = list(fixed)", None),
    ("src/kannanlab/completeness.py",
     "    lambda n: _largest_intermediate(n) > np.iinfo(np.int32).max, start=2) - 1",
     "    lambda n: _largest_intermediate(n) > np.iinfo(np.int32).max, start=2)", None),
    ("src/kannanlab/completeness.py",
     "np.int32 if n <= _INT32_SAFE_N else np.int64",
     "np.int32 if n <= _INT32_SAFE_N + 1 else np.int64", None),
    ("src/kannanlab/census.py",
     "    for x, y in itertools.combinations(range(n), 2):\n        grid &=",
     "    for x, y in itertools.combinations(range(n - 1), 2):\n        grid &=", None),
]

# tests/test_mutation_list.py checks the list against the unmutated tree,
# which a mutated copy differs from by construction
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutation_list.py"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".benchmarks")


def first_failure(file: str, old: str, new: str):
    """Run tier-1 on a mutated copy: the first failing test, or None."""
    with tempfile.TemporaryDirectory(prefix="kannanlab-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        path = tree / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{file}: the mutant's old text occurs "
                             f"{text.count(old)} times, not once: {old!r}")
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return found.group(1) if found else f"pytest exit {proc.returncode}"


def describe(file: str, old: str, new: str) -> str:
    """file:line of the first line a mutant changes, and that change."""
    text = (ROOT / file).read_text(encoding="utf-8")
    line = text[:text.index(old)].count("\n") + 1
    pairs = zip(old.splitlines(), new.splitlines() or ["(deleted)"])
    offset, (before, after) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    return f"{file}:{line + offset}  {before.strip()!r} -> {after.strip()!r}"


def mutant_numbers(text: str) -> list[int]:
    """Parse "N,M,...": distinct mutant numbers, 1-based as printed, ascending."""
    try:
        numbers = sorted({int(part) for part in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None
    unknown = [n for n in numbers if not 1 <= n <= len(MUTANTS)]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"no mutant numbered {unknown[0]}; they run from 1 to {len(MUTANTS)}")
    return numbers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Mutation check of the tier-1 suite.")
    parser.add_argument("--only", type=mutant_numbers, metavar="N,M",
                        default=range(1, len(MUTANTS) + 1),
                        help="run only the mutants with these numbers")
    args = parser.parse_args(argv)
    rows = []
    for number in args.only:
        file, old, new, proof = MUTANTS[number - 1]
        start = time.perf_counter()
        failure = first_failure(file, old, new)
        seconds = time.perf_counter() - start
        status = "survived" if failure is None else f"killed by {failure}"
        print(f"{number:2d}  {describe(file, old, new)}\n    {status}  ({seconds:.0f} s)",
              flush=True)
        rows.append((number, proof, failure))

    killed = [n for n, proof, failure in rows if proof is None and failure]
    survived = [n for n, proof, failure in rows if proof is None and not failure]
    equivalent = [(n, proof, failure) for n, proof, failure in rows if proof]
    print(f"\nkilled {len(killed)}, survived {len(survived)} {survived}, "
          f"equivalent {len(equivalent)}")
    for n, proof, failure in equivalent:
        verdict = "survived" if failure is None else f"KILLED by {failure}: recheck the proof"
        print(f"  equivalent {n}: {verdict}\n    proof: {proof}")
    return 1 if survived or any(failure for _, _, failure in equivalent) else 0


if __name__ == "__main__":
    sys.exit(main())

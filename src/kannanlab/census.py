"""Brute-force ground truth on finite spaces.

A finite metric space is compact, so every fixed-point theorem in the
condition catalog applies there unconditionally.  That turns exhaustive
enumeration of all |X|^|X| self-maps into an oracle: classify every map
against every condition, count fixed points by direct scan, iterate from
every start, and demand that no strictly-Kannan map ever disagrees with
the theorems (unique fixed point, global convergence).  A single
disagreement is not a test failure to shrug at — it contradicts a proved
theorem and therefore means the implementation is broken; it raises
:class:`TheoremContradictionError` and stops the build.

Each distinct thing is computed once.  A pair-local verdict is decided
once per (pair, Tx, Ty), in the census and both side scans alike, and
stands for the n^(n-2) maps that agree on the pair; the pair list is
built once per space; and an orbit runs only from a start no earlier
orbit of the same map visited, since every point it visits shares its fate.

Map ids are base-|X| encodings of the assignment vector, enumerated in
numeric order, so censuses are reproducible.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .conditions import (EXHAUSTIVE, Condition, StrictKannan,
                         evaluate_condition)
from .maps import FixedPointReached, TableMap, orbit
from .rationals import lt_sqrt
from .spaces import FiniteSpace, TheoremContradictionError

MAX_CENSUS_MAPS = 10 ** 7
# the largest space size whose n^n self-maps stay within the cap
MAX_CENSUS_SIZE = next(n for n in itertools.count(2)
                       if (n + 1) ** (n + 1) > MAX_CENSUS_MAPS)


# ---------------------------------------------------------------------------
# Space generators
# ---------------------------------------------------------------------------

def random_finite_space(n: int, seed: int, mode: str = "band") -> FiniteSpace:
    """Deterministic random finite space with guaranteed metric axioms.

    ``band`` draws off-diagonal distances as small-denominator rationals
    in [1, 2], where the triangle inequality is automatic (1 + 1 >= 2).
    ``line`` places points at increasing rationals on a line and uses
    absolute differences — more metric diversity, triangle inequality by
    collinearity.  Same (n, seed, mode) always gives the same space.
    """
    if not (2 <= n <= MAX_CENSUS_SIZE):
        raise ValueError(f"census spaces support sizes 2..{MAX_CENSUS_SIZE}")
    if mode not in ("band", "line"):
        raise ValueError(f"unknown generator mode {mode!r}")
    rng = random.Random(f"{mode}-{n}-{seed}")  # str seeding is hash-stable
    labels = tuple(f"p{i}" for i in range(n))
    if mode == "band":
        d = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                den = rng.randint(1, 6)
                num = rng.randint(0, den)
                d[i][j] = d[j][i] = 1 + Fraction(num, den)
    else:
        values = [Fraction(0)]
        for _ in range(n - 1):
            den = rng.randint(1, 6)
            num = rng.randint(1, den)
            values.append(values[-1] + Fraction(num, den))
        d = [[abs(values[i] - values[j]) for j in range(n)] for i in range(n)]
    return FiniteSpace(labels=labels, matrix=tuple(tuple(row) for row in d))


# ---------------------------------------------------------------------------
# Map enumeration
# ---------------------------------------------------------------------------

def map_id_string(map_id: int, n: int) -> str:
    """Base-n digit string of the assignment vector (labels[i] -> digit i)."""
    digits = []
    for i in range(n):
        digits.append(str((map_id // n ** (n - 1 - i)) % n))
    return "".join(digits)


def map_from_id(space: FiniteSpace, map_id: int) -> TableMap:
    n = space.size
    assign = {space.labels[i]: space.labels[(map_id // n ** (n - 1 - i)) % n]
              for i in range(n)}
    return TableMap(space, assign)


@dataclass(frozen=True)
class CensusRow:
    map_id: str
    satisfies: tuple[tuple[str, bool], ...]  # (condition label, verdict)
    fixed_point_count: int
    picard_converges_from_all_starts: bool
    common_limit: Optional[str]

    def satisfied(self, label: str) -> bool:
        return dict(self.satisfies)[label]


def classify_map(space: FiniteSpace, map_id: int,
                 conditions: Sequence[Condition]) -> CensusRow:
    tm = map_from_id(space, map_id)
    verdicts = tuple(
        (cond.label(),
         evaluate_condition(cond, space, tm, EXHAUSTIVE).holds)
        for cond in conditions)
    fixed = sum(1 for l in space.labels if tm.assign[l] == l)
    # Every point an orbit visits shares its fate: the fixed point it
    # reaches, or None (no limit) when it cycles.  So an orbit runs only
    # from a start no earlier orbit of this map has visited.
    fate = {}
    for start in space.labels:
        if start not in fate:
            o = orbit(tm, start, horizon=space.size)  # pigeonhole: always resolves
            limit = o.points[-1] if isinstance(o.status, FixedPointReached) else None
            fate.update(dict.fromkeys(o.points, limit))
    limits = [fate[l] for l in space.labels]
    converges = None not in limits
    common = None
    if converges and len(set(limits)) == 1:
        common = limits[0]
    return CensusRow(map_id=map_id_string(map_id, space.size),
                     satisfies=verdicts,
                     fixed_point_count=fixed,
                     picard_converges_from_all_starts=converges,
                     common_limit=common)


def _check_row_against_theorems(row: CensusRow, conditions: Sequence[Condition]):
    """Finite spaces are compact and complete, so every satisfied condition
    carries its theorem's conclusion unconditionally; a deviating row can
    only mean the implementation is broken.
    """
    verdicts = dict(row.satisfies)
    count = row.fixed_point_count
    for cond in conditions:
        if not verdicts.get(cond.label()):
            continue
        if cond.picard_converges and (count != 1
                                      or not row.picard_converges_from_all_starts
                                      or row.common_limit is None):
            raise TheoremContradictionError(
                f"map {row.map_id} satisfies {cond.label()} exhaustively "
                f"but has {count} fixed points, "
                f"converges={row.picard_converges_from_all_starts}")
        if count < 1 or (cond.unique_fixed_point and count != 1):
            raise TheoremContradictionError(
                f"map {row.map_id} satisfies {cond.label()} but has "
                f"{count} fixed points")


class _RememberedVerdicts(Condition):
    """A pair-local condition whose verdicts on one space are kept per
    (x, y, Tx, Ty).

    On a fixed space such a verdict reads nothing else, so each key is
    decided once and stands for every map that agrees with it on x and y:
    n^(n-2) maps on an n-point space.  A bound given as a function is
    cached too, so its text renders once per key.
    """

    def __init__(self, inner: Condition):
        self.inner = inner
        self.kind = inner.kind
        self.unique_fixed_point = inner.unique_fixed_point
        self.picard_converges = inner.picard_converges
        self._label = inner.label()
        self._verdicts = {}

    def label(self) -> str:
        return self._label

    def to_json(self) -> dict:
        return self.inner.to_json()

    def verdict(self, d, image, x, y):
        tx, ty = image(x), image(y)  # the pair's own images come first
        key = (x, y, tx, ty)
        found = self._verdicts.get(key)
        if found is None:
            holds, lhs, rhs = self.inner.verdict(d, image, x, y)
            found = self._verdicts[key] = (holds, lhs,
                                           cache(rhs) if callable(rhs) else rhs)
        return found


def _remembered(conditions: Sequence[Condition]) -> tuple[Condition, ...]:
    """The conditions for scans of one space, pair-local ones remembered."""
    return tuple(_RememberedVerdicts(c) if c.pair_local else c for c in conditions)


def enumerate_census(space: FiniteSpace,
                     conditions: Sequence[Condition] = (StrictKannan(),)
                     ) -> list[CensusRow]:
    """One row per self-map, in numeric map-id order, each checked against
    the theorems of the conditions it satisfies.
    """
    n = space.size
    total = n ** n
    if total > MAX_CENSUS_MAPS:
        raise ValueError(f"{n}^{n} = {total} self-maps exceeds the census cap")
    conditions = tuple(conditions)
    remembered = _remembered(conditions)
    rows = []
    for map_id in range(total):
        row = classify_map(space, map_id, remembered)
        _check_row_against_theorems(row, conditions)
        rows.append(row)
    return rows


def census_csv(rows: Sequence[CensusRow],
               conditions: Sequence[Condition]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    labels = [c.label() for c in conditions]
    writer.writerow(["map_id", *labels, "fixed_point_count",
                     "converges", "common_limit"])
    for row in rows:
        verdicts = dict(row.satisfies)
        writer.writerow([row.map_id,
                         *[str(verdicts[l]).lower() for l in labels],
                         row.fixed_point_count,
                         str(row.picard_converges_from_all_starts).lower(),
                         row.common_limit if row.common_limit is not None else ""])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Extremal statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TightnessReport:
    """How close the strict inequality comes to equality on this space.

    ratio = max over satisfying maps and pairs of
    2 * d(Tx,Ty) / (d(x,Tx) + d(y,Ty)); always < 1 on satisfying maps,
    None when no map satisfies the condition at all.
    """

    ratio: Optional[Fraction]
    map_id: Optional[str]
    pair: Optional[tuple[str, str]]
    satisfying_maps: int


def tightness_scan(space: FiniteSpace) -> TightnessReport:
    strict = _RememberedVerdicts(StrictKannan())
    best: Optional[Fraction] = None
    best_map = best_pair = None
    satisfying = 0
    for map_id in range(space.size ** space.size):
        tm = map_from_id(space, map_id)
        if not evaluate_condition(strict, space, tm, EXHAUSTIVE).holds:
            continue
        satisfying += 1
        for x, y in space.distinct_pairs():
            # remembered above; rhs = 0 fixes x and y, so lhs = d(x,y) > 0 = rhs
            _, lhs, rhs = strict.verdict(space._dist, tm._apply, x, y)
            ratio = lhs / rhs
            if best is None or ratio > best:
                best, best_map = ratio, map_id_string(map_id, space.size)
                best_pair = (x, y)
    if satisfying and best is None:
        best = Fraction(0)  # a 1-point space: its one map holds with no pair
    return TightnessReport(ratio=best, map_id=best_map, pair=best_pair,
                           satisfying_maps=satisfying)


# ---------------------------------------------------------------------------
# Cross-validation of the exact sqrt comparison against extended floats
# ---------------------------------------------------------------------------

def _longdouble(x: Fraction) -> np.longdouble:
    return np.longdouble(x.numerator) / np.longdouble(x.denominator)


def khan_float_crosscheck(space: FiniteSpace,
                          boundary: Fraction = Fraction(1, 1 << 20)):
    """Compare exact geometric-mean verdicts with extended-float ones.

    For every distinct pair (x, y) and image pair (Tx, Ty), the exact
    verdict lt_sqrt(d(Tx,Ty), d(x,Tx)*d(y,Ty)) is compared against the
    float route in extended precision (x86 80-bit long double).  Keys
    whose float evaluation lands within ``boundary`` of the decision
    surface are skipped — there the float route has no claim to
    correctness.  Each key stands for the n^(n-2) maps that agree on the
    pair and is counted that often.  Returns (compared, skipped,
    mismatches), a mismatch being the key (x, y, Tx, Ty).
    """
    margin = _longdouble(boundary)
    d = space._dist
    weight = space.size ** (space.size - 2)  # unused on 1 point: no pair
    compared = skipped = 0
    mismatches = []
    for x, y in space.distinct_pairs():
        for tx, ty in itertools.product(space.labels, repeat=2):
            lhs = d(tx, ty)
            u = d(x, tx) * d(y, ty)
            lhs_f, root_f = _longdouble(lhs), np.sqrt(_longdouble(u))
            if abs(lhs_f - root_f) <= margin:
                skipped += weight
                continue
            compared += weight
            if (lhs_f < root_f) != lt_sqrt(lhs, u):
                mismatches.append((x, y, tx, ty))
    return compared, skipped, mismatches

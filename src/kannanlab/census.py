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

Each verdict is read from a table.  A pair-local verdict reads only x,
y, Tx and Ty, so one boolean table V[x, y, Tx, Ty] per condition, filled
by the condition's own exact ``verdict`` C(n,2)*n^2 times, decides every
map: a map satisfies the condition iff its entry is true on every pair.
Its column over all map ids, taken once per table, is the AND over
pairs x < y of V[x, y] broadcast along axes x and y of the grid of maps.
The rest is read from digit rows of 2^16 map ids at a time:
``iterated_kannan(m)`` reads the strict table at U = T^m, and fixed
points, convergence and the common limit come from a power of T.  A
:class:`Census` is one int32 code per map id into its distinct rows
without ids, its shapes; the theorem check runs once per shape.  The
plain per-map route, :func:`classify_map`, re-decides the ``stated_sample``
of map ids as the kernel's cross-check, and a row that differs raises.
All checks run before :func:`render_census` writes a byte, chunk by chunk.

Map ids are base-|X| encodings of the assignment vector, enumerated in
numeric order, so censuses are reproducible.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .conditions import (EXHAUSTIVE, Condition, IteratedKannan, Khan, StrictKannan,
                         evaluate_condition)
from .maps import FixedPointReached, TableMap, orbit
from .spaces import FiniteSpace, TheoremContradictionError, stated_sample

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
    """Base-n digits of the assignment vector (labels[i] -> digit i), a character each."""
    if n > 10:
        raise ValueError(f"a map id spells a digit per character, so n <= 10, not {n}")
    return "".join(str(map_id // n ** (n - 1 - i) % n) for i in range(n))


def map_from_id(space: FiniteSpace, map_id: int) -> TableMap:
    digits = map_id_string(map_id, space.size)
    return TableMap(space, {label: space.labels[int(digit)]
                            for label, digit in zip(space.labels, digits)})


@dataclass(frozen=True, slots=True)
class CensusRow:
    map_id: str
    satisfies: tuple[tuple[str, bool], ...]  # (condition label, verdict)
    fixed_point_count: int
    picard_converges_from_all_starts: bool
    common_limit: Optional[str]


def classify_map(space: FiniteSpace, map_id: int,
                 conditions: Sequence[Condition]) -> CensusRow:
    """One map's row the plain way: each condition evaluated on the map,
    an orbit run from each start.  The census kernel's cross-check.
    """
    tm = map_from_id(space, map_id)
    verdicts = tuple((cond.label(), evaluate_condition(cond, space, tm, EXHAUSTIVE).holds)
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
    common = limits[0] if converges and len(set(limits)) == 1 else None
    return CensusRow(map_id_string(map_id, space.size), verdicts, fixed, converges, common)


def _check_theorems(conditions: Sequence[Condition], shape: tuple, map_id: str):
    """Finite spaces are compact and complete, so every satisfied condition
    carries its theorem's conclusion unconditionally; a deviating row can
    only mean the implementation is broken.

    ``shape`` is a row without its id, (satisfies, fixed_point_count,
    converges, common_limit); the error names ``map_id`` and the first
    deviating condition.
    """
    satisfies, count, converges, limit = shape
    attracts = count == 1 and converges and limit is not None
    for cond, (_, holds) in zip(conditions, satisfies):
        if holds and cond.picard_converges and not attracts:
            raise TheoremContradictionError(
                f"map {map_id} satisfies {cond.label()} exhaustively "
                f"but has {count} fixed points, converges={converges}")
        if holds and (count != 1 if cond.unique_fixed_point else count < 1):
            raise TheoremContradictionError(
                f"map {map_id} satisfies {cond.label()} but has "
                f"{count} fixed points")


# ---------------------------------------------------------------------------
# The census kernel
# ---------------------------------------------------------------------------

CHUNK_MAPS = 1 << 16


def _verdict_table(space: FiniteSpace, cond: Condition) -> np.ndarray:
    """V[x, y, Tx, Ty] by label index: the condition's exact verdict on
    the pair x < y of a map sending it to (Tx, Ty), for every pair and
    image pair, one ``verdict`` call each.
    """
    n, labels = space.size, space.labels
    table = np.zeros((n, n, n, n), dtype=bool)
    for x, y in itertools.combinations(range(n), 2):
        for tx, ty in itertools.product(range(n), repeat=2):
            image = {labels[x]: labels[tx], labels[y]: labels[ty]}.__getitem__
            table[x, y, tx, ty] = cond.verdict(space._dist, image,
                                               labels[x], labels[y])[0]
    return table


def _verdict_column(table: np.ndarray) -> np.ndarray:
    """Each map's verdict in map-id order: the AND over pairs x < y of V[x, y]
    broadcast along axes x and y of the grid of maps, whose axis i is the
    image index of labels[i], raveled in C order (digit 0 leading).
    """
    n = len(table)
    grid = np.ones((n,) * n, dtype=bool)
    for x, y in itertools.combinations(range(n), 2):
        grid &= table[x, y].reshape([n if axis in (x, y) else 1 for axis in range(n)])
    return grid.ravel()


def _lookups(space: FiniteSpace, conditions: Sequence[Condition]):
    """(table, column, m) per condition: its verdict is ``table`` read at
    T^m, and ``column``, the table's verdict per map id, holds it at m = 0.

    ``iterated_kannan(m)`` is the strict inequality at (T^m x, T^m y),
    so it reads the strict table; every other condition reads its own,
    at m = 0.  Equal conditions share a table and its column, and tables
    are filled in condition order.
    """
    tables, lookups = {}, []
    for cond in conditions:
        base, m = (StrictKannan(), cond.m) if isinstance(cond, IteratedKannan) else (cond, 0)
        if base not in tables:
            table = _verdict_table(space, base)
            tables[base] = table, _verdict_column(table)
        lookups.append((*tables[base], m))
    return lookups


def _power(T: np.ndarray, k: int) -> np.ndarray:
    """T^k for each row of maps T (T^0 is the identity), by squaring."""
    result = np.broadcast_to(np.arange(T.shape[1]), T.shape)
    while k > 0:
        if k & 1:
            result = np.take_along_axis(T, result, axis=1)
        T = np.take_along_axis(T, T, axis=1)
        k >>= 1
    return result


def _shifted_pair_verdicts(strict: np.ndarray, T: np.ndarray, m: int) -> np.ndarray:
    """(pairs, maps): iterated_kannan(m), the strict table read at U = T^m.

    With u = Ux and v = Uy, the entry is the table's at the ordered pair
    and its images: the strict inequality is symmetric in (u, Tu) and
    (v, Tv).  Where u = v, the strict inequality at (u, u) reads
    0 < d(u, Tu): it holds iff Tu != u.
    """
    U = _power(T, m)
    n, rows = T.shape[1], np.arange(len(T))
    entries = []
    for x, y in itertools.combinations(range(n), 2):
        u, v = U[:, x], U[:, y]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        entries.append(np.where(u == v, T[rows, u] != u,
                                strict[lo, hi, T[rows, lo], T[rows, hi]]))
    return np.array(entries, dtype=bool).reshape(-1, len(T))


def _digit_rows(ids: np.ndarray, n: int) -> np.ndarray:
    """Row k: the digits of map id ids[k], as :func:`map_id_string` spells them."""
    return ids[:, None] // n ** np.arange(n - 1, -1, -1) % n


def _map_ids(n: int) -> Iterator[str]:
    """Every map id string in numeric order, as :func:`map_id_string` spells it."""
    return map("".join, itertools.product("0123456789"[:n], repeat=n))


@dataclass(frozen=True, eq=False)
class Census:
    """The rows as one int32 code per map id into ``shapes``, which holds
    each distinct row without its id, its shape, once.  Indexing by map id
    and iteration give :class:`CensusRow` rows in map-id order.
    """

    space: FiniteSpace
    conditions: tuple[Condition, ...]
    codes: np.ndarray
    shapes: list[tuple]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, map_id: int) -> CensusRow:
        return CensusRow(map_id_string(map_id, self.space.size),
                         *self.shapes[self.codes[map_id]])

    def __iter__(self) -> Iterator[CensusRow]:
        return (CensusRow(map_id, *self.shapes[c])
                for map_id, c in zip(_map_ids(self.space.size), self.codes.tolist()))


def enumerate_census(space: FiniteSpace,
                     conditions: Sequence[Condition] = (StrictKannan(),)) -> Census:
    """Every self-map's row, each checked against the theorems of the
    conditions it satisfies; every check has run when this returns.

    The map ids of ``stated_sample(n^n)`` are re-decided by :func:`classify_map`,
    and a row that differs raises :class:`TheoremContradictionError`.
    """
    n = space.size
    total = n ** n
    if total > MAX_CENSUS_MAPS:
        raise ValueError(f"{n}^{n} = {total} self-maps exceeds the census cap")
    conditions = tuple(conditions)
    lookups = _lookups(space, conditions)
    names = [c.label() for c in conditions]
    limit_labels = (*space.labels, None)  # index -1: no common limit
    sample = stated_sample(total)
    census = Census(space, conditions, np.empty(total, dtype=np.int32), [])
    known = {}  # shape -> its code
    for start in range(0, total, CHUNK_MAPS):
        ids = np.arange(start, min(start + CHUNK_MAPS, total))
        T = _digit_rows(ids, n)
        verdicts = np.array([_shifted_pair_verdicts(table, T, m).all(axis=0) if m
                             else column[start:start + len(T)]
                             for table, column, m in lookups],
                            dtype=bool).reshape(len(lookups), len(T))
        count = (T == np.arange(n)).sum(axis=1)
        # an orbit's tail has at most n - 1 points, so T^(n-1) x lies on
        # the cycle it enters, which is a fixed point iff the orbit converges
        ends = _power(T, n - 1)
        converges = (np.take_along_axis(T, ends, axis=1) == ends).all(axis=1)
        limit = np.where(converges & (ends == ends[:, :1]).all(axis=1), ends[:, 0], -1)
        # a byte per column, so a row's bytes are its shape's key
        key = np.vstack([verdicts, count, converges, limit + 1]).T.astype(np.uint8, order="C")
        _, first, local = np.unique(key.view(f"V{len(key.T)}").ravel(),
                                    return_index=True, return_inverse=True)
        shapes = [(tuple(zip(names, held)), c, conv, limit_labels[lim])
                  for held, c, conv, lim in zip(verdicts.T[first].tolist(), count[first].tolist(),
                                                converges[first].tolist(), limit[first].tolist())]
        # the shapes first seen in this chunk, in the order of their first maps
        new = [j for j in np.argsort(first).tolist() if shapes[j] not in known]
        for j in new:
            known[shapes[j]] = len(census.shapes)
            census.shapes.append(shapes[j])
        census.codes[ids] = np.array([known[shape] for shape in shapes], dtype=np.int32)[local]
        for map_id in [i for i in sample if start <= i < start + CHUNK_MAPS]:
            if classify_map(space, map_id, conditions) != census[map_id]:
                raise TheoremContradictionError("census kernel and classify_map disagree "
                                                f"on map {census[map_id].map_id}")
        # a row is its shape, so each shape is checked once, at its first map
        for j in new:
            _check_theorems(conditions, shapes[j], map_id_string(start + int(first[j]), n))
    return census


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def render_census(census: Census, config: dict, fmt: str) -> Iterator[str]:
    """The census as CSV under a ``# config`` line, or as the JSON that
    ``json.dumps(sort_keys=True, indent=2)`` writes plus a newline, one
    piece per chunk of map ids.  A row is its shape's text, rendered once
    per shape, around its map id.
    """
    if fmt == "json":
        frame = json.dumps({"config": config, "rows": [], "space": census.space.to_json()},
                           sort_keys=True, indent=2) + "\n"
        head, _, tail = frame.partition('\n  "rows": [],\n')
        opening, separator, closing = head + '\n  "rows": [\n', ",\n", "\n  ],\n" + tail
        # quotes inside a JSON string are escaped, so this is the id's key
        templates = [("    " + before + key, after) for before, key, after in (
            json.dumps({"map_id": "", "satisfies": dict(satisfies), "fixed_point_count": count,
                        "converges": converges, "common_limit": limit},
                       sort_keys=True, indent=2).replace("\n", "\n    ").partition('"map_id": "')
            for satisfies, count, converges, limit in census.shapes)]
    else:
        opening = "# " + json.dumps(config, sort_keys=True) + "\n" + _csv_line(
            ["map_id", *[c.label() for c in census.conditions],
             "fixed_point_count", "converges", "common_limit"])
        separator = closing = ""
        # an empty first field is written as nothing, map ids are digits,
        # which csv never quotes, and None is written as nothing
        templates = [("", _csv_line(["", *[str(held).lower() for _, held in satisfies],
                                     count, str(converges).lower(), limit]))
                     for satisfies, count, converges, limit in census.shapes]
    map_ids = _map_ids(census.space.size)
    yield opening
    for start in range(0, len(census), CHUNK_MAPS):
        if start:
            yield separator
        # the chunk's codes come first: zip stops on them, before taking an id
        yield separator.join([templates[c][0] + map_id + templates[c][1] for c, map_id
                              in zip(census.codes[start:start + CHUNK_MAPS].tolist(), map_ids)])
    yield closing


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
    strict = StrictKannan()
    census = enumerate_census(space, (strict,))
    held = [code for code, (satisfies, *_) in enumerate(census.shapes) if satisfies[0][1]]
    satisfying = np.flatnonzero(np.isin(census.codes, held)).tolist()
    best = best_map = best_pair = None
    for map_id in satisfying:
        tm = map_from_id(space, map_id)
        for x, y in space.distinct_pairs():
            # the map holds on the pair; rhs = 0 fixes x and y, so lhs = d(x,y) > 0 = rhs
            _, lhs, rhs = strict.verdict(space._dist, tm._apply, x, y)
            ratio = lhs / rhs
            if best is None or ratio > best:
                best, best_map, best_pair = ratio, map_id, (x, y)
    if satisfying and best is None:
        best = Fraction(0)  # a 1-point space: its one map holds with no pair
    map_id = None if best_map is None else map_id_string(best_map, space.size)
    return TightnessReport(best, map_id, best_pair, len(satisfying))


# ---------------------------------------------------------------------------
# Cross-validation of the exact sqrt comparison against extended floats
# ---------------------------------------------------------------------------

def _longdouble(x: Fraction) -> np.longdouble:
    return np.longdouble(x.numerator) / np.longdouble(x.denominator)


def khan_float_crosscheck(space: FiniteSpace,
                          boundary: Fraction = Fraction(1, 1 << 20)):
    """Compare exact geometric-mean verdicts with extended-float ones.

    For every distinct pair (x, y) and image pair (Tx, Ty), the exact
    verdict, read from the Khan table V[x, y, Tx, Ty], is compared against
    the float route in extended precision (x86 80-bit long double).  Keys
    whose float evaluation lands within ``boundary`` of the decision
    surface are skipped — there the float route has no claim to
    correctness.  Each key stands for the n^(n-2) maps that agree on the
    pair and is counted that often.  Returns (compared, skipped,
    mismatches), a mismatch being the key (x, y, Tx, Ty).
    """
    margin = _longdouble(boundary)
    d, at = space._dist, space._index  # at: a label's index in the table
    exact = _verdict_table(space, Khan())
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
            if (lhs_f < root_f) != exact[at[x], at[y], at[tx], at[ty]]:
                mismatches.append((x, y, tx, ty))
    return compared, skipped, mismatches

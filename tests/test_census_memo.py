"""The census kernel against a plain reference.

``enumerate_census`` reads every verdict from tables filled once per
(pair, Tx, Ty) and takes fixed points and limits from powers of T.  The
reference here does neither: every map runs plain ``evaluate_condition``
and one ``orbit`` per start, so any difference in a row is a fault of
the kernel.  The two side scans, ``tightness_scan`` and
``khan_float_crosscheck``, are checked the same way against per-map
loops.
"""

import itertools
from fractions import Fraction as F
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

import kannanlab.census
import kannanlab.conditions
from kannanlab.census import (CensusRow, TheoremContradictionError,
                              _shifted_pair_verdicts, _verdict_table,
                              enumerate_census, khan_float_crosscheck,
                              map_from_id, map_id_string, random_finite_space,
                              render_census, tightness_scan)
from kannanlab.conditions import (EXHAUSTIVE, ChenYeh, Fisher, IteratedKannan,
                                  KannanK, Khan, StrictKannan,
                                  evaluate_condition)
from kannanlab.maps import FixedPointReached, orbit
from kannanlab.spaces import FiniteSpace, stated_sample

CATALOG = [
    StrictKannan(), Fisher(), Khan(),
    KannanK(F(0)), KannanK(F(1, 4)), KannanK(F(1, 3)), KannanK(F(2, 5)),
    ChenYeh(F(0), F(0)), ChenYeh(F(2), F(0)), ChenYeh(F(0), F(1, 2)),
    ChenYeh(F(0), F(2)), ChenYeh(F(1, 3), F(3)),
    ChenYeh(F(0), F(1, 2), uniqueness_bounds=True),
    IteratedKannan(0), IteratedKannan(1), IteratedKannan(2),
]
DEFAULT = [StrictKannan(), KannanK(F(1, 3)), Fisher(), Khan(), ChenYeh(F(0), F(0))]
ITERATED = [IteratedKannan(0), IteratedKannan(1), IteratedKannan(2)]


def reference_rows(space, conditions):
    """One row per map from plain evaluations and one orbit per start."""
    n = space.size
    rows = []
    for map_id in range(n ** n):
        tm = map_from_id(space, map_id)
        satisfies = tuple((c.label(), evaluate_condition(c, space, tm, EXHAUSTIVE).holds)
                          for c in conditions)
        limits = []
        for start in space.labels:
            o = orbit(tm, start, horizon=n)
            limits.append(o.points[-1] if isinstance(o.status, FixedPointReached)
                          else None)
        converges = None not in limits
        rows.append(CensusRow(
            map_id=map_id_string(map_id, n), satisfies=satisfies,
            fixed_point_count=sum(tm.assign[l] == l for l in space.labels),
            picard_converges_from_all_starts=converges,
            common_limit=limits[0] if converges and len(set(limits)) == 1 else None))
    return rows


@settings(max_examples=20, deadline=None)
@given(size=st.integers(2, 5), seed=st.integers(0, 50),
       mode=st.sampled_from(["band", "line"]),
       conditions=st.lists(st.sampled_from(CATALOG), min_size=1, max_size=4,
                           unique_by=lambda c: c.label()))
@example(size=4, seed=0, mode="band", conditions=DEFAULT)
@example(size=4, seed=1, mode="line", conditions=ITERATED)
@example(size=5, seed=0, mode="line", conditions=[StrictKannan(), *ITERATED[1:]])
@example(size=5, seed=1, mode="line", conditions=[IteratedKannan(1), Khan()])
@example(size=5, seed=2, mode="line", conditions=[IteratedKannan(2), Fisher()])
def test_census_rows_equal_the_plain_reference(size, seed, mode, conditions):
    space = random_finite_space(size, seed=seed, mode=mode)
    assert list(enumerate_census(space, conditions)) == reference_rows(space, conditions)


@pytest.mark.parametrize("mode", ["band", "line"])
@pytest.mark.parametrize("size", [4, 5])
def test_chunks_that_do_not_divide_the_maps_change_no_row_or_byte(size, mode, monkeypatch):
    space = random_finite_space(size, seed=1, mode=mode)
    conditions = [*DEFAULT, IteratedKannan(1)]

    def rows_and_documents():
        census = enumerate_census(space, conditions)
        return list(census), ["".join(render_census(census, {"size": size}, fmt))
                              for fmt in ("csv", "json")]

    whole = rows_and_documents()
    monkeypatch.setattr(kannanlab.census, "CHUNK_MAPS", 97)
    assert size ** size > 97 and size ** size % 97 != 0
    assert rows_and_documents() == whole


def test_pair_local_verdicts_run_at_most_once_per_pair_and_images(monkeypatch, sample_rule):
    # the tables decide each (pair, Tx, Ty) once, and iterated_kannan(m),
    # m = 0 included, reads the strict table; the only other calls are
    # the plain evaluations of the sampled maps
    space = random_finite_space(5, seed=2, mode="line")
    n = space.size
    conditions = [*DEFAULT, *ITERATED]
    sample = sample_rule(n ** n)
    assert len(sample) < n ** n  # a sparse sample: 1 map in 3, and the last
    plain = {id(c): sum(evaluate_condition(c, space, map_from_id(space, i)).pairs_checked
                        for i in sample)
             for c in conditions}
    calls = {id(c): 0 for c in conditions}
    for cls in {type(c) for c in conditions}:
        def counted(self, d, image, x, y, _inner=cls.verdict):
            if id(self) in calls:
                calls[id(self)] += 1
            return _inner(self, d, image, x, y)
        monkeypatch.setattr(cls, "verdict", counted)
    filled = []
    fill_table = kannanlab.census._verdict_table
    monkeypatch.setattr(kannanlab.census, "_verdict_table",
                        lambda space, cond: filled.append(cond) or fill_table(space, cond))
    enumerate_census(space, conditions)
    assert filled == DEFAULT  # the strict table serves the iterated conditions
    fill = comb(n, 2) * n * n
    for c in conditions:
        expected = plain[id(c)] + (0 if isinstance(c, IteratedKannan) else fill)
        assert calls[id(c)] == expected, (c.label(), calls[id(c)], expected)
    filled.clear()
    enumerate_census(space, ITERATED)
    assert filled == [StrictKannan()]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_iterated_lookup_equals_the_verdict_pair_by_pair(m):
    space = random_finite_space(4, seed=3, mode="line")
    n = space.size
    strict = _verdict_table(space, StrictKannan())
    T = np.array(list(itertools.product(range(n), repeat=n)))  # map-id order
    got = _shifted_pair_verdicts(strict, T, m)
    pairs = list(itertools.combinations(range(n), 2))
    assert got.shape == (len(pairs), n ** n)
    cond = IteratedKannan(m)
    diagonal = 0
    for map_id in range(n ** n):
        tm = map_from_id(space, map_id)
        for p, (x, y) in enumerate(pairs):
            x, y = space.labels[x], space.labels[y]
            expected = cond.verdict(space._dist, tm._apply, x, y)[0]
            assert got[p, map_id] == expected, (map_id, x, y)
            u, v = x, y
            for _ in range(m):
                u, v = tm._apply(u), tm._apply(v)
            diagonal += u == v
    assert 0 < diagonal < len(pairs) * n ** n  # both branches ran


def test_a_flipped_table_entry_is_caught_by_the_cross_check(monkeypatch):
    space = random_finite_space(4, seed=1, mode="line")
    strict = StrictKannan()
    # pair (p1, p2) at images (p3, p3) holds, as lhs = 0; flipped to false,
    # it makes every strict map sending p1 and p2 to p3 non-strict, and
    # the first of them is the first sampled row that differs
    first = next(r.map_id for r in enumerate_census(space, [strict])
                 if dict(r.satisfies)["strict_kannan"] and r.map_id[1:3] == "33")
    assert first != "3333"
    fill = kannanlab.census._verdict_table

    def flipped(space, cond):
        table = fill(space, cond)
        table[1, 2, 3, 3] = not table[1, 2, 3, 3]
        return table

    monkeypatch.setattr(kannanlab.census, "_verdict_table", flipped)
    with pytest.raises(TheoremContradictionError,
                       match=f"disagree on map {first}$"):
        enumerate_census(space, [strict])


@pytest.mark.parametrize("size", [4, 5, 6])
def test_cross_check_runs_on_the_stated_sample(size, monkeypatch, sample_rule):
    space = random_finite_space(size, seed=0, mode="line")
    seen = []
    plain = kannanlab.census.classify_map

    def recorded(space, map_id, conditions):
        seen.append(map_id)
        return plain(space, map_id, conditions)

    monkeypatch.setattr(kannanlab.census, "classify_map", recorded)
    enumerate_census(space, [StrictKannan()])
    total = size ** size
    assert seen == stated_sample(total) == sample_rule(total)
    if total >= 2000:  # the last id is off the stride, sampled on its own
        assert (total - 1) % (total // 1000) != 0 and seen[-1] == total - 1


def test_tightness_scan_matches_a_plain_scan():
    # a line space: on band spaces every strict map is constant, ratio 0
    space = random_finite_space(4, seed=3, mode="line")
    strict = StrictKannan()
    best, satisfying = None, 0
    for map_id in range(space.size ** space.size):
        tm = map_from_id(space, map_id)
        if evaluate_condition(strict, space, tm, EXHAUSTIVE).holds:
            satisfying += 1
            for x, y in space.distinct_pairs():
                tx, ty = tm.apply(x), tm.apply(y)
                s = space.dist(x, tx) + space.dist(y, ty)
                if s:
                    ratio = 2 * space.dist(tx, ty) / s
                    best = ratio if best is None else max(best, ratio)
    report = tightness_scan(space)
    assert best > 0
    assert (report.ratio, report.satisfying_maps) == (best, satisfying)


def reference_tightness(space):
    """The plain tightness scan: every satisfying map, every pair's ratio."""
    best = best_map = best_pair = None
    satisfying = 0
    for map_id in range(space.size ** space.size):
        tm = map_from_id(space, map_id)
        if not evaluate_condition(StrictKannan(), space, tm, EXHAUSTIVE).holds:
            continue
        satisfying += 1
        for x, y in space.distinct_pairs():
            tx, ty = tm.apply(x), tm.apply(y)
            ratio = 2 * space.dist(tx, ty) / (space.dist(x, tx) + space.dist(y, ty))
            if best is None or ratio > best:
                best, best_pair = ratio, (x, y)
                best_map = map_id_string(map_id, space.size)
    return best, best_map, best_pair, satisfying


@pytest.mark.parametrize("mode", ["band", "line"])
@pytest.mark.parametrize("size", [2, 3, 4])
def test_tightness_reports_equal_the_plain_scan(size, mode):
    for seed in range(3):
        space = random_finite_space(size, seed=seed, mode=mode)
        report = tightness_scan(space)
        assert (report.ratio, report.map_id, report.pair,
                report.satisfying_maps) == reference_tightness(space), seed


def test_tightness_scan_on_one_point():
    # the one map fixes the one point and holds with no pair to bound
    report = tightness_scan(FiniteSpace(labels=("a",), matrix=((0,),)))
    assert report.ratio == 0
    assert (report.map_id, report.pair, report.satisfying_maps) == (None, None, 1)


def reference_khan_crosscheck(space, boundary=F(1, 1 << 20)):
    """Every map and pair on its own, mismatches as (map id, x, y)."""
    def longdouble(q):
        return np.longdouble(q.numerator) / np.longdouble(q.denominator)
    margin = longdouble(boundary)
    compared = skipped = 0
    mismatches = []
    for map_id in range(space.size ** space.size):
        tm = map_from_id(space, map_id)
        for x, y in space.distinct_pairs():
            tx, ty = tm.apply(x), tm.apply(y)
            lhs = space.dist(tx, ty)
            u = space.dist(x, tx) * space.dist(y, ty)
            exact = kannanlab.conditions.lt_sqrt(lhs, u)  # a patch applies here too
            lhs_f, root_f = longdouble(lhs), np.sqrt(longdouble(u))
            if abs(lhs_f - root_f) <= margin:
                skipped += 1
                continue
            compared += 1
            if (lhs_f < root_f) != exact:
                mismatches.append((map_id, x, y))
    return compared, skipped, mismatches


@pytest.mark.parametrize("mode", ["band", "line"])
@pytest.mark.parametrize("size", [2, 3, 4])
def test_khan_crosscheck_counts_equal_the_per_map_loop(size, mode):
    for seed in range(3):
        space = random_finite_space(size, seed=seed, mode=mode)
        assert khan_float_crosscheck(space) == reference_khan_crosscheck(space)
    # a boundary that skips some keys and compares others
    space = random_finite_space(size, seed=0, mode=mode)
    half = F(1, 2)
    assert khan_float_crosscheck(space, half) == reference_khan_crosscheck(space, half)


def test_khan_crosscheck_lists_each_mismatched_key_once(monkeypatch):
    # the Khan table's verdicts come from conditions.lt_sqrt
    exact = kannanlab.conditions.lt_sqrt
    monkeypatch.setattr(kannanlab.conditions, "lt_sqrt", lambda a, u: not exact(a, u))
    space = random_finite_space(4, seed=1, mode="line")
    n = space.size
    compared, skipped, mismatches = khan_float_crosscheck(space)
    ref_compared, ref_skipped, per_map = reference_khan_crosscheck(space)
    assert (compared, skipped) == (ref_compared, ref_skipped)
    assert len(per_map) == compared  # the negated route disagrees everywhere
    assert len(mismatches) == len(set(mismatches)) == compared // n ** (n - 2)
    keys = set()
    for map_id, x, y in per_map:
        tm = map_from_id(space, map_id)
        keys.add((x, y, tm.apply(x), tm.apply(y)))
    assert set(mismatches) == keys

"""The brute-force oracle: generators, enumeration, theorem consistency."""

from fractions import Fraction as F

import numpy as np
import pytest

from kannanlab.census import (TheoremContradictionError, _check_theorems,
                              _digit_rows, _map_ids, classify_map, enumerate_census,
                              khan_float_crosscheck, map_from_id,
                              map_id_string, random_finite_space,
                              render_census, tightness_scan)
from kannanlab.conditions import (ChenYeh, Fisher, KannanK, Khan, StrictKannan)
from kannanlab.spaces import FiniteSpace, verify_metric_axioms


def two_point_unit_space():
    return FiniteSpace(labels=("a", "b"), matrix=((0, 1), (1, 0)))


def test_random_space_is_deterministic_in_seed():
    s1 = random_finite_space(4, seed=42)
    s2 = random_finite_space(4, seed=42)
    assert s1 == s2
    assert s1 != random_finite_space(4, seed=43)


def test_random_space_passes_axioms_any_seed():
    for seed in range(12):
        for mode in ("band", "line"):
            sp = random_finite_space(3, seed=seed, mode=mode)
            assert verify_metric_axioms(sp.labels, sp.matrix).passed


def test_band_mode_distances_live_in_unit_band():
    sp = random_finite_space(6, seed=5, mode="band")
    for x, y in sp.distinct_pairs():
        assert 1 <= sp.dist(x, y) <= 2


def test_generator_rejects_bad_sizes_and_modes():
    with pytest.raises(ValueError):
        random_finite_space(1, seed=0)
    with pytest.raises(ValueError):
        random_finite_space(9, seed=0)
    with pytest.raises(ValueError, match="2..7"):  # 8^8 maps exceed the census cap
        random_finite_space(8, seed=0)
    with pytest.raises(ValueError):
        random_finite_space(3, seed=0, mode="fancy")


def test_map_id_encoding_round_trip():
    sp = random_finite_space(3, seed=1)
    seen = set()
    for k in range(27):
        ids = map_id_string(k, 3)
        seen.add(ids)
        tm = map_from_id(sp, k)
        # digit i is the image index of labels[i]
        for i, label in enumerate(sp.labels):
            assert tm.assign[label] == sp.labels[int(ids[i])]
    assert len(seen) == 27
    # the renderer's enumeration, the scalar rule and the kernel's digit
    # rows spell every id alike
    for n in range(2, 7):
        total = n ** n
        strings = [map_id_string(k, n) for k in range(total)]
        assert list(_map_ids(n)) == strings
        rows = _digit_rows(np.arange(total), n).tolist()
        assert ["".join(map(str, row)) for row in rows] == strings
        assert [int(string, n) for string in strings] == list(range(total))
    with pytest.raises(ValueError, match="n <= 10, not 11"):
        map_id_string(0, 11)


def test_two_point_census_exact():
    sp = two_point_unit_space()
    rows = enumerate_census(sp, [StrictKannan()])
    assert [r.map_id for r in rows] == ["00", "01", "10", "11"]
    satisfied = {r.map_id: dict(r.satisfies)["strict_kannan"] for r in rows}
    # only the two constant maps: identity compares 1 against 0, the swap
    # compares 1 against 1 and strictness fails
    assert satisfied == {"00": True, "01": False, "10": False, "11": True}
    by_id = {r.map_id: r for r in rows}
    assert by_id["00"].fixed_point_count == 1
    assert by_id["00"].common_limit == "a"
    assert by_id["01"].fixed_point_count == 2
    assert by_id["10"].fixed_point_count == 0
    assert not by_id["10"].picard_converges_from_all_starts


def test_census_totality():
    sp = random_finite_space(3, seed=7)
    rows = enumerate_census(sp, [StrictKannan(), Fisher()])
    assert len(rows) == 27
    assert len({r.map_id for r in rows}) == 27


def test_census_cap():
    labels = [f"p{i}" for i in range(8)]
    sp = FiniteSpace(labels=labels,
                     matrix=[[int(i != j) for j in range(8)] for i in range(8)])
    with pytest.raises(ValueError, match="cap"):
        enumerate_census(sp, [StrictKannan()])


def test_theorem_consistency_on_sampled_spaces():
    # strict maps must have exactly one fixed point and globally
    # convergent iteration; enumerate_census raises on any deviation
    conds = [StrictKannan(), KannanK(F(1, 3)), Fisher(), Khan(),
             ChenYeh(F(0), F(0))]
    for seed in range(6):
        sp = random_finite_space(3 + seed % 2, seed=seed)
        rows = enumerate_census(sp, conds)
        for row in rows:
            verdicts = dict(row.satisfies)
            if verdicts["strict_kannan"]:
                assert row.fixed_point_count == 1
                assert row.picard_converges_from_all_starts
                assert row.common_limit is not None
            # compactness-backed conditions force at least one fixed point
            for label in ("fisher", "khan", "chen_yeh(a=0,b=0)"):
                if verdicts[label]:
                    assert row.fixed_point_count >= 1


def test_contradiction_error_fires_on_forged_rows():
    conds = [StrictKannan(), Fisher()]
    # a strict row with two fixed points, a fisher row with none
    with pytest.raises(TheoremContradictionError,
                       match="^map 01 satisfies strict_kannan exhaustively but "
                             "has 2 fixed points, converges=True$"):
        _check_theorems(conds, ((("strict_kannan", True), ("fisher", False)), 2, True, None),
                        "01")
    with pytest.raises(TheoremContradictionError,
                       match="^map 10 satisfies fisher but has 0 fixed points$"):
        _check_theorems(conds, ((("strict_kannan", False), ("fisher", True)), 0, False, None),
                        "10")
    # within a row, the first deviating condition is named
    with pytest.raises(TheoremContradictionError, match="^map 10 satisfies fisher "):
        _check_theorems([Fisher(), StrictKannan()],
                        ((("fisher", True), ("strict_kannan", True)), 0, False, None), "10")
    # a genuine census passes every check
    conds = [StrictKannan(), Fisher(), Khan(), ChenYeh(F(0), F(0))]
    for r in enumerate_census(two_point_unit_space(), conds):
        _check_theorems(conds, (r.satisfies, r.fixed_point_count,
                                r.picard_converges_from_all_starts, r.common_limit), r.map_id)


def test_the_census_names_the_first_deviating_map(monkeypatch):
    # a verdict that always holds makes every map strict: 01 (two fixed
    # points) is the first map to break the theorem, and 10 (none) the
    # next, though its shape sorts first
    monkeypatch.setattr(StrictKannan, "verdict", lambda self, d, image, x, y: (True, 0, 1))
    with pytest.raises(TheoremContradictionError,
                       match="^map 01 satisfies strict_kannan exhaustively but "
                             "has 2 fixed points, converges=True$"):
        enumerate_census(two_point_unit_space(), [StrictKannan()])


def test_census_csv_shape():
    sp = two_point_unit_space()
    conds = [StrictKannan()]
    text = "".join(render_census(enumerate_census(sp, conds), {"seed": 0}, "csv"))
    lines = text.strip().splitlines()
    assert lines[0] == '# {"seed": 0}'
    assert lines[1] == "map_id,strict_kannan,fixed_point_count,converges,common_limit"
    assert lines[2] == "00,true,1,true,a"
    assert len(lines) == 6


def test_tightness_scan_two_point_space():
    report = tightness_scan(two_point_unit_space())
    # both satisfying maps are constant: displaced images coincide
    assert report.satisfying_maps == 2
    assert report.ratio == 0


def test_tightness_scan_witness_replays():
    # a line space: on band spaces every strict map is constant, ratio 0
    sp = random_finite_space(4, seed=2, mode="line")
    report = tightness_scan(sp)
    assert report.satisfying_maps > 0
    assert report.ratio is not None and 0 < report.ratio < 1
    tm = map_from_id(sp, int(report.map_id, sp.size))
    x, y = report.pair
    tx, ty = tm.apply(x), tm.apply(y)
    s = sp.dist(x, tx) + sp.dist(y, ty)
    assert 2 * sp.dist(tx, ty) / s == report.ratio


def test_classify_map_identity_row():
    sp = two_point_unit_space()
    row = classify_map(sp, int("01", 2), [StrictKannan()])
    assert row.map_id == "01"
    assert not dict(row.satisfies)["strict_kannan"]
    assert row.fixed_point_count == 2


def test_khan_float_crosscheck_small_spaces():
    for seed in range(4):
        sp = random_finite_space(3, seed=seed)
        compared, skipped, mismatches = khan_float_crosscheck(sp)
        assert mismatches == []
        assert compared > 0


def test_chen_yeh_conclusion_depends_on_uniqueness_bounds():
    plain, bounded = ChenYeh(F(0), F(0)), ChenYeh(F(0), F(0), uniqueness_bounds=True)
    # two fixed points, each a limit: allowed without the uniqueness bounds
    label = plain.label()
    _check_theorems([plain], (((label, True),), 2, True, None), "01")
    with pytest.raises(TheoremContradictionError):
        _check_theorems([bounded], (((label, True),), 2, True, None), "01")
    # no fixed point is never allowed
    with pytest.raises(TheoremContradictionError):
        _check_theorems([plain], (((label, True),), 0, False, None), "10")

"""Witness bounds, the constructed tail map, and the exhaustive gallery checks."""

import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from kannanlab import completeness
from kannanlab.cli import main
from kannanlab.completeness import (_INT32_SAFE_N, _VECTOR_SAFE_N, MAX_GORNICKI_N,
                                    TILE_CELLS, _largest_intermediate, _scan_pairs,
                                    _scan_rows, _workspace, build_reciprocal_witness,
                                    check_gornicki_n,
                                    construct_counterexample_map,
                                    scan_fixed_point_free, spot_check_witness,
                                    verify_counterexample,
                                    verify_gornicki_answer)
from kannanlab.conditions import StrictKannan, evaluate_condition
from kannanlab.maps import TripleNat
from kannanlab.spaces import GornickiNat, ReciprocalSet, TheoremContradictionError


def test_reciprocal_witness_bounds():
    w = build_reciprocal_witness()
    assert w.term(1) == 1 and w.term(4) == F(1, 4)
    assert w.gap_lower_bound(1) == F(1, 2)   # |1 - 1/2|
    assert w.gap_lower_bound(2) == F(1, 6)
    assert w.tail_bound(5) == F(1, 5)
    terms = {w.term(n) for n in range(1, 10 ** 4 + 1)}
    assert len(terms) == 10 ** 4
    with pytest.raises(ValueError):
        w.term(0)


def test_witness_spot_check():
    assert spot_check_witness(build_reciprocal_witness(), prefix=30)


def test_construct_minimal_target_indices():
    cm = construct_counterexample_map(build_reciprocal_witness())
    assert cm.target_index(1) == 5    # least n with 1/n < 1/4
    assert cm.target_index(2) == 13   # least n with 1/n < 1/12
    assert cm.apply(F(1)) == F(1, 5)
    assert cm.apply(F(1, 2)) == F(1, 13)
    # closed form of the minimal index on this witness
    for n in (1, 2, 3, 7, 20, 100):
        assert cm.target_index(n) == 2 * n * (n + 1) + 1


def test_target_indices_are_minimal_and_deeper_than_sources():
    w = build_reciprocal_witness()
    cm = construct_counterexample_map(w)
    for n in range(1, 51):
        idx = cm.target_index(n)
        half_gap = w.gap_lower_bound(n) / 2
        assert idx > n
        assert w.tail_bound(idx) < half_gap
        assert not (w.tail_bound(idx - 1) < half_gap and idx - 1 > n)


def test_verify_counterexample_smallest_prefixes():
    cm = construct_counterexample_map(build_reciprocal_witness())
    space = ReciprocalSet()
    # prefix 2 is the single pair (1, 1/2): images 1/5 and 1/13
    assert space.dist(F(1, 5), F(1, 13)) == F(8, 65)
    rhs = (space.dist(F(1), F(1, 5)) + space.dist(F(1, 2), F(1, 13))) / 2
    assert rhs == F(159, 260)
    report = verify_counterexample(cm, 2)
    assert report.ok and report.condition_report.pairs_checked == 1
    assert report.constructions == ((1, 5), (2, 13))

    vacuous = verify_counterexample(cm, 1)
    assert vacuous.condition_report.pairs_checked == 0
    assert vacuous.ok


def test_verify_counterexample_prefix_forty():
    cm = construct_counterexample_map(build_reciprocal_witness())
    report = verify_counterexample(cm, 40)
    assert report.ok
    assert report.condition_report.pairs_checked == 40 * 39 // 2
    assert report.fixed_point_free


def test_fixed_point_scan():
    cm = construct_counterexample_map(build_reciprocal_witness())
    assert scan_fixed_point_free(cm, 200)


def test_counterexample_report_json_carries_construction():
    cm = construct_counterexample_map(build_reciprocal_witness())
    js = verify_counterexample(cm, 3).to_json()
    assert js["verdict"] == "holds"
    assert js["construction"][0] == {"source_index": 1, "target_index": 5}


def test_a_point_off_the_sequence_is_refused_by_name():
    from kannanlab.completeness import ConstructedMap

    w = build_reciprocal_witness()
    # every point of this space is a sequence term; rig the inverse so
    # that 1/3 reads as a point off the sequence
    rigged = type(w)(space=w.space, term=w.term,
                     gap_lower_bound=w.gap_lower_bound,
                     tail_bound=w.tail_bound,
                     term_index=lambda p: None if p == F(1, 3) else p.denominator,
                     target=w.target)
    cm = ConstructedMap(rigged)
    assert cm.apply(F(1, 2)) == F(1, 13)
    with pytest.raises(ValueError, match=r"sequence terms only, and 1/3 is not one"):
        cm.apply(F(1, 3))


def test_gornicki_answer_single_pair():
    report = verify_gornicki_answer(2)
    assert report.ok and report.pairs_checked == 1
    # the single pair is (1, 2): 7/6 against 3/2
    g = GornickiNat()
    assert g.dist(3, 6) == F(7, 6)
    assert (g.dist(1, 3) + g.dist(2, 6)) / 2 == F(3, 2)


def test_gornicki_answer_matches_condition_checker():
    # independent route: the generic pairwise checker on the same pairs
    n = 30
    g = GornickiNat()
    triple = TripleNat(g)
    pairs = [(F(x), F(y)) for x in range(1, n) for y in range(x + 1, n + 1)]
    assert evaluate_condition(StrictKannan(), g, triple, pairs).holds
    report = verify_gornicki_answer(n)
    assert report.ok
    assert report.pairs_checked == len(pairs)


def fraction_rows(x0, x1, n):
    """The oracle: the tile of ``_scan_rows`` in Fraction arithmetic,
    straight from the metric with no hand reduction and no clamp, exact at
    every size: per check, (x, y) for the first failing row and its first
    failing y, or None."""
    first = [None, None, None]
    for x in range(x0, x1):
        for y in range(x + 1, n + 1):
            lhs = F(9 * x * y + 3 * abs(y - x), 9 * x * y)
            rhs = (F(3 * x * x + 2 * x, 3 * x * x) + F(3 * y * y + 2 * y, 3 * y * y)) / 2
            oks = (lhs == F(3 * x * y + y - x, 3 * x * y)
                   and rhs == F(3 * x * y + x + y, 3 * x * y),
                   lhs < rhs, abs(y - x) > 0)
            for i, ok in enumerate(oks):
                if not ok and first[i] is None:
                    first[i] = (x, y)
    return first


def tile(x0, x1, n):
    """``_scan_rows`` on a workspace of just the tile's cells."""
    return _scan_rows(x0, x1, n, _workspace(n, (x1 - x0) * (n - x0)))


def test_gornicki_answer_rows_and_fraction_scans_agree(monkeypatch):
    assert all(tile(x, x + 1, 60) == fraction_rows(x, x + 1, 60) for x in range(1, 60))
    assert tile(1, 60, 60) == fraction_rows(1, 60, 60)
    assert all(tile(x0, x1, 1000) == fraction_rows(x0, x1, 1000)
               for x0, x1 in ((1, 3), (97, 98), (500, 507), (990, 1000)))
    expected = _scan_pairs(60)
    with monkeypatch.context() as patch:
        patch.setattr(completeness, "_scan_rows",
                      lambda x0, x1, n, work: fraction_rows(x0, x1, n))
        assert _scan_pairs(60) == expected
    # a workspace holds one row at least: 59 cells, and one row a tile
    # until the rows are half as long
    for cells in (59, 66, 177):
        monkeypatch.setattr(completeness, "TILE_CELLS", cells)
        assert _scan_pairs(60) == expected


def test_gornicki_answer_report_fields():
    report = verify_gornicki_answer(50)
    assert report.ok
    assert report.pairs_checked == 50 * 49 // 2
    assert report.cross_checked_pairs == report.pairs_checked  # small n: all
    assert report.first_violation is None
    js = report.to_json()
    assert js["ok"] is True and js["n"] == 50
    with pytest.raises(ValueError):
        verify_gornicki_answer(1)


def test_int32_bound_is_derived_at_its_edge():
    # the largest intermediate fits in int32 at the bound and not beyond
    limit = 2 ** 31 - 1
    assert _largest_intermediate(_INT32_SAFE_N) <= limit
    assert _largest_intermediate(_INT32_SAFE_N + 1) > limit
    assert _INT32_SAFE_N == 18_918


def test_rows_are_exact_on_both_sides_of_the_int32_bound(monkeypatch):
    # the last row holds the largest intermediate: in int32 at the bound,
    # in int64 one past it, where int32 would wrap and fail strict at y = n
    for n in (_INT32_SAFE_N, _INT32_SAFE_N + 1):
        assert tile(n - 1, n, n) == fraction_rows(n - 1, n, n) == [None, None, None]
    n = _INT32_SAFE_N + 1
    monkeypatch.setattr(completeness, "_INT32_SAFE_N", n)
    work = _workspace(n, 1)
    assert work[0].dtype == np.int32
    assert _scan_rows(n - 1, n, n, work) == [None, (n - 1, n), None]


def test_int64_bound_is_derived_at_its_edge():
    # the largest intermediate fits in int64 at the bound and not beyond
    limit = 2 ** 63 - 1
    assert _largest_intermediate(_VECTOR_SAFE_N) <= limit
    assert _largest_intermediate(_VECTOR_SAFE_N + 1) > limit
    assert _VECTOR_SAFE_N == 1_239_850_262


def test_int64_last_row_is_exact_at_the_bound():
    # only the last row, which holds the largest intermediate: the full
    # scan at this size would be ~7.7e17 pairs
    n = _VECTOR_SAFE_N
    assert tile(n - 1, n, n) == fraction_rows(n - 1, n, n) == [None, None, None]


def test_past_the_bound_is_refused_without_scanning(monkeypatch, capsys):
    # past the cap a row would not fit the workspace, and past
    # _VECTOR_SAFE_N int64 wraps around silently (lhs < rhs still reads
    # true), so the size is refused before any row runs
    def no_scan(*args):
        pytest.fail("a workspace was allocated or a tile scanned past the bound")
    monkeypatch.setattr(completeness, "_workspace", no_scan)
    monkeypatch.setattr(completeness, "_scan_rows", no_scan)
    assert MAX_GORNICKI_N == TILE_CELLS + 1 == 65_537 < _VECTOR_SAFE_N
    check_gornicki_n(MAX_GORNICKI_N)
    for n in (MAX_GORNICKI_N + 1, _VECTOR_SAFE_N + 1):
        with pytest.raises(ValueError, match=f"n = {n} exceeds 65537"):
            check_gornicki_n(n)
        with pytest.raises(ValueError, match="exceeds"):
            verify_gornicki_answer(n)
        assert main(["gallery", "--gornicki-n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "exceeds 65537" in err


def test_scan_reports_the_first_violation_of_a_row_body(monkeypatch):
    def defective(failures):
        # a defective tile body: check i fails first at failures[i] = (x, y)
        def rows(x0, x1, n, work):
            return [f if f and x0 <= f[0] < x1 else None for f in failures]
        return rows

    cases = [([None, (3, 5), None], (15, True, False, True, (3, 5, "strict"))),
             # the first failing row wins over the first check
             ([(4, 6), (3, 5), None], (15, False, False, True, (3, 5, "strict"))),
             # within a row, the first check in _CHECKS order wins
             ([None, (3, 4), (3, 6)], (15, True, False, False, (3, 4, "strict"))),
             ([(3, 6), (3, 4), None], (15, False, False, True, (3, 6, "closed_form")))]
    for cells in (5, 7, TILE_CELLS):
        monkeypatch.setattr(completeness, "TILE_CELLS", cells)
        for failures, expected in cases:
            monkeypatch.setattr(completeness, "_scan_rows", defective(failures))
            assert _scan_pairs(6) == expected, (cells, failures)


def test_tiles_cover_every_row_once_in_order_on_one_workspace(monkeypatch):
    allocate = completeness._workspace
    # at the cap the tiles are recorded, not scanned: a scan takes about 20 s,
    # and its first row fills the default workspace
    for n in (2, 3, 60, 1000, MAX_GORNICKI_N):
        for cells in (n - 1, n + 6, 3 * n, TILE_CELLS):
            tiles, workspaces = [], []

            def record(x0, x1, size, work):
                tiles.append((x0, x1))
                workspaces.append(work)
                return [None, None, None]

            def workspace(size, count):
                workspaces.append(allocate(size, count))
                return workspaces[-1]

            monkeypatch.setattr(completeness, "TILE_CELLS", cells)
            monkeypatch.setattr(completeness, "_scan_rows", record)
            monkeypatch.setattr(completeness, "_workspace", workspace)
            assert _scan_pairs(n) == (n * (n - 1) // 2, True, True, True, None)
            assert [x0 for x0, _ in tiles] == [1] + [x1 for _, x1 in tiles[:-1]]
            assert tiles[-1][1] == n
            assert all(x0 < x1 and (x1 - x0) * (n - x0) <= cells for x0, x1 in tiles)
            # one workspace, allocated before the first tile and reused by all
            assert all(work is workspaces[0] for work in workspaces)
            assert len(workspaces) == len(tiles) + 1
            assert all(len(buffer) == cells for buffer in workspaces[0])


def row_reference(x0, x1, n, dtype):
    """Per check, the first failing (x, y) of rows x0 <= x < x1, one row at
    a time in numpy of the given dtype, as an unclamped row computes it."""
    first = [None, None, None]
    for x in range(x0, x1):
        y = np.arange(x + 1, n + 1, dtype=dtype)
        xx = y.dtype.type(x)
        delta = np.abs(y - xx)
        xy3 = 3 * xx * y
        lhs = 2 * (xy3 + delta)
        rhs = (3 * xx + 2) * y + (3 * y + 2) * xx
        masks = ((lhs == 2 * (xy3 + y - xx)) & (rhs == 2 * (xy3 + xx + y)),
                 lhs < rhs, delta > 0)
        for i, mask in enumerate(masks):
            if first[i] is None and not mask.all():
                first[i] = (x, int(y[np.argmin(mask)]))
    return first


def test_a_wrapped_int32_tile_reports_what_its_rows_report(monkeypatch):
    # past the int32 bound the values wrap, and strict fails first in the
    # middle of this tile, and its later rows fail strict first at y < n
    n, x0, x1 = 30_000, 11_925, 11_935
    monkeypatch.setattr(completeness, "_INT32_SAFE_N", n)
    expected = row_reference(x0, x1, n, np.int32)
    assert expected == [None, (11_930, 30_000), None]
    assert tile(x0, x1, n) == expected
    assert all(tile(x, x + 1, n) == row_reference(x, x + 1, n, np.int32)
               for x in range(x0, x1))


def test_a_reused_workspace_carries_nothing_from_tile_to_tile(monkeypatch):
    n = 30_000
    monkeypatch.setattr(completeness, "_INT32_SAFE_N", n)
    failing, clean = (11_925, 11_935), (1, 4)
    alone = {rows: tile(*rows, n) for rows in (failing, clean)}
    assert alone[clean] == [None, None, None] != alone[failing]
    work = _workspace(n, (failing[1] - failing[0]) * (n - failing[0]))
    for rows in (failing, clean, failing, clean):
        assert _scan_rows(*rows, n, work) == alone[rows], rows


def test_cross_check_raises_on_a_wrong_distance(monkeypatch):
    # drops the "1 +" of the metric, as a defective distance would
    monkeypatch.setattr(GornickiNat, "_dist", lambda self, p, q: abs(1 / p - 1 / q))
    with pytest.raises(TheoremContradictionError, match="closed forms"):
        verify_gornicki_answer(20)


def test_cross_check_still_raises_under_python_O():
    # assert statements vanish under -O; the cross-check must not
    code = ("import sys\n"
            "from kannanlab.cli import main\n"
            "from kannanlab.spaces import GornickiNat\n"
            "GornickiNat._dist = lambda self, p, q: abs(1 / p - 1 / q)\n"
            "sys.exit(main(['gallery', '--gornicki-n', '20', '--prefix', '10']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "THEOREM CONTRADICTION" in proc.stderr
    assert proc.stdout == ""


def test_fixed_point_scan_needs_a_positive_count():
    cm = construct_counterexample_map(build_reciprocal_witness())
    for count in (0, -5):
        with pytest.raises(ValueError, match="count"):
            scan_fixed_point_free(cm, count)

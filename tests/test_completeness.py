"""Witness bounds, the constructed tail map, and the exhaustive gallery checks."""

import subprocess
import sys
from fractions import Fraction as F

import pytest

from kannanlab import completeness
from kannanlab.cli import main
from kannanlab.completeness import (_INT32_SAFE_N, _VECTOR_SAFE_N,
                                    _largest_intermediate, _scan_pairs, _scan_row,
                                    build_reciprocal_witness,
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


def fraction_row(x, n):
    """The oracle: the row of ``_scan_row`` in Fraction arithmetic,
    straight from the metric with no hand reduction, exact at every size."""
    first = [None, None, None]
    for y in range(x + 1, n + 1):
        lhs = F(9 * x * y + 3 * abs(y - x), 9 * x * y)
        rhs = (F(3 * x * x + 2 * x, 3 * x * x) + F(3 * y * y + 2 * y, 3 * y * y)) / 2
        oks = (lhs == F(3 * x * y + y - x, 3 * x * y)
               and rhs == F(3 * x * y + x + y, 3 * x * y),
               lhs < rhs, abs(y - x) > 0)
        for i, ok in enumerate(oks):
            if not ok and first[i] is None:
                first[i] = y
    return first


def test_gornicki_answer_rows_and_fraction_scans_agree(monkeypatch):
    assert all(_scan_row(x, 60) == fraction_row(x, 60) for x in range(1, 60))
    assert all(_scan_row(x, 1000) == fraction_row(x, 1000)
               for x in (1, 2, 3, 97, 500, 998, 999))
    row_scan = _scan_pairs(60)
    monkeypatch.setattr(completeness, "_scan_row", fraction_row)
    assert _scan_pairs(60) == row_scan


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


def test_rows_are_exact_on_both_sides_of_the_int32_bound():
    # the last row holds the largest intermediate: in int32 at the bound,
    # in int64 one past it, where int32 would wrap and fail strict at y = n
    for n in (_INT32_SAFE_N, _INT32_SAFE_N + 1):
        assert _scan_row(n - 1, n) == fraction_row(n - 1, n) == [None, None, None]


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
    assert _scan_row(n - 1, n) == fraction_row(n - 1, n) == [None, None, None]


def test_past_the_bound_is_refused_without_scanning(monkeypatch, capsys):
    # past the bound int64 wraps around silently (lhs < rhs still reads
    # true), so the size is refused before any row runs
    def no_scan(x, n):
        pytest.fail("a row was scanned past the bound")
    monkeypatch.setattr(completeness, "_scan_row", no_scan)
    with pytest.raises(ValueError, match="exceeds"):
        verify_gornicki_answer(_VECTOR_SAFE_N + 1)
    assert main(["gallery", "--gornicki-n", str(_VECTOR_SAFE_N + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceeds" in err


def test_scan_reports_the_first_violation_of_a_row_body(monkeypatch):
    def row(x, n):  # a defective row body: strict fails at y = 5 of row 3
        return [None, 5, None] if x == 3 else [None, None, None]
    monkeypatch.setattr(completeness, "_scan_row", row)
    assert _scan_pairs(6) == (15, True, False, True, (3, 5, "strict"))


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

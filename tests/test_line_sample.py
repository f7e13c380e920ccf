"""The usual metric's sample rows against the Fraction route.

``verify_line_sample`` decides every pair of a sample of a usual-metric
space on int64 rows of numerators over one common denominator, through
the row scanner and the Fraction cross-check that the reciprocal
counterexample uses.  These tests hold its report to the plain
``evaluate_condition`` scan, check its refusals, and check its int64 bound
at the edge.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from kannanlab import completeness
from kannanlab.completeness import (_LINE_SAFE_NUMERATOR, _line_intermediate_bound,
                                    _strict_kannan_line_row, verify_line_sample)
from kannanlab.conditions import StrictKannan, evaluate_condition, sample_pairs
from kannanlab.maps import Custom, PiecewiseDrop, Scale, TripleNat
from kannanlab.spaces import (GornickiNat, HalfLineUsual, MembershipError, SplitSet,
                              TheoremContradictionError, split_set_sample)

INT64_MAX = 2 ** 63 - 1
HALF_LINE = HalfLineUsual()


def swap(p):
    return 1 - p if p <= 1 else p / 2


CASES = {
    "drop_4": (SplitSet(), PiecewiseDrop(SplitSet()), split_set_sample(4)),
    "drop_5": (SplitSet(), PiecewiseDrop(SplitSet()), split_set_sample(5)),
    "drop_40": (SplitSet(), PiecewiseDrop(SplitSet()), split_set_sample(40)),
    "drop_200": (SplitSet(), PiecewiseDrop(SplitSet()), split_set_sample(200)),
    # 0 <-> 1: d(T0, T1) = 1 equals the bound (1 + 1)/2, violated at the first pair
    "swap": (HALF_LINE, Custom(HALF_LINE, swap), [F(0), F(1), F(3)]),
    # doubling holds on close pairs and fails first at the third pair (1, 0)
    "double": (HALF_LINE, Scale(HALF_LINE, 2), [F(1), F(11, 10), F(6, 5), F(0), F(5)]),
    "third": (HALF_LINE, Scale(HALF_LINE, F(1, 3)), [F(k, 10) for k in range(1, 80)]),
}


def plain(space, m, points):
    return evaluate_condition(StrictKannan(), space, m, sample_pairs(points))


@pytest.mark.parametrize("name", CASES)
def test_rows_give_the_plain_report(name):
    space, m, points = CASES[name]
    report, expected = verify_line_sample(space, m, points), plain(space, m, points)
    assert report == expected
    assert (report.pairs_checked, report.holds, report.violation) == (
        expected.pairs_checked, expected.holds, expected.violation)
    assert report.to_json() == expected.to_json()


def test_the_cases_cover_both_verdicts_and_the_tie():
    verdicts = {name: verify_line_sample(*case) for name, case in CASES.items()}
    assert verdicts["drop_200"].holds and verdicts["drop_200"].pairs_checked == 19_900
    assert verdicts["third"].holds and verdicts["third"].pairs_checked == 3_081
    tie = verdicts["swap"].violation
    assert verdicts["swap"].pairs_checked == 1
    assert (tie.x, tie.y, tie.lhs, tie.rhs) == (F(0), F(1), F(1), F(1))
    assert verdicts["double"].pairs_checked == 3
    assert (verdicts["double"].violation.x, verdicts["double"].violation.y) == (F(1), F(0))


def no_rows(monkeypatch):
    def fail(*args):
        pytest.fail("a row ran before the sample was refused")
    monkeypatch.setattr(completeness, "_strict_kannan_line_row", fail)
    monkeypatch.setattr(completeness, "_scan_pair_rows", fail)


def test_a_space_without_the_usual_metric_is_refused(monkeypatch):
    no_rows(monkeypatch)
    space = GornickiNat()
    with pytest.raises(ValueError, match="usual-metric space, not gornicki_nat"):
        verify_line_sample(space, TripleNat(space), [F(1), F(2)])


def test_a_repeated_point_and_a_non_member_are_refused_before_any_row(monkeypatch):
    no_rows(monkeypatch)
    split = SplitSet()
    drop = PiecewiseDrop(split)
    with pytest.raises(ValueError, match=r"pair points must be distinct, got \(3/2, 3/2\)"):
        verify_line_sample(split, drop, [F(-1), F(3, 2), F(0), F(3, 2)])
    # the Fraction route gives the same refusal
    with pytest.raises(ValueError, match=r"pair points must be distinct, got \(3/2, 3/2\)"):
        plain(split, drop, [F(-1), F(3, 2), F(0), F(3, 2)])
    with pytest.raises(MembershipError, match="1 is not a point of split_set"):
        verify_line_sample(split, drop, [F(-1), F(1), F(2)])
    with pytest.raises(ValueError, match="does not match"):
        verify_line_sample(HALF_LINE, drop, [F(0), F(2)])


def test_the_int64_bound_is_derived_at_its_edge(monkeypatch):
    assert _line_intermediate_bound(_LINE_SAFE_NUMERATOR) <= INT64_MAX
    assert _line_intermediate_bound(_LINE_SAFE_NUMERATOR + 1) > INT64_MAX
    assert _LINE_SAFE_NUMERATOR == 2 ** 61 - 1
    zero = Scale(HALF_LINE, 0)
    edge = verify_line_sample(HALF_LINE, zero, [F(0), F(_LINE_SAFE_NUMERATOR)])
    assert edge == plain(HALF_LINE, zero, [F(0), F(_LINE_SAFE_NUMERATOR)])
    # one past the edge, in a numerator over the common denominator 3
    no_rows(monkeypatch)
    with pytest.raises(ValueError, match=f"numerator {2 ** 61} .* past {2 ** 61 - 1}"):
        verify_line_sample(HALF_LINE, zero, [F(1, 3), F(2 ** 61, 3)])


def test_the_row_is_exact_at_the_bound():
    big = _LINE_SAFE_NUMERATOR
    quads = [(big, -big, -big, big), (-big, big, big, -big), (big, big, -big, -big),
             (0, big, big, 0), (big, 0, -big, 0), (big - 1, -big, -big, big - 1)]
    rng = np.random.default_rng(0)
    for _ in range(200):
        quads.append(tuple(int(v) for v in rng.integers(-big, big, 4, endpoint=True)))
    for a, a_img, b, b_img in quads:
        got = _strict_kannan_line_row(np.int64(a), np.int64(a_img),
                                      np.array([b], dtype=np.int64),
                                      np.array([b_img], dtype=np.int64))
        assert list(got) == [2 * abs(a_img - b_img) < abs(a - a_img) + abs(b - b_img)], (
            a, a_img, b, b_img)


def test_rows_that_disagree_with_the_fraction_route_raise(monkeypatch):
    monkeypatch.setattr(completeness, "_strict_kannan_line_row",
                        lambda a, a_img, b, b_img: np.ones(len(b), dtype=bool))
    with pytest.raises(TheoremContradictionError, match="disagree on a sample of 3 points"):
        verify_line_sample(*CASES["swap"])
    monkeypatch.setattr(completeness, "_strict_kannan_line_row",
                        lambda a, a_img, b, b_img: np.arange(len(b)) != len(b) - 1)
    with pytest.raises(TheoremContradictionError, match="disagree"):
        verify_line_sample(*CASES["drop_40"])


def test_the_gallery_decides_the_split_set_on_rows(monkeypatch):
    from kannanlab.cli import build_gallery
    from kannanlab.completeness import _cross_check_sample

    calls = []
    verdict = StrictKannan.verdict
    monkeypatch.setattr(StrictKannan, "verdict",
                        lambda self, *args: calls.append(args[2:]) or verdict(self, *args))
    section = next(s for s in build_gallery(2, 10)["sections"]
                   if s["name"] == "split_set_drop")
    assert section["ok"] and section["details"]["pairs_checked"] == 19_900
    # only the two stated samples are decided pair by pair in Fraction:
    # the split set's 200 points and the reciprocal prefix of 10
    assert len(calls) == len(_cross_check_sample(200)) + len(_cross_check_sample(10))
    assert len(calls) == 1_094

"""The reciprocal counterexample's int64 rows against the Fraction route.

``verify_counterexample`` decides every pair of a prefix on int64 rows of
the denominators and re-decides a pair sample through
``evaluate_condition``.  These tests hold the rows to the plain Fraction
scan: pair by pair on small denominators and at the int64 bound, and
report by report over maps whose targets are shallow, deep or arbitrary.
"""

import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kannanlab import completeness
from kannanlab.cli import main
from kannanlab.completeness import (_RECIPROCAL_SAFE_K, ConstructedMap,
                                    IncompleteWitness, _cross_check_sample,
                                    _reciprocal_intermediate_bound,
                                    _strict_kannan_row,
                                    build_reciprocal_witness,
                                    check_reciprocal_denominator,
                                    construct_counterexample_map,
                                    verify_counterexample)
from kannanlab.conditions import StrictKannan, evaluate_condition, sample_pairs
from kannanlab.spaces import HalfLineUsual, TheoremContradictionError, stated_sample

INT64_MAX = 2 ** 63 - 1


def fraction_holds(a, a_img, b, b_img):
    """The strict inequality for 1/a -> 1/a', 1/b -> 1/b', straight from the metric."""
    return 2 * abs(F(1, a_img) - F(1, b_img)) < (abs(F(1, a) - F(1, a_img))
                                                 + abs(F(1, b) - F(1, b_img)))


def branch(a, a_img, b, b_img):
    """Which test of the row body decides the pair: f - c as 'gt', 0, -1 or 'lt'."""
    f = abs(a_img - a) * b_img // a + abs(b_img - b) * a_img // b
    c = 2 * abs(b_img - a_img)
    return "gt" if f > c else "lt" if f < c - 1 else f - c


def row(a, a_img, bs, b_imgs):
    return list(_strict_kannan_row(np.int64(a), np.int64(a_img),
                                   np.array(bs, dtype=np.int64),
                                   np.array(b_imgs, dtype=np.int64)))


def test_row_equals_the_fraction_verdict_and_every_branch_decides_both_ways():
    seen = set()
    images = range(1, 21)
    for a in range(1, 7):
        for a_img in images:
            for b in range(1, 7):
                if b == a:
                    continue
                got = row(a, a_img, [b] * len(images), list(images))
                for b_img, holds in zip(images, got):
                    assert holds == fraction_holds(a, a_img, b, b_img), (a, a_img, b, b_img)
                    seen.add((branch(a, a_img, b, b_img), bool(holds)))
    # f > c always holds and f < c - 1 never does; the two tie branches go both ways
    assert seen == {("gt", True), (0, True), (0, False), (-1, True), (-1, False),
                    ("lt", False)}


def test_row_is_exact_at_the_bound():
    k = _RECIPROCAL_SAFE_K
    t = k // 6
    quads = [
        (t, 2 * t, 3 * t, 6 * t),          # the tie 2(1/3) = 1/2 + 1/6, scaled
        (k - 1, k, k - 2, 1),              # u, v near k^2
        (1, k, k, 1),
        (k, 1, 1, k),
        (k - 1, 2, 2, k - 1),
        (k, k - 1, k - 1, k),
    ]
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, a_img, b, b_img = (int(v) for v in rng.integers(k - 10 ** 6, k, 4, endpoint=True))
        if a != b:
            quads.append((a, a_img, b, b_img))
    for a, a_img, b, b_img in quads:
        assert row(a, a_img, [b], [b_img]) == [fraction_holds(a, a_img, b, b_img)], (
            a, a_img, b, b_img)
    assert row(t, 2 * t, [3 * t], [6 * t]) == [False]


def test_int64_bound_is_derived_at_its_edge():
    assert _reciprocal_intermediate_bound(_RECIPROCAL_SAFE_K) <= INT64_MAX
    assert _reciprocal_intermediate_bound(_RECIPROCAL_SAFE_K + 1) > INT64_MAX
    assert _RECIPROCAL_SAFE_K == 2 ** 31 - 1
    check_reciprocal_denominator(2 ** 31 - 1)
    with pytest.raises(ValueError, match="past 2147483647"):
        check_reciprocal_denominator(2 ** 31)
    # for the stock witness the bound falls between prefixes 32,767 and 32,768
    cm = construct_counterexample_map(build_reciprocal_witness())
    assert cm.target_index(32_767) <= _RECIPROCAL_SAFE_K < cm.target_index(32_768)


class TargetTable(ConstructedMap):
    """A tail map on {1/n} whose target indices are given, one per source."""

    def __init__(self, targets):
        super().__init__(build_reciprocal_witness())
        self.targets = list(targets)

    def target_index(self, n0):
        return self.targets[n0 - 1]


def plain_report(targets):
    m = TargetTable(targets)
    terms = [F(1, n) for n in range(1, len(targets) + 1)]
    return (evaluate_condition(StrictKannan(), m.space, m, sample_pairs(terms)),
            all(m.apply(t) != t for t in terms))


def assert_same_as_plain(targets):
    report = verify_counterexample(TargetTable(targets), len(targets))
    plain, fixed_free = plain_report(targets)
    assert report.condition_report.to_json() == plain.to_json()
    assert report.condition_report.violation == plain.violation
    assert report.fixed_point_free == fixed_free
    return report


@st.composite
def target_tables(draw):
    targets = []
    for n in range(1, draw(st.integers(1, 14)) + 1):
        depth = draw(st.sampled_from(["shallow", "deep", "arbitrary"]))
        if depth == "shallow":
            targets.append(n + draw(st.integers(1, 3)))
        elif depth == "deep":
            targets.append(2 * n * (n + 1) + 1 + draw(st.integers(0, 40)))
        else:
            targets.append(draw(st.integers(1, 10 ** 9)))
    return targets


@settings(max_examples=150, deadline=None)
@given(target_tables())
@example([2, 13, 6])        # the exact tie 1 -> 2, 3 -> 6 at the pair (1, 1/3)
@example([5, 13, 25, 41])   # the stock targets 2n(n+1) + 1
@example([1, 2])            # a fixed point first
def test_rows_give_the_plain_report(targets):
    assert_same_as_plain(targets)


def test_the_tie_is_a_violation_with_equal_sides():
    report = assert_same_as_plain([2, 13, 6])
    v = report.condition_report.violation
    assert (v.x, v.y, v.lhs, v.rhs) == (F(1), F(1, 3), F(1, 3), F(1, 3))
    assert report.condition_report.pairs_checked == 2


def test_sampled_cross_check_past_prefix_100():
    stock = [2 * n * (n + 1) + 1 for n in range(1, 151)]
    assert assert_same_as_plain(stock).condition_report.holds
    late = stock[:139] + [141] + stock[140:]  # 1/140 -> 1/141, far too shallow
    report = assert_same_as_plain(late)
    assert report.condition_report.violation.y == F(1, 140)
    assert report.condition_report.pairs_checked > 5000


def test_cross_check_sample_order_and_size():
    assert _cross_check_sample(1) == []
    assert _cross_check_sample(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert len(_cross_check_sample(100)) == 1239
    for prefix in (101, 600, 10_000):
        sample = _cross_check_sample(prefix)
        assert 1000 <= len(sample) <= 1012
        assert sample == sorted(set(sample))
        assert sample[0] == (0, 1) and sample[-1] == (prefix - 2, prefix - 1)
        assert all(0 <= i < j < prefix for i, j in sample)
    stopped = _cross_check_sample(600, stop=(3, 400))
    assert stopped[-1] == (3, 400)
    assert stopped[:-1] == [p for p in _cross_check_sample(600) if p < (3, 400)]


def test_the_pair_sample_is_the_stated_sample_in_pair_order(sample_rule):
    for prefix in [*range(1, 201), 10_000]:
        sample = _cross_check_sample(prefix)
        assert all(0 <= i < j < prefix for i, j in sample)
        # the pair-order index of (i, j): the pairs of rows 0..i-1, then j's place in row i
        flat = [i * (2 * prefix - i - 1) // 2 + j - i - 1 for i, j in sample]
        total = prefix * (prefix - 1) // 2
        assert flat == stated_sample(total) == sample_rule(total), prefix


def test_routes_that_disagree_raise(monkeypatch):
    monkeypatch.setattr(completeness, "_strict_kannan_row",
                        lambda a, a_img, b, b_img: np.ones(len(b), dtype=bool))
    with pytest.raises(TheoremContradictionError, match="disagree"):
        verify_counterexample(TargetTable([2, 13, 6]), 3)
    monkeypatch.setattr(completeness, "_strict_kannan_row",
                        lambda a, a_img, b, b_img: np.arange(len(b)) != len(b) - 1)
    with pytest.raises(TheoremContradictionError, match="disagree"):
        verify_counterexample(construct_counterexample_map(build_reciprocal_witness()), 30)


def test_disagreement_still_raises_under_python_O():
    code = ("import sys\n"
            "import numpy as np\n"
            "from kannanlab import completeness\n"
            "from kannanlab.cli import main\n"
            "completeness._strict_kannan_row = lambda a, ai, b, bi: np.zeros(len(b), bool)\n"
            "sys.exit(main(['counterexample', '--prefix', '20', '--scan', '10']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "THEOREM CONTRADICTION" in proc.stderr and "disagree" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["counterexample", "--prefix", "32768", "--scan", "1"],
    ["counterexample", "--prefix", "1000000000"],
    ["gallery", "--prefix", "32768"],
])
def test_prefix_past_the_bound_is_refused_before_any_pair(monkeypatch, capsys, argv):
    from kannanlab import cli

    def no_work(*args, **kwargs):
        pytest.fail("work ran past the prefix bound")
    monkeypatch.setattr(completeness, "_strict_kannan_row", no_work)
    monkeypatch.setattr(cli, "verify_gornicki_answer", no_work)
    monkeypatch.setattr(cli, "orbit", no_work)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: the prefix reaches the denominator ")
    assert "past 2147483647" in err


def test_witness_off_the_reciprocal_set_is_refused():
    w = build_reciprocal_witness()
    elsewhere = IncompleteWitness(space=HalfLineUsual(), term=w.term,
                                  gap_lower_bound=w.gap_lower_bound,
                                  tail_bound=w.tail_bound, term_index=w.term_index,
                                  target=w.target)
    with pytest.raises(ValueError, match="reciprocal_set"):
        verify_counterexample(ConstructedMap(elsewhere), 5)


def test_repeated_terms_are_refused():
    w = build_reciprocal_witness()
    repeating = IncompleteWitness(space=w.space, term=lambda n: F(1, 1 + n % 3),
                                  gap_lower_bound=w.gap_lower_bound,
                                  tail_bound=w.tail_bound, term_index=w.term_index,
                                  target=w.target)
    with pytest.raises(ValueError, match="distinct"):
        verify_counterexample(ConstructedMap(repeating), 5)

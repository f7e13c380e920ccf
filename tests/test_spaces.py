"""Space catalog: membership, exact distances, metric axioms."""

import random
from fractions import Fraction as F

import pytest

from kannanlab.spaces import (FiniteSpace, GornickiNat, HalfLineUsual,
                              MembershipError, ReciprocalSet, SplitSet,
                              UnitIntervalRight, load_space, split_set_sample,
                              stated_sample, verify_metric_axioms)


def test_gornicki_distance_formula():
    g = GornickiNat()
    assert g.dist(1, 2) == F(3, 2)  # 1 + |1 - 1/2|
    assert g.dist(2, 6) == F(4, 3)  # 1 + |1/2 - 1/6|
    assert g.dist(7, 7) == 0


def test_split_set_distance():
    s = SplitSet()
    assert s.dist(F(2), F(-1)) == 3
    assert s.dist(F(3, 2), F(0)) == F(3, 2)


@pytest.mark.parametrize("space,points", [
    (HalfLineUsual(), [F(0), F(1, 3), F(7, 2), F(100)]),
    (UnitIntervalRight(), [F(0), F(1, 2), F(99, 100)]),
    (SplitSet(), [F(-1), F(0), F(3, 2), F(2)]),
    (ReciprocalSet(), [F(1), F(1, 2), F(1, 17)]),
    (GornickiNat(), [F(1), F(2), F(50)]),
])
def test_metric_identity_and_symmetry_on_samples(space, points):
    for p in points:
        assert space.dist(p, p) == 0
        for q in points:
            assert space.dist(p, q) == space.dist(q, p)
            if p != q:
                assert space.dist(p, q) > 0


@pytest.mark.parametrize("space,bad", [
    (HalfLineUsual(), F(-1)),
    (UnitIntervalRight(), F(1)),
    (SplitSet(), F(1, 2)),
    (SplitSet(), F(3)),
    (ReciprocalSet(), F(2, 3)),
    (GornickiNat(), F(1, 2)),
    (GornickiNat(), F(0)),
])
def test_membership_errors(space, bad):
    with pytest.raises(MembershipError):
        space.check_member(bad)
    with pytest.raises(MembershipError):
        space.dist(bad, bad)


def test_gornicki_metric_bounded_between_one_and_two():
    # distinct points are always more than 1 apart, never more than 2:
    # the only Cauchy sequences are the eventually constant ones
    g = GornickiNat()
    n = 40
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            assert 1 < g.dist(x, y) <= 2


def test_axiom_report_three_point_pass():
    report = verify_metric_axioms(
        ["a", "b", "c"],
        [[0, 1, 2], [1, 0, F(3, 2)], [2, F(3, 2), 0]])
    assert report.passed


def test_axiom_report_symmetry_failure_with_witness():
    report = verify_metric_axioms(["a", "b"], [[0, 1], [2, 0]])
    assert not report.passed
    assert report.first_violation == ("symmetry", ("a", "b"))


def test_axiom_report_single_point_vacuous():
    assert verify_metric_axioms(["a"], [[0]]).passed


def test_axiom_report_triangle_failure():
    report = verify_metric_axioms(
        ["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert report.first_violation[0] == "triangle"


def test_finite_space_constructor_rejects_non_metric():
    with pytest.raises(ValueError, match="triangle"):
        FiniteSpace(labels=("a", "b", "c"),
                    matrix=((0, 1, 3), (1, 0, 1), (3, 1, 0)))


def test_matrices_in_unit_band_always_satisfy_triangle():
    # off-diagonal values in [1, 2] make the triangle inequality automatic
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(2, 6)
        d = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = 1 + F(rng.randint(0, 8), 8)
        report = verify_metric_axioms([str(i) for i in range(n)], d)
        assert report.passed


def test_catalog_flags():
    assert GornickiNat().complete is True
    assert GornickiNat().compact is False
    assert GornickiNat().boundedly_compact is False
    assert UnitIntervalRight().complete is False
    assert ReciprocalSet().complete is False
    assert HalfLineUsual().boundedly_compact is True
    fs = FiniteSpace(labels=("a",), matrix=((0,),))
    assert fs.compact is True


def test_finite_space_dist_and_membership():
    fs = FiniteSpace(labels=("a", "b"), matrix=((0, F(1, 2)), (F(1, 2), 0)))
    assert fs.dist("a", "b") == F(1, 2)
    with pytest.raises(MembershipError):
        fs.dist("a", "z")
    with pytest.raises(MembershipError):
        fs.check_member(F(1))


def test_space_json_round_trip():
    fs = load_space({"kind": "finite", "labels": ["a", "b"],
                     "d": [["0", "1"], ["1", "0"]]})
    assert fs.dist("a", "b") == 1
    assert load_space(fs.to_json()) == fs
    for kind in ("gornicki_nat", "half_line", "unit_interval_right",
                 "split_set", "reciprocal_set"):
        sp = load_space({"kind": kind})
        assert sp.to_json() == {"kind": kind}
    with pytest.raises(ValueError):
        load_space({"kind": "banach"})
    with pytest.raises(ValueError):
        load_space({"kind": "finite", "labels": ["a"]})


def test_split_set_sample_contents():
    sample = split_set_sample(200)
    assert len(sample) == 200
    assert len(set(sample)) == 200
    assert F(-1) in sample and F(0) in sample and F(2) in sample
    space = SplitSet()
    for p in sample:
        assert space.contains(p)


@pytest.mark.parametrize("total", [0, 1, 1_999, 2_000, 2_001, 46_656, 10 ** 7])
def test_stated_sample_is_the_rule(total, sample_rule):
    sample = stated_sample(total)
    assert sample == sample_rule(total)
    if total:
        assert sample[0] == 0 and sample[-1] == total - 1
    if total < 2_000:
        assert sample == list(range(total))

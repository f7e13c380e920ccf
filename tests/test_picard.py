"""Picard engine diagnostics against directly computed values."""

from fractions import Fraction as F

import pytest

from kannanlab.conditions import EXHAUSTIVE, StrictKannan, evaluate_condition
from kannanlab.maps import (Custom, CycleDetected, FixedPointReached, Scale,
                            TableMap, TripleNat, PiecewiseDrop, Truncated, orbit)
from kannanlab.picard import (orbit_trace_csv, run_picard, uniqueness_probe,
                              verify_fixed_point)
from kannanlab.spaces import (FiniteSpace, GornickiNat, HalfLineUsual,
                              MembershipError, SplitSet,
                              TheoremContradictionError, UnitIntervalRight,
                              split_set_sample)


def test_run_piecewise_drop_from_two():
    space = SplitSet()
    run = run_picard(space, PiecewiseDrop(space), F(2), horizon=10)
    assert run.orbit.gaps == [F(3), F(1), F(0)]
    assert run.gap_monotone
    assert run.pairwise_bound_ok
    assert run.fixed_point == F(0)
    assert run.gap_limit_evidence == 0


def test_run_halving_on_unit_interval():
    space = UnitIntervalRight()
    run = run_picard(space, Scale(space, F(1, 2)), F(1, 2), horizon=20)
    assert isinstance(run.orbit.status, Truncated)
    assert run.fixed_point is None
    assert run.gap_monotone
    # halving is a Banach contraction but not a Kannan map: at the pair
    # (x_1, x_3) the displacement bound reads 3/16 < (1/4 + 1/16)/2 = 5/32
    # and fails, so the proof-level pairwise diagnostic must come back False
    assert not run.pairwise_bound_ok
    x1, x3, s0, s2 = F(1, 4), F(1, 16), F(1, 4), F(1, 16)
    assert not (abs(x1 - x3) < (s0 + s2) / 2)
    # gaps are exactly 2^-(i+2)
    assert run.orbit.gaps == [F(1, 2 ** (i + 2)) for i in range(20)]
    # independent recomputation of the tail spread: the last quarter of the
    # 21 computed points is x_15..x_20 with values 2^-16..2^-21
    tail = run.orbit.points[-6:]
    expected = max(abs(tail[i] - tail[j])
                   for i in range(6) for j in range(6))
    assert run.cauchy_evidence == expected == F(31, 2 ** 21)


def test_run_from_fixed_point_is_vacuous():
    space = SplitSet()
    run = run_picard(space, PiecewiseDrop(space), F(0), horizon=10)
    assert run.orbit.status == FixedPointReached(at=0)
    assert run.fixed_point == F(0)
    assert run.gap_monotone and run.pairwise_bound_ok


def test_two_cycle_breaks_diagnostics_and_strict_condition():
    fs = FiniteSpace(labels=("a", "b"), matrix=((0, 1), (1, 0)))
    swap = TableMap(fs, {"a": "b", "b": "a"})
    run = run_picard(fs, swap, "a", horizon=10)
    assert isinstance(run.orbit.status, CycleDetected)
    assert run.orbit.status.period == 2
    assert not run.gap_monotone or not run.pairwise_bound_ok
    # a 2-cycle forces d(u,v) < d(u,v): the strict condition cannot hold
    assert not evaluate_condition(StrictKannan(), fs, swap, EXHAUSTIVE).holds


def test_horizon_cap():
    space = SplitSet()
    with pytest.raises(ValueError, match="capped"):
        run_picard(space, PiecewiseDrop(space), F(2), horizon=513)


def test_verify_fixed_point_examples():
    space = SplitSet()
    drop = PiecewiseDrop(space)
    check = verify_fixed_point(space, drop, F(0))
    assert check.is_fixed and check.residual == 0

    g = GornickiNat()
    check = verify_fixed_point(g, TripleNat(g), F(1))
    assert not check.is_fixed
    assert check.residual == F(5, 3)  # 1 + |1 - 1/3|

    ident = Custom(space, lambda v: v, kind="identity")
    assert verify_fixed_point(space, ident, F(3, 2)).is_fixed


def test_uniqueness_probe_split_sample_finds_only_zero():
    space = SplitSet()
    drop = PiecewiseDrop(space)
    found = uniqueness_probe(space, drop, split_set_sample(50))
    assert found == [F(0)]


def test_uniqueness_probe_lists_a_repeated_fixed_point_once():
    space = SplitSet()
    drop = PiecewiseDrop(space)
    # 0 and F(0) are the same point of the split set
    for candidates in ([F(0), F(0)], [F(0), 0], [F(0), F(2), 0]):
        assert uniqueness_probe(space, drop, candidates) == [F(0)]


def test_uniqueness_probe_refuses_a_point_outside_the_maps_space():
    drop = PiecewiseDrop(SplitSet())
    with pytest.raises(MembershipError):
        drop.apply(F(1, 2))
    # 1/2 lies on the half line but not on the split set the map is bound to
    with pytest.raises(ValueError, match="space does not match"):
        uniqueness_probe(HalfLineUsual(), drop, [0, F(1, 2)])


def test_uniqueness_probe_tripling_finds_nothing():
    g = GornickiNat()
    assert uniqueness_probe(g, TripleNat(g), [F(n) for n in range(1, 101)]) == []


def test_uniqueness_probe_identity_returns_everything():
    fs = FiniteSpace(labels=("a", "b"), matrix=((0, 1), (1, 0)))
    ident = TableMap(fs, {"a": "a", "b": "b"})
    assert uniqueness_probe(fs, ident, ["a", "b"]) == ["a", "b"]


def test_gap_monotone_tracks_strict_condition_on_orbit_pairs():
    # wherever the strict inequality holds on consecutive orbit pairs the
    # gap sequence must strictly decrease; tripling on the integers is an
    # instance with no fixed point at all
    g = GornickiNat()
    run = run_picard(g, TripleNat(g), F(1), horizon=12)
    assert isinstance(run.orbit.status, Truncated)
    assert run.gap_monotone
    assert run.pairwise_bound_ok
    assert run.fixed_point is None


def test_orbit_trace_csv_golden():
    space = SplitSet()
    o = orbit(PiecewiseDrop(space), F(2), horizon=5)
    assert orbit_trace_csv(o) == (
        "step,point,gap\r\n"
        "0,2,3\r\n"
        "1,-1,1\r\n"
        "2,0,0\r\n"
        "3,0,\r\n"
    )


def test_run_picard_space_mismatch():
    space = SplitSet()
    with pytest.raises(ValueError, match="space"):
        run_picard(UnitIntervalRight(), PiecewiseDrop(space), F(2))


def test_inconsistent_fixed_point_raises_rather_than_asserts():
    # a defective rule: 1/2 looks fixed while the orbit is built, then moves
    calls = []

    def rule(v):
        calls.append(v)
        return v if len(calls) == 1 else F(0)
    space = UnitIntervalRight()
    with pytest.raises(TheoremContradictionError, match="does not fix"):
        run_picard(space, Custom(space, rule, kind="flaky"), F(1, 2))


def test_uniqueness_probe_raises_if_the_checker_passes_two_fixed_points(monkeypatch):
    fs = FiniteSpace(labels=("a", "b"), matrix=((0, 1), (1, 0)))
    ident = TableMap(fs, {"a": "a", "b": "b"})
    # a defective checker that lets every pair pass
    monkeypatch.setattr(StrictKannan, "verdict",
                        lambda self, d, image, x, y: (True, F(0), F(0)))
    with pytest.raises(TheoremContradictionError, match="two exact fixed points"):
        uniqueness_probe(fs, ident, ["a", "b"])

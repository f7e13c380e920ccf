"""Self-maps, orbit generation, and the cluster probe."""

import random
from fractions import Fraction as F

import pytest

from kannanlab.maps import (MAX_HORIZON, Custom, CycleDetected,
                            FixedPointReached, PiecewiseDrop, Scale,
                            StairScale, TableMap, TripleNat, Truncated,
                            load_map, orbit, orbit_cluster_probe)
from kannanlab.spaces import (ClosureError, FiniteSpace, GornickiNat,
                              HalfLineUsual, MembershipError, SplitSet,
                              UnitIntervalRight)


def test_stair_scale_branch_selection():
    stair = StairScale(HalfLineUsual())
    assert stair.apply(F(3, 2)) == F(1, 2)  # 1 <= 3/2 < 2, so divide by 3
    assert stair.apply(F(0)) == 0           # 0 sits on the first stair
    assert stair.apply(F(1)) == F(1, 3)     # stair boundary goes up
    assert stair.apply(F(5, 2)) == F(5, 8)


def test_piecewise_drop_and_triple_nat_images():
    drop = PiecewiseDrop(SplitSet())
    assert drop.apply(F(2)) == -1
    assert drop.apply(F(3, 2)) == 0
    triple = TripleNat(GornickiNat())
    assert triple.apply(1) == 3


def test_apply_membership_error_on_input():
    stair = StairScale(HalfLineUsual())
    with pytest.raises(MembershipError):
        stair.apply(F(-1))


def test_apply_closure_error_on_escaping_image():
    doubler = Custom(UnitIntervalRight(), lambda v: 2 * v, kind="escape")
    assert doubler.apply(F(1, 4)) == F(1, 2)
    with pytest.raises(ClosureError):
        doubler.apply(F(2, 3))


def test_table_map_closure_checked_at_construction():
    fs = FiniteSpace(labels=("a", "b"), matrix=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        TableMap(fs, {"a": "b"})  # undefined on b
    with pytest.raises(ClosureError):
        TableMap(fs, {"a": "z", "b": "a"})


def test_orbit_piecewise_drop_reaches_zero():
    o = orbit(PiecewiseDrop(SplitSet()), F(2), horizon=10)
    assert o.points == [F(2), F(-1), F(0), F(0)]
    assert o.gaps == [F(3), F(1), F(0)]
    assert o.status == FixedPointReached(at=2)


def test_orbit_doubling_truncates():
    o = orbit(Scale(HalfLineUsual(), 2), F(1), horizon=10)
    assert o.points == [F(2) ** k for k in range(11)]
    assert o.status == Truncated(horizon=10)


def test_orbit_from_fixed_point_stops_immediately():
    o = orbit(PiecewiseDrop(SplitSet()), F(0), horizon=5)
    assert o.points == [F(0), F(0)]
    assert o.gaps == [F(0)]
    assert o.status == FixedPointReached(at=0)


def test_orbit_detects_two_cycle():
    fs = FiniteSpace(labels=("a", "b"), matrix=((0, 1), (1, 0)))
    swap = TableMap(fs, {"a": "b", "b": "a"})
    o = orbit(swap, "a", horizon=10)
    assert o.points == ["a", "b", "a"]
    assert o.status == CycleDetected(entry=0, period=2)


def test_orbit_is_deterministic():
    stair = StairScale(HalfLineUsual())
    o1 = orbit(stair, F(3, 2), horizon=40)
    o2 = orbit(stair, F(3, 2), horizon=40)
    assert o1.points == o2.points
    assert o1.gaps == o2.gaps
    assert o1.status == o2.status


def test_table_map_orbits_resolve_within_size_steps():
    # pigeonhole: |X| applications must hit a fixed point or a cycle
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        labels = tuple(f"p{i}" for i in range(n))
        d = [[F(0) if i == j else 1 + F(rng.randint(0, 4), 4)
              for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                d[j][i] = d[i][j]
        fs = FiniteSpace(labels=labels, matrix=tuple(tuple(r) for r in d))
        tm = TableMap(fs, {l: labels[rng.randrange(n)] for l in labels})
        for start in labels:
            o = orbit(tm, start, horizon=n)
            assert not isinstance(o.status, Truncated)


def test_cluster_probe_stair_scale_accumulates_near_zero():
    o = orbit(StairScale(HalfLineUsual()), F(3, 2), horizon=64)
    probe = orbit_cluster_probe(o, F(1, 10))
    assert probe.clustered
    assert probe.evidence_only
    assert probe.max_pairwise < F(3, 2)


def test_cluster_probe_reads_distances_without_rechecking_orbit_points(monkeypatch):
    o = orbit(StairScale(HalfLineUsual()), F(3, 2), horizon=64)
    checked = []
    monkeypatch.setattr(HalfLineUsual, "check_member",
                        lambda self, p: checked.append(p))
    assert orbit_cluster_probe(o, F(1, 10)).clustered
    assert checked == []


def test_cluster_probe_doubling_is_unbounded_and_unclustered():
    o = orbit(Scale(HalfLineUsual(), 2), F(1), horizon=10)
    probe = orbit_cluster_probe(o, F(1, 2))
    assert not probe.clustered
    assert probe.max_pairwise == 1023  # 1024 - 1


def test_cluster_probe_constant_map_trivially_clusters():
    const = Custom(HalfLineUsual(), lambda v: F(7), kind="const7")
    o = orbit(const, F(100), horizon=10)
    probe = orbit_cluster_probe(o, F(0))
    assert probe.clustered


def test_stair_scale_fixes_zero():
    stair = StairScale(HalfLineUsual())
    assert stair.apply(F(0)) == 0


def test_load_map_json():
    half = HalfLineUsual()
    m = load_map({"kind": "scale", "c": "1/2"}, half)
    assert m.apply(F(1)) == F(1, 2)
    assert m.to_json() == {"kind": "scale", "c": "1/2"}
    fs = FiniteSpace(labels=("a", "b"), matrix=((0, 1), (1, 0)))
    tm = load_map({"kind": "table", "assign": {"a": "a", "b": "a"}}, fs)
    assert tm.apply("b") == "a"
    with pytest.raises(ValueError):
        load_map({"kind": "table", "assign": {}}, half)
    with pytest.raises(ValueError):
        load_map({"kind": "warp"}, half)


def test_orbit_rejects_bad_horizon():
    with pytest.raises(ValueError):
        orbit(StairScale(HalfLineUsual()), F(1), horizon=0)


def test_orbit_horizon_cap_at_both_edges():
    o = orbit(Scale(HalfLineUsual(), 2), F(1), horizon=MAX_HORIZON)
    assert o.status == Truncated(horizon=MAX_HORIZON)
    applied = []
    spy = Custom(HalfLineUsual(), lambda v: applied.append(v) or v, kind="spy")
    with pytest.raises(ValueError, match="horizon capped at 512"):
        orbit(spy, F(1), horizon=MAX_HORIZON + 1)
    assert applied == []

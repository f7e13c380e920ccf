"""The condition catalog: exact verdicts, witnesses, pairwise machinery."""

import random
from fractions import Fraction as F

import pytest

from kannanlab.conditions import (EXHAUSTIVE, ChenYeh, Fisher, IteratedKannan,
                                  KannanK, Khan, StrictKannan,
                                  check_epsdelta_orbit, evaluate_condition,
                                  kannan_ratio, load_condition,
                                  replay_violation, sample_pairs)
from kannanlab.maps import (MAX_HORIZON, Custom, PiecewiseDrop, Scale, TableMap,
                            TripleNat)
from kannanlab.picard import run_picard, uniqueness_probe, verify_fixed_point
from kannanlab.spaces import (ClosureError, FiniteSpace, GornickiNat,
                              HalfLineUsual, MembershipError, SplitSet,
                              split_set_sample)


def two_point_space():
    return FiniteSpace(labels=("a", "b"), matrix=((0, 1), (1, 0)))


def test_strict_kannan_on_split_set_pair():
    space, drop = SplitSet(), PiecewiseDrop(SplitSet())
    # lhs d(T(3/2), T2) = d(0, -1) = 1; rhs = (3/2 + 3)/2 = 9/4
    assert space.dist(drop.apply(F(3, 2)), drop.apply(F(2))) == 1
    assert (space.dist(F(3, 2), drop.apply(F(3, 2)))
            + space.dist(F(2), drop.apply(F(2)))) / 2 == F(9, 4)
    report = evaluate_condition(StrictKannan(), space, drop, [(F(3, 2), F(2))])
    assert report.holds and report.pairs_checked == 1


def test_strict_kannan_on_tripling_pair():
    space, triple = GornickiNat(), TripleNat(GornickiNat())
    # closed forms at (1, 2): 1 + 1/3 - 1/6 = 7/6 against 1 + 1/3 + 1/6 = 3/2
    assert space.dist(triple.apply(1), triple.apply(2)) == F(7, 6)
    assert (space.dist(1, 3) + space.dist(2, 6)) / 2 == F(3, 2)
    report = evaluate_condition(StrictKannan(), space, triple, [(F(1), F(2))])
    assert report.holds


def test_identity_map_violates_with_zero_bound():
    space = SplitSet()
    ident = Custom(space, lambda v: v, kind="identity")
    report = evaluate_condition(StrictKannan(), space, ident,
                                [(F(3, 2), F(2))])
    assert not report.holds
    v = report.violation
    assert v.lhs == space.dist(F(3, 2), F(2)) and v.lhs > 0
    assert (v.rhs, v.rhs_text) == (0, None)  # a rational bound renders from rhs
    assert replay_violation(report, space, ident)


def test_kannan_k_constant_map_holds_everywhere():
    space = two_point_space()
    const = TableMap(space, {"a": "a", "b": "a"})
    report = evaluate_condition(KannanK(F(1, 4)), space, const, EXHAUSTIVE)
    assert report.holds and report.domain_exhausted


def test_kannan_k_validates_constant_range():
    KannanK(F(0))
    with pytest.raises(ValueError):
        KannanK(F(1, 2))
    with pytest.raises(ValueError):
        KannanK(F(-1, 10))


def test_khan_decided_by_squaring():
    space = HalfLineUsual()
    halving = Scale(space, F(1, 2))
    # pair (1, 2): lhs = 1/2, bound = sqrt(1/2 * 1) and 1/4 < 1/2
    report = evaluate_condition(Khan(), space, halving, [(F(1), F(2))])
    assert report.holds
    # swap on two points: lhs = 1 against sqrt(1 * 1), strict fails
    fs = two_point_space()
    swap = TableMap(fs, {"a": "b", "b": "a"})
    report = evaluate_condition(Khan(), fs, swap, EXHAUSTIVE)
    assert not report.holds
    assert (report.violation.rhs, report.violation.rhs_text) == (None, "sqrt(1)")


def test_khan_never_holds_with_a_fixed_point_present():
    # x fixed makes the bound sqrt(0 * anything) = 0: nothing is below it
    fs = two_point_space()
    const = TableMap(fs, {"a": "a", "b": "a"})
    report = evaluate_condition(Khan(), fs, const, EXHAUSTIVE)
    assert not report.holds


def test_fisher_on_two_points():
    fs = two_point_space()
    const = TableMap(fs, {"a": "a", "b": "a"})
    assert evaluate_condition(Fisher(), fs, const, EXHAUSTIVE).holds
    swap = TableMap(fs, {"a": "b", "b": "a"})
    assert not evaluate_condition(Fisher(), fs, swap, EXHAUSTIVE).holds


def three_point_unit_space():
    return FiniteSpace(labels=("a", "b", "c"),
                       matrix=((0, 1, 1), (1, 0, 1), (1, 1, 0)))


def test_chen_yeh_weight_term_paths():
    fs = three_point_unit_space()
    tm = TableMap(fs, {"a": "b", "b": "a", "c": "c"})
    # pair (a, c): lhs = d(b, c) = 1; every weightless term is <= 1,
    # but a(x,y) * d(a,Tc) * d(c,Ta) = a * 1 * 1 rescues it for a = 2
    base = evaluate_condition(ChenYeh(a=F(0), b=F(0)), fs, tm, [("a", "c")])
    assert not base.holds
    via_a = evaluate_condition(ChenYeh(a=F(2), b=F(0)), fs, tm, [("a", "c")])
    assert via_a.holds
    via_b = evaluate_condition(ChenYeh(a=F(0), b=F(2)), fs, tm, [("a", "c")])
    assert via_b.holds  # 1 < 2 * sqrt(1 * 1), decided as lt_sqrt(1/2, 1)


def test_chen_yeh_rejects_negative_weights():
    with pytest.raises(ValueError):
        ChenYeh(a=F(-1))
    with pytest.raises(ValueError):
        ChenYeh(b=F(-1, 2))


def test_chen_yeh_uniqueness_bounds_are_validated():
    fs = three_point_unit_space()
    tm = TableMap(fs, {"a": "b", "b": "a", "c": "c"})
    cond = ChenYeh(a=F(2), b=F(0), uniqueness_bounds=True)
    with pytest.raises(ValueError, match="uniqueness bound"):
        evaluate_condition(cond, fs, tm, [("a", "c")])  # 2 > 1/d(a,c) = 1


def test_strict_kannan_implies_chen_yeh_with_zero_weights():
    # the Kannan mean is one of the max terms
    rng = random.Random(5)
    chen = ChenYeh(a=F(0), b=F(0))
    for _ in range(30):
        n = rng.randint(2, 4)
        labels = tuple(f"p{i}" for i in range(n))
        d = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = 1 + F(rng.randint(0, 6), 6)
        fs = FiniteSpace(labels=labels, matrix=tuple(tuple(r) for r in d))
        tm = TableMap(fs, {l: labels[rng.randrange(n)] for l in labels})
        if evaluate_condition(StrictKannan(), fs, tm, EXHAUSTIVE).holds:
            assert evaluate_condition(chen, fs, tm, EXHAUSTIVE).holds


def test_kannan_k_monotone_in_k_and_implies_strict():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        labels = tuple(f"p{i}" for i in range(n))
        d = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = 1 + F(rng.randint(0, 6), 6)
        fs = FiniteSpace(labels=labels, matrix=tuple(tuple(r) for r in d))
        tm = TableMap(fs, {l: labels[rng.randrange(n)] for l in labels})
        if evaluate_condition(KannanK(F(1, 4)), fs, tm, EXHAUSTIVE).holds:
            assert evaluate_condition(KannanK(F(1, 3)), fs, tm, EXHAUSTIVE).holds
            # strictness on every positive-displacement pair
            for x, y in fs.distinct_pairs():
                tx, ty = tm.apply(x), tm.apply(y)
                s = fs.dist(x, tx) + fs.dist(y, ty)
                if s > 0:
                    assert fs.dist(tx, ty) < s / 2


def test_iterated_kannan_shift_zero_coincides_with_strict():
    rng = random.Random(23)
    fs = three_point_unit_space()
    labels = fs.labels
    for _ in range(27):
        tm = TableMap(fs, {l: labels[rng.randrange(3)] for l in labels})
        for pair in fs.distinct_pairs():
            a = evaluate_condition(StrictKannan(), fs, tm, [pair]).holds
            b = evaluate_condition(IteratedKannan(0), fs, tm, [pair]).holds
            assert a == b


def test_iterated_kannan_shift_one_exact_values():
    space = HalfLineUsual()
    halving = Scale(space, F(1, 2))
    # shifted pair (1, 2): d(T^2 1, T^2 2) = 1/4 against (1/4 + 1/2)/2 = 3/8
    report = evaluate_condition(IteratedKannan(1), space, halving,
                                [(F(1), F(2))])
    assert report.holds
    with pytest.raises(ValueError):
        IteratedKannan(-1)
    IteratedKannan(MAX_HORIZON)
    with pytest.raises(ValueError, match="capped"):
        IteratedKannan(MAX_HORIZON + 1)


def test_evaluate_rejects_an_equal_pair():
    space = SplitSet()
    drop = PiecewiseDrop(space)
    with pytest.raises(ValueError, match="distinct"):
        evaluate_condition(StrictKannan(), space, drop, [(F(2), F(2))])


def test_exhaustive_needs_finite_space():
    with pytest.raises(ValueError, match="finite"):
        evaluate_condition(StrictKannan(), SplitSet(), PiecewiseDrop(SplitSet()),
                           EXHAUSTIVE)


def test_pair_helpers_and_report_json():
    pts = [F(1), F(2), F(3)]
    assert sample_pairs(pts) == ((F(1), F(2)), (F(1), F(3)), (F(2), F(3)))

    space = SplitSet()
    ident = Custom(space, lambda v: v, kind="identity")
    report = evaluate_condition(StrictKannan(), space, ident, [(F(3, 2), F(2))])
    js = report.to_json()
    assert js["domain_exhausted"] is False
    assert js["verdict"]["violated"] == {"x": "3/2", "y": "2",
                                         "lhs": "1/2", "rhs": "0"}


def test_strict_kannan_holds_on_full_split_sample():
    space = SplitSet()
    drop = PiecewiseDrop(space)
    sample = split_set_sample(40)
    report = evaluate_condition(StrictKannan(), space, drop,
                                sample_pairs(sample))
    assert report.holds
    assert report.pairs_checked == 40 * 39 // 2


def test_kannan_ratio_examples():
    fs = two_point_space()
    swap = TableMap(fs, {"a": "b", "b": "a"})
    assert kannan_ratio(fs, swap, EXHAUSTIVE) == F(1, 2)  # 1 / (1 + 1)
    const = TableMap(fs, {"a": "a", "b": "a"})
    assert kannan_ratio(fs, const, EXHAUSTIVE) == 0
    ident = TableMap(fs, {"a": "a", "b": "b"})
    assert kannan_ratio(fs, ident, EXHAUSTIVE) is None  # zero displacement


def test_kannan_ratio_rejects_equal_pair_like_evaluate():
    space = HalfLineUsual()
    halving = Scale(space, F(1, 2))
    # (1, 1) is no pair, and the int 1 is the same point as the Fraction 1
    for pairs in ([(F(1), F(1))], [(F(1), 1)]):
        with pytest.raises(ValueError, match="pair points must be distinct") as ratio:
            kannan_ratio(space, halving, pairs)
        with pytest.raises(ValueError) as evaluated:
            evaluate_condition(StrictKannan(), space, halving, pairs)
        assert str(ratio.value) == str(evaluated.value)


def test_load_condition_round_trip():
    for spec in ({"kind": "strict_kannan"}, {"kind": "fisher"},
                 {"kind": "khan"}, {"kind": "kannan_k", "k": "1/3"},
                 {"kind": "iterated_kannan", "m": 2}):
        cond = load_condition(spec)
        assert load_condition(cond.to_json()) == cond
    chen = load_condition({"kind": "chen_yeh", "a": "1/2", "b": "1"})
    assert chen.a == F(1, 2) and chen.b == 1
    with pytest.raises(ValueError):
        load_condition({"kind": "meir_keeler"})


# ---------------------------------------------------------------------------
# the orbit eps-delta scan
# ---------------------------------------------------------------------------

def test_epsdelta_halving_orbit_passes_with_delta_eq_eps():
    space = HalfLineUsual()
    halving = Scale(space, F(1, 2))
    [report] = check_epsdelta_orbit(space, halving, F(1),
                                    eps_grid=[F(1, 4)],
                                    delta_candidates=[F(1, 4)], horizon=16)
    assert report.passing_delta == F(1, 4)
    assert report.cells[0].status == "holds"
    assert report.cells[0].exercised > 0
    assert report.evidence_only


def test_epsdelta_doubling_orbit_has_no_usable_delta():
    # every distinct-iterate distance is >= 1, so premises below 1/2 are
    # never exercised: vacuous, which certifies nothing and does not pass
    space = HalfLineUsual()
    doubling = Scale(space, 2)
    [report] = check_epsdelta_orbit(space, doubling, F(1),
                                    eps_grid=[F(1, 4)],
                                    delta_candidates=[F(1, 4), F(1, 8)],
                                    horizon=16)
    assert report.passing_delta is None
    assert [c.status for c in report.cells] == ["vacuous", "vacuous"]


def test_epsdelta_doubling_orbit_violates_at_larger_eps():
    space = HalfLineUsual()
    doubling = Scale(space, 2)
    [report] = check_epsdelta_orbit(space, doubling, F(1),
                                    eps_grid=[F(1)],
                                    delta_candidates=[F(1)], horizon=8)
    assert report.passing_delta is None
    cell = report.cells[0]
    assert cell.status == "violated"
    assert cell.witness == (0, 1)  # d(1,2) = 1 < 2 but d(2,4) = 2 > 1


def test_epsdelta_constant_map_passes_any_grid():
    space = HalfLineUsual()
    const = Custom(space, lambda v: F(1), kind="const1")
    reports = check_epsdelta_orbit(space, const, F(5),
                                   eps_grid=[F(1, 7), F(3)],
                                   delta_candidates=[F(1, 9)], horizon=4)
    assert all(r.passing_delta == F(1, 9) for r in reports)


def test_epsdelta_validates_inputs():
    space = HalfLineUsual()
    halving = Scale(space, F(1, 2))
    with pytest.raises(ValueError):
        check_epsdelta_orbit(space, halving, F(1), [F(1, 4)], [F(1, 4)],
                             horizon=1)
    with pytest.raises(ValueError):
        check_epsdelta_orbit(space, halving, F(1), [F(0)], [F(1, 4)],
                             horizon=4)


def test_epsdelta_horizon_cap_at_both_edges():
    fs = two_point_space()
    const = TableMap(fs, {"a": "a", "b": "a"})
    [report] = check_epsdelta_orbit(fs, const, "b", [F(1, 7)], [F(1, 9)],
                                    horizon=MAX_HORIZON)
    assert report.horizon == MAX_HORIZON and report.passing_delta == F(1, 9)
    applied = []
    space = HalfLineUsual()
    spy = Custom(space, lambda v: applied.append(v) or v, kind="spy")
    with pytest.raises(ValueError, match="horizon capped at 512"):
        check_epsdelta_orbit(space, spy, F(1), [F(1)], [F(1)],
                             horizon=MAX_HORIZON + 1)
    assert applied == []


# ---------------------------------------------------------------------------
# the trust boundary: each point checked once, errors in pair order
# ---------------------------------------------------------------------------

# Space A: d(a,b) = 1, d(a,c) = d(b,c) = 2; space B: all distances 1.  The
# map is bound to B, so every scan of it on A is refused with one
# ValueError rather than read with A's distances.
LABELS = ("a", "b", "c")
A_SPACE = FiniteSpace(labels=LABELS, matrix=((0, 1, 2), (1, 0, 2), (2, 2, 0)))
B_SPACE = FiniteSpace(labels=LABELS, matrix=((0, 1, 1), (1, 0, 1), (1, 1, 0)))
T_ON_B = TableMap(B_SPACE, {"a": "a", "b": "c", "c": "c"})


def kannan_third_on_b():
    # violated at (a, b): d(Ta, Tb) = d(a, c) = 1 > (0 + d(b, c)) / 3
    return evaluate_condition(KannanK(F(1, 3)), B_SPACE, T_ON_B)


# entry point -> (run it on a space, its result on the map's own space B)
SCANS = {
    "evaluate_condition": (
        lambda s: evaluate_condition(KannanK(F(1, 3)), s, T_ON_B).holds, False),
    "kannan_ratio": (lambda s: kannan_ratio(s, T_ON_B), 1),
    "replay_violation": (
        lambda s: replay_violation(kannan_third_on_b(), s, T_ON_B), True),
    "run_picard": (lambda s: run_picard(s, T_ON_B, "b").fixed_point, "c"),
    "check_epsdelta_orbit": (
        lambda s: check_epsdelta_orbit(s, T_ON_B, "b", [F(1)], [F(1)],
                                       horizon=2)[0].passing_delta, 1),
    "verify_fixed_point": (lambda s: verify_fixed_point(s, T_ON_B, "b").residual, 1),
    "uniqueness_probe": (lambda s: uniqueness_probe(s, T_ON_B, LABELS), ["a", "c"]),
}


@pytest.mark.parametrize("entry", list(SCANS))
def test_every_scan_refuses_a_map_on_another_space(entry):
    scan, on_own_space = SCANS[entry]
    assert scan(B_SPACE) == on_own_space
    with pytest.raises(ValueError, match=r"^space does not match the map's space$"):
        scan(A_SPACE)


def identity_escaping_at_five():
    # identity on the half line (violates every strict condition at any
    # pair), except that 5 is sent outside the space
    return Custom(HalfLineUsual(), lambda v: F(-1) if v == 5 else v,
                  kind="leaky_identity")


def test_violation_at_an_earlier_pair_comes_before_a_later_escape():
    m = identity_escaping_at_five()
    report = evaluate_condition(StrictKannan(), m.space, m,
                                [(F(1), F(2)), (F(3), F(5))])
    assert (report.violation.x, report.violation.y) == (1, 2)
    assert report.pairs_checked == 1


def test_escape_at_an_earlier_pair_comes_before_a_later_violation():
    m = identity_escaping_at_five()
    with pytest.raises(ClosureError, match="maps 5 to -1"):
        evaluate_condition(StrictKannan(), m.space, m,
                           [(F(3), F(5)), (F(1), F(2))])


def test_non_member_after_a_violation_is_never_reached():
    m = identity_escaping_at_five()
    report = evaluate_condition(StrictKannan(), m.space, m,
                                [(F(1), F(2)), (F(-1), F(3))])
    assert not report.holds and report.pairs_checked == 1
    with pytest.raises(MembershipError):
        evaluate_condition(StrictKannan(), m.space, m,
                           [(F(-1), F(3)), (F(1), F(2))])


def test_a_checked_point_does_not_vouch_for_an_equal_float_or_bool():
    space = HalfLineUsual()
    halving = Scale(space, F(1, 2))
    for raw in (0.5, True):
        with pytest.raises(MembershipError):
            evaluate_condition(StrictKannan(), space, halving,
                               [(F(1, 2), F(1)), (raw, F(3))])


def test_each_distinct_point_and_image_is_checked_once(monkeypatch):
    space = SplitSet()
    drop = PiecewiseDrop(space)
    checked = []
    original = SplitSet.check_member
    monkeypatch.setattr(SplitSet, "check_member",
                        lambda self, p: checked.append(p) or original(self, p))
    points = split_set_sample(10)
    report = evaluate_condition(StrictKannan(), space, drop, sample_pairs(points))
    assert report.holds and report.pairs_checked == 45
    # the ten points, then the image of each one, each checked exactly once
    images = [F(-1) if p == 2 else F(0) for p in points]
    assert sorted(checked) == sorted(points + images)


def test_violation_witness_text_for_irrational_bounds():
    fs = three_point_unit_space()
    tm = TableMap(fs, {"a": "b", "b": "a", "c": "c"})
    report = evaluate_condition(ChenYeh(a=F(0), b=F(0)), fs, tm, [("a", "c")])
    assert report.violation.rhs is None
    assert report.violation.rhs_text == "max(1, 1/2, 1, 0, sqrt(0), 0, 0*sqrt(1))"


def test_conditions_declare_their_finite_space_conclusions():
    converging = (StrictKannan(), KannanK(F(1, 3)), IteratedKannan(2))
    assert all(c.picard_converges and c.unique_fixed_point for c in converging)
    for cond in (Fisher(), Khan()):
        assert cond.unique_fixed_point and not cond.picard_converges
    assert not ChenYeh().unique_fixed_point
    assert ChenYeh(uniqueness_bounds=True).unique_fixed_point

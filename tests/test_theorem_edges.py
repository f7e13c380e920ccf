"""Edge cases that a wrong verdict would slip past elsewhere in the suite.

A tie at the Kannan bound, a Fisher formula read against Chen–Yeh's
Fisher mean, Chen–Yeh against a literal seven-term oracle, and a census
row that breaks only the Picard branch of the theorem check.
"""

from fractions import Fraction as F

import pytest

from kannanlab.census import (TheoremContradictionError, _check_theorems,
                              enumerate_census, map_from_id,
                              random_finite_space)
from kannanlab.conditions import (EXHAUSTIVE, ChenYeh, Fisher, KannanK,
                                  StrictKannan, evaluate_condition)
from kannanlab.maps import TableMap
from kannanlab.rationals import lt_sqrt
from kannanlab.spaces import FiniteSpace


def test_kannan_k_holds_at_a_tie():
    # d(a,b) = 1, d(a,c) = d(b,c) = 3; the pair (b, c) gives
    # d(Tb,Tc) = d(b,a) = 1 = (1/3)(d(b,b) + d(c,a)) = (1/3)(0 + 3)
    space = FiniteSpace(labels=("a", "b", "c"),
                        matrix=((0, 1, 3), (1, 0, 3), (3, 3, 0)))
    t = TableMap(space, {"a": "b", "b": "b", "c": "a"})
    d = space.dist
    assert d("b", "a") == F(1, 3) * (d("b", "b") + d("c", "a"))
    assert evaluate_condition(KannanK(F(1, 3)), space, t, EXHAUSTIVE).holds


def test_fisher_rows_are_chen_yeh_rows():
    # Chen–Yeh's maximum includes the Fisher mean (d(x,Ty) + d(y,Tx))/2,
    # so every Fisher map is a chen_yeh(0, 0) map
    conds = [Fisher(), ChenYeh(F(0), F(0))]
    fisher_rows = 0
    for size, seed in ((4, 0), (4, 1), (4, 2), (4, 3), (5, 0)):
        space = random_finite_space(size, seed=seed, mode="line")
        for row in enumerate_census(space, conds):
            if dict(row.satisfies)["fisher"]:
                fisher_rows += 1
                assert dict(row.satisfies)["chen_yeh(a=0,b=0)"], (size, seed, row.map_id)
    assert fisher_rows > 0


def chen_yeh_literal(space, t, a, b):
    """The seven-term Chen–Yeh maximum, term by term, on every pair."""
    d = space.dist
    for x, y in space.distinct_pairs():
        tx, ty = t.apply(x), t.apply(y)
        lhs = d(tx, ty)
        dxtx, dyty, dxty, dytx = d(x, tx), d(y, ty), d(x, ty), d(y, tx)
        if not (lhs < d(x, y)
                or lhs < (dxtx + dyty) / 2
                or lhs < (dxty + dytx) / 2
                or lhs < dxtx * dyty / d(x, y)
                or lt_sqrt(lhs, dxtx * dyty)
                or lhs < a * dxty * dytx
                # b * sqrt(v) = sqrt(b^2 v) for b >= 0
                or lt_sqrt(lhs, b * b * dxty * dytx)):
            return False
    return True


def test_chen_yeh_matches_a_literal_seven_term_oracle():
    weights = [(F(0), F(0)), (F(2), F(0)), (F(0), F(1, 2)), (F(0), F(2)),
               (F(1, 3), F(3))]
    seen = set()
    for mode in ("band", "line"):
        for size in (3, 4):
            for seed in (0, 1, 2):
                space = random_finite_space(size, seed=seed, mode=mode)
                for map_id in range(size ** size):
                    t = map_from_id(space, map_id)
                    for a, b in weights:
                        got = evaluate_condition(ChenYeh(a, b), space, t,
                                                 EXHAUSTIVE).holds
                        assert got == chen_yeh_literal(space, t, a, b), (
                            mode, size, seed, map_id, a, b)
                        seen.add((a, b, got))
    # each weight pair met maps on both sides of the verdict
    assert len(seen) == 2 * len(weights)


def test_contradiction_error_fires_on_a_non_converging_unique_fixed_point():
    # one fixed point satisfies uniqueness, so only the Picard branch
    # can catch a strict-Kannan row whose iteration fails to converge
    with pytest.raises(TheoremContradictionError, match="converges=False"):
        _check_theorems([StrictKannan()], ((("strict_kannan", True),), 1, False, None),
                        "012")

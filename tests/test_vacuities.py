"""Conditions the census can only satisfy vacuously, with their proofs.

Each test states a fact proved in its docstring and checks it on every
self-map of small seeded spaces.  A failure is not a flaky oracle: it
means a verdict or the census disagrees with a proof, so the code is wrong.

Throughout, d(x) = d(x, Tx) is the displacement of x.  For a strictly
Kannan map and x != Tx, the pair (x, Tx) reads d(Tx) < (d(x) + d(Tx))/2,
that is d(Tx) < d(x): displacement falls strictly along an orbit.
"""

from fractions import Fraction as F
from functools import cache

import pytest

from kannanlab.census import enumerate_census, random_finite_space
from kannanlab.conditions import IteratedKannan, KannanK, Khan, StrictKannan

SIZES = [2, 3, 4, 5]
SEEDS = range(3)
CONDITIONS = (StrictKannan(), KannanK(F(1, 3)), Khan(),
              IteratedKannan(1), IteratedKannan(2))


@cache
def satisfying_ids(size, seed, mode):
    """Per condition label, the ids of the maps that satisfy it."""
    space = random_finite_space(size, seed=seed, mode=mode)
    rows = enumerate_census(space, CONDITIONS)
    return {c.label(): {r.map_id for r in rows if dict(r.satisfies)[c.label()]}
            for c in CONDITIONS}


def constant_ids(size):
    return {str(digit) * size for digit in range(size)}


@pytest.mark.parametrize("size", SIZES)
def test_band_strict_and_kannan_third_maps_are_exactly_the_constants(size):
    """Band distances lie in [1, 2], and there only constants are Kannan.

    A strict map has a fixed point p: displacement falls strictly along
    every orbit until it reaches 0, and a finite space has no infinite
    strictly falling sequence.  If T is not constant, some x has Tx != p,
    so x != p, and the pair (x, p) gives d(Tx, p) >= 1 on the left and
    (d(x, Tx) + 0)/2 <= 1 on the right: the strict inequality fails.
    kannan_k(1/3) implies strict: a pair of two fixed points would need
    d(x, y) <= 0, so every pair has a positive displacement sum s, and
    then lhs <= s/3 < s/2.  Conversely a constant map c satisfies both,
    as lhs = 0 and x, y cannot both be c.
    """
    for seed in SEEDS:
        found = satisfying_ids(size, seed, "band")
        assert found["strict_kannan"] == constant_ids(size), seed
        assert found["kannan_k(1/3)"] == constant_ids(size), seed


@pytest.mark.parametrize("mode", ["band", "line"])
@pytest.mark.parametrize("size", SIZES)
def test_khan_holds_for_no_map(size, mode):
    """With n >= 2 points, every map violates d(Tx,Ty) < sqrt(d(x)d(y)).

    If T fixes a point p, take any x != p: the pair (x, p) has
    sqrt(d(x) * 0) = 0 <= d(Tx, p) on the right and left.  Otherwise
    take x of least displacement, so x != Tx and d(x) <= d(Tx): the pair
    (x, Tx) has sqrt(d(x) d(Tx)) <= d(Tx) = d(Tx, T^2 x), the left side.
    """
    for seed in SEEDS:
        assert satisfying_ids(size, seed, mode)["khan"] == set(), seed


@pytest.mark.parametrize("mode", ["band", "line"])
@pytest.mark.parametrize("size", SIZES)
def test_iterated_kannan_holds_for_no_map(size, mode):
    """With n >= 2 points and m >= 1, iterated_kannan(m) holds for no map.

    Let x != Tx.  If T^m x were fixed, the pair (x, Tx) would compare
    T^m x with T^m Tx = T^m x, giving 0 < 0, false.  So T^m x is not
    fixed, and neither is Tx (else T^m x = Tx would be fixed); by
    induction no orbit point of x is fixed.  For each such point a, the
    pair (a, Ta) shifted m steps is the strict pair (u, Tu) with
    u = T^m a, so d(Tu) < d(u): displacement falls strictly along the
    orbit of T^m x forever, which a finite space cannot hold.  So T is
    the identity, and any pair x != y then gives d(x, y) < 0, false.
    """
    for seed in SEEDS:
        found = satisfying_ids(size, seed, mode)
        assert found["iterated_kannan(1)"] == set(), seed
        assert found["iterated_kannan(2)"] == set(), seed

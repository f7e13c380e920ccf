"""Exact scalar arithmetic and the sqrt comparison trick."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kannanlab.rationals import as_scalar, lt_sqrt, parse_scalar, scalar_text

scalars = st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 4)


def test_lt_sqrt_examples():
    assert lt_sqrt(F(0), F(1, 4)) is True
    # boundary: (1/2)^2 == 1/4, strict comparison fails
    assert lt_sqrt(F(1, 2), F(1, 4)) is False
    # 1/9 < 1/4
    assert lt_sqrt(F(1, 3), F(1, 4)) is True


def test_lt_sqrt_negative_lhs_always_below_root():
    assert lt_sqrt(F(-5), F(0)) is True
    assert lt_sqrt(F(-1, 1000), F(1, 10 ** 12)) is True


def test_lt_sqrt_rejects_negative_radicand():
    with pytest.raises(ValueError):
        lt_sqrt(F(1), F(-1, 4))


def test_as_scalar_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(True)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("one half")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


@given(x=st.fractions())
def test_text_round_trip(x):
    assert parse_scalar(scalar_text(x)) == x


def test_parse_accepts_decimal_and_integer_shorthand():
    assert parse_scalar("1.5") == F(3, 2)
    assert parse_scalar("-7") == F(-7)
    assert parse_scalar("+2/4") == F(1, 2)


@settings(max_examples=300, deadline=None)
@given(p=scalars.map(abs), q=scalars.map(abs))
def test_geometric_mean_never_exceeds_the_arithmetic_mean(p, q):
    # AM-GM: sqrt(pq) <= (p+q)/2, so ChenYeh.verdict skips its
    # sqrt(d(x,Tx)d(y,Ty)) term once lhs has reached the Kannan mean
    assert lt_sqrt((p + q) / 2, p * q) is False


@settings(max_examples=300, deadline=None)
@given(a=scalars, u=scalars.map(abs))
def test_lt_sqrt_agrees_with_floats_away_from_the_boundary(a, u):
    af = float(a)
    root = math.sqrt(float(u))
    assume(abs(af - root) > 2 ** -30)
    assert lt_sqrt(a, u) == (af < root)

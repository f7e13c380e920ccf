"""Exact rational scalars and the comparison tricks the lab is built on.

Everything numeric in the core is a :class:`fractions.Fraction` (a
"Scalar" in this package): arbitrary-precision integers over a positive
denominator, always in lowest terms, with exact arithmetic.  The
contractive conditions checked elsewhere are *strict* inequalities, so no
floating point is allowed anywhere near a verdict, and no report renders
one.  The only floats in the package are the long doubles of
``census.khan_float_crosscheck``, an independent check of ``lt_sqrt``
that never decides a verdict.

The one non-rational quantity the lab ever meets is a square root
(geometric-mean contractive terms).  ``lt_sqrt`` decides ``a < sqrt(u)``
without materializing the root, by sign analysis and squaring.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)


def as_scalar(value) -> Fraction:
    """Coerce ints, Fractions, and "p/q" / decimal strings to an exact Scalar.

    Floats are rejected: a float argument is almost always a silent
    precision bug in this code base.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a Scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as an exact Scalar")


def json_scalar(value) -> Fraction:
    """``as_scalar`` for a JSON field: a float or bool is a ValueError there."""
    try:
        return as_scalar(value)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def parse_scalar(text: str) -> Fraction:
    """Parse the "p/q" text form (integer shorthand "p" and decimals allowed)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a valid Scalar literal: {text!r}") from exc


def scalar_text(x: Fraction) -> str:
    """Render a Scalar as "p/q" (or "p" when the denominator is 1)."""
    return str(x)


def lt_sqrt(a, u) -> bool:
    """Decide ``a < sqrt(u)`` exactly, without computing the root.

    True iff a < 0, or a >= 0 and a**2 < u.  Raises ValueError for u < 0
    (no real root to compare against).
    """
    a = as_scalar(a)
    u = as_scalar(u)
    if u < 0:
        raise ValueError(f"lt_sqrt: negative radicand {u}")
    if a < 0:
        return True
    return a * a < u

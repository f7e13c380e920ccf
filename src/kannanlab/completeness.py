"""Fixed-point-free strict-Kannan maps built from incompleteness.

If a space has a Cauchy sequence (x_n) with no limit in the space, a
self-map with no fixed point can be built that still satisfies the strict
Kannan inequality on every distinct pair: send each point far enough down
the sequence tail that images are closer together than half of any
distance back to their sources.  The existence of such a map is exactly
why spaces on which every strict-Kannan map has a fixed point must be
complete.

This module builds that map on a space whose every point is a sequence
term, the reciprocal set {1/n}; a point off the sequence is refused.  A
witness packages the sequence together with two *certified* bounds:

* ``gap_lower_bound(n)``  — a positive lower bound on inf of d(x_k, x_n)
  over k != n (positive because a non-convergent Cauchy sequence has no
  convergent subsequence);
* ``tail_bound(N)``       — a nonincreasing upper bound, tending to 0, on
  sup of d(x_m, x_m') over m, m' >= N.

The bounds are supplied analytically per witness and spot-checked on
prefixes; an infinite inf/sup is never computed.  Each witness also
supplies ``target(n)`` in closed form: the *least* n' > n with
tail_bound(n') < gap_lower_bound(n)/2 (the construction only needs
existence; least-index selection makes it deterministic).  Every target
served is checked to lie deeper than its source, and its leastness is
checked exactly against the two Fraction bounds on the scan's
``stated_sample``; either failure raises TheoremContradictionError.

The gallery's three infinite examples are decided on exact integer rows,
each pair in its own closed form, and every route refuses an input past
its bound, derived in code from the largest value its rows form, before
any pair is scanned:

* the reciprocal prefix: every pair of 1/k -> 1/k' on int64 rows of the
  denominators (``_strict_kannan_row``);
* a sample of a usual-metric space, the split set's for the gallery's
  discontinuous drop map: every pair on int64 rows of the points and
  images scaled by their common denominator (``_strict_kannan_line_row``);
* the positive-integer check: x -> 3x on the 1 + |1/x - 1/y| metric is
  continuous and fixed point free on a complete (but non-compact) space,
  yet strictly Kannan on every distinct pair, the two closed forms

    d(Tx,Ty) = 1 + 1/(3x) - 1/(3y)   <   1 + 1/(3x) + 1/(3y)
             = (d(x,Tx) + d(y,Ty)) / 2          (for x < y)

  verified on every pair up to n on tiles of rows of numerators over
  6xy, written into one workspace of ``TILE_CELLS`` cells, in int32 while
  n is at most ``_INT32_SAFE_N`` (18,918) and in int64 above it, up to
  ``MAX_GORNICKI_N`` (65,537), the largest n whose rows fit it.

The first two share one row scanner, ``_scan_pair_rows``, and one Fraction
cross-check, ``_cross_checked``, which decides the ``stated_sample`` of
their pairs again through :func:`evaluate_condition`; the third has its
own tiles and cross-check, as it decides three checks a pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .conditions import ConditionReport, StrictKannan, evaluate_condition
from .maps import SelfMap, TripleNat, check_same_space
from .spaces import (GornickiNat, ReciprocalSet, Space, TheoremContradictionError,
                     _UsualMetric, point_text, stated_sample)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncompleteWitness:
    """A non-convergent Cauchy sequence with certified distance bounds.

    ``term(n)`` is x_n for n >= 1, all terms distinct.  ``term_index``
    inverts term on sequence members (None off the sequence, a point the
    tail map refuses).  ``target(n)`` is the closed form of the least
    n' > n with tail_bound(n') < gap_lower_bound(n)/2, which the tail map
    sends x_n to.
    """

    space: Space
    term: Callable[[int], Fraction]
    gap_lower_bound: Callable[[int], Fraction]
    tail_bound: Callable[[int], Fraction]
    term_index: Callable[[Fraction], Optional[int]]
    target: Callable[[int], int]


def build_reciprocal_witness() -> IncompleteWitness:
    """The stock witness: x_n = 1/n in the space {1/n : n >= 1}.

    Every point of the space is a sequence term.  The certified bounds
    are closed forms: the nearest neighbour of 1/n is 1/(n+1), giving
    gap_lower_bound(n) = 1/(n(n+1)); and all points beyond index N lie
    in (0, 1/N], giving tail_bound(N) = 1/N.  The least n' with
    1/n' < 1/(2n(n+1)) is then target(n) = 2n(n+1) + 1.
    """
    space = ReciprocalSet()

    def term(n: int) -> Fraction:
        if n < 1:
            raise ValueError("sequence indices start at 1")
        return Fraction(1, n)

    def gap_lower_bound(n: int) -> Fraction:
        return Fraction(1, n * (n + 1))

    def tail_bound(big_n: int) -> Fraction:
        return Fraction(1, big_n)

    def term_index(p: Fraction) -> Optional[int]:
        return p.denominator if p.numerator == 1 else None

    def target(n: int) -> int:
        return 2 * n * (n + 1) + 1

    return IncompleteWitness(space=space, term=term,
                             gap_lower_bound=gap_lower_bound,
                             tail_bound=tail_bound,
                             term_index=term_index,
                             target=target)


def spot_check_witness(w: IncompleteWitness, prefix: int) -> bool:
    """Numerically spot-check the certified bounds on a finite prefix.

    Confirms distinct terms, gap_lower_bound(n) at or below the observed
    minimum distance within the first 2*prefix indices, tail_bound(N)
    nonincreasing and at or above observed tail spreads, and target(n)
    the least admissible index for every n <= prefix.
    """
    terms = [w.term(n) for n in range(1, 2 * prefix + 1)]
    if len(set(terms)) != len(terms):
        return False
    terms = [w.space.check_member(t) for t in terms]
    d = w.space._dist
    for n in range(1, prefix + 1):
        glb = w.gap_lower_bound(n)
        if glb <= 0:
            return False
        observed = min(d(terms[k - 1], terms[n - 1])
                       for k in range(1, len(terms) + 1) if k != n)
        if glb > observed:
            return False
    prev = None
    for big_n in range(1, prefix + 1):
        tb = w.tail_bound(big_n)
        if prev is not None and tb > prev:
            return False
        prev = tb
        spread = max(d(terms[i], terms[j])
                     for i in range(big_n - 1, len(terms))
                     for j in range(i + 1, len(terms)))
        if spread > tb:
            return False
    return all(_target_is_least(w, n, w.target(n)) for n in range(1, prefix + 1))


def _target_is_least(w: IncompleteWitness, n0: int, t: int) -> bool:
    """Whether t is the least n > n0 with tail_bound(n) < gap_lower_bound(n0)/2.

    Two predicate calls, in Fraction arithmetic: the bound holds at the
    target and fails one index before it (or that index is n0 itself).
    Under a nonincreasing tail_bound the admissible indices are upward
    closed, so this is the index ``_least_index`` would gallop to.
    """
    half_gap = w.gap_lower_bound(n0) / 2
    if half_gap <= 0:
        raise ValueError(f"witness gap bound is not positive at n={n0}")
    return (t > n0 and w.tail_bound(t) < half_gap
            and (t - 1 == n0 or not w.tail_bound(t - 1) < half_gap))


# ---------------------------------------------------------------------------
# The constructed map
# ---------------------------------------------------------------------------

class ConstructedMap(SelfMap):
    """The tail map built from a witness whose points are all sequence terms.

    A sequence term x_{n0} goes to x_{n'} for the least n' > n0 with
    tail_bound(n') < gap_lower_bound(n0) / 2, read from the witness's
    closed form ``target``; a point off the sequence is refused with
    ValueError.  Targets sit strictly deeper in the sequence than their
    sources by construction, and ``target_index`` enforces it on every
    target it serves; with distinct terms, the map has no fixed point.
    """

    kind = "constructed_counterexample"

    def __init__(self, witness: IncompleteWitness):
        self.space = witness.space
        self.witness = witness

    def target_index(self, n0: int) -> int:
        """The target index of the source term x_{n0}: the witness's closed form.

        It lies deeper than n0 by construction, and a target that does
        not raises TheoremContradictionError, so target != source is
        enforced on every call.  Its leastness is checked apart, by
        ``check_target_is_least``.
        """
        t = self.witness.target(n0)
        if not t > n0:
            raise TheoremContradictionError(
                f"the witness's target {t} for the source index {n0} does not "
                "lie deeper in the sequence")
        return t

    def check_target_is_least(self, n0: int) -> None:
        """Raise TheoremContradictionError unless target_index(n0) is the least
        admissible index, decided through the witness's Fraction bounds."""
        t = self.target_index(n0)
        if not _target_is_least(self.witness, n0, t):
            raise TheoremContradictionError(
                f"the witness's target {t} for the source index {n0} is not the "
                f"least n > {n0} with tail_bound(n) < gap_lower_bound({n0})/2")

    def _image(self, p):
        n0 = self.witness.term_index(p)
        if n0 is None:
            raise ValueError(f"the tail map is defined on sequence terms only, "
                             f"and {p} is not one")
        return self.witness.term(self.target_index(n0))


def _least_index(satisfied: Callable[[int], bool], start: int) -> int:
    """Least n >= start with satisfied(n), for upward-closed predicates.

    Gallop-then-bisect finds the index a linear scan would; it derives
    the fixed-width bounds ``_RECIPROCAL_SAFE_K``, ``_LINE_SAFE_NUMERATOR``,
    ``_INT32_SAFE_N`` and ``_VECTOR_SAFE_N``.
    """
    if satisfied(start):
        return start
    lo, hi = start, max(2 * start, start + 1)
    while not satisfied(hi):
        lo, hi = hi, 2 * hi
        if hi > 1 << 62:
            raise ValueError("no satisfying index below 2^62")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def construct_counterexample_map(w: IncompleteWitness) -> ConstructedMap:
    """Build the tail map and check its first two targets are the least ones."""
    cm = ConstructedMap(w)
    cm.check_target_is_least(1)
    cm.check_target_is_least(2)
    return cm


@dataclass(frozen=True)
class CounterexampleReport:
    prefix: int
    condition_report: ConditionReport
    fixed_point_free: bool
    constructions: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return self.condition_report.holds and self.fixed_point_free

    def to_json(self) -> dict:
        out = self.condition_report.to_json()
        out["prefix"] = self.prefix
        out["fixed_point_free"] = self.fixed_point_free
        out["construction"] = [{"source_index": s, "target_index": t}
                               for s, t in self.constructions]
        return out


def verify_counterexample(cm: ConstructedMap, prefix: int) -> CounterexampleReport:
    """Exhaustive strict-Kannan check over the first ``prefix`` terms.

    Every term of ``ReciprocalSet`` is 1/k and every image 1/k'; the
    denominators are read once, through ``check_member`` and ``_apply``,
    and all C(prefix, 2) pairs are decided on int64 rows of them
    (``_strict_kannan_row`` in ``_scan_pair_rows``).  The rows are exact
    while no denominator exceeds ``_RECIPROCAL_SAFE_K`` (2^31 - 1, prefix
    32,767 for the stock witness); a larger one is refused with
    ValueError before the first row.  The pairs of ``_cross_check_sample``
    are decided again by :func:`evaluate_condition` in Fraction
    arithmetic, an independent route (``_cross_checked``): a disagreement
    raises TheoremContradictionError, and the report's violation witness
    is the Fraction one.  A witness on any other space is refused with
    ValueError.

    Also re-verifies that none of those terms is fixed: targets have
    strictly larger indices and terms are distinct.
    """
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    w = cm.witness
    if not isinstance(w.space, ReciprocalSet):
        raise ValueError(f"the counterexample rows need a witness on "
                         f"reciprocal_set, not on {w.space.kind}")
    # the stock witness's largest denominator is the last image: a prefix
    # past the bound is refused before the prefix is built
    last = w.space.check_member(w.term(prefix))
    check_reciprocal_denominator(cm._apply(last).denominator)
    terms, images = [], []
    for n in range(1, prefix + 1):
        terms.append(w.space.check_member(w.term(n)))
        images.append(cm._apply(terms[-1]))
    k = [t.denominator for t in terms]
    k_img = [t.denominator for t in images]
    if len(set(k)) != prefix:
        raise ValueError("the witness terms of the prefix must be distinct")
    check_reciprocal_denominator(max(k + k_img))
    checked, stop = _scan_pair_rows(_strict_kannan_row, np.array(k, dtype=np.int64),
                                    np.array(k_img, dtype=np.int64))
    report = _cross_checked(w.space, cm, terms, f"the prefix {prefix}", checked, stop)
    fixed_free = all(img != t for t, img in zip(terms, images))
    return CounterexampleReport(prefix=prefix,
                                condition_report=report,
                                fixed_point_free=fixed_free,
                                constructions=tuple((n, cm.target_index(n))
                                                  for n in range(1, prefix + 1)))


def _strict_kannan_row(a, a_img, b, b_img) -> np.ndarray:
    """Which pairs (1/a, 1/b) of a row hold the strict Kannan inequality.

    The map sends 1/a to 1/a' and each 1/b to 1/b'.  Multiplied by
    2a'b', 2|1/a' - 1/b'| < |1/a - 1/a'| + |1/b - 1/b'| reads
    u/a + v/b > c with u = |a'-a|b', v = |b'-b|a' and c = 2|b'-a'|.
    With u = f1*a + r1 and v = f2*b + r2, u/a + v/b = f + r1/a + r2/b
    where f = f1 + f2 and 0 <= r1/a + r2/b < 2, so the pair holds iff
    f > c, or f = c and a remainder is positive, or f = c - 1 and
    r1/a + r2/b > 1.  Exact while no value overflows; see
    ``_reciprocal_intermediate_bound``.
    """
    u = np.abs(a_img - a) * b_img
    v = np.abs(b_img - b) * a_img
    c = 2 * np.abs(b_img - a_img)
    f1, r1 = np.divmod(u, a)
    f2, r2 = np.divmod(v, b)
    f = f1 + f2
    return ((f > c)
            | ((f == c) & ((r1 > 0) | (r2 > 0)))
            | ((f == c - 1) & (r1 * b + r2 * a > a * b)))


def _scan_pair_rows(row, a, a_img):
    """Run the row kernel ``row`` over rows i = 0..len(a)-2 against j > i.

    ``row(a[i], a_img[i], a[i+1:], a_img[i+1:])`` says which pairs of
    row i hold: ``_strict_kannan_row`` on the reciprocal denominators, or
    ``_strict_kannan_line_row`` on the usual metric's scaled numerators.
    Returns (pairs checked, (i, j) of the first violating pair in pair
    order, or None): the scan stops at that pair, as evaluate_condition does.
    """
    checked = 0
    for i in range(len(a) - 1):
        holds = row(a[i], a_img[i], a[i + 1:], a_img[i + 1:])
        if not holds.all():
            j = i + 1 + int(np.argmin(holds))
            return checked + j - i, (i, j)
        checked += holds.size
    return checked, None


def _cross_checked(space: Space, m: SelfMap, points: list, subject: str,
                   checked: int, stop) -> ConditionReport:
    """The rows' report on every pair of ``points``, cross-checked.

    The pairs of ``_cross_check_sample`` are decided again by
    :func:`evaluate_condition` in Fraction arithmetic, which must hold on
    every one of them, or fail first on the last, the rows' first
    violation ``stop``; a disagreement raises TheoremContradictionError.
    The report is the Fraction one, violation witness included, with the
    rows' pair count and the whole pair set as its pair source.
    """
    n = len(points)
    sample = _cross_check_sample(n, stop)
    cross = evaluate_condition(StrictKannan(), space, m,
                               [(points[i], points[j]) for i, j in sample])
    if (cross.pairs_checked, cross.holds) != (len(sample), stop is None):
        raise TheoremContradictionError(
            f"the int64 rows and the Fraction route disagree on {subject}: "
            f"rows {'hold' if stop is None else f'fail first at {stop}'}, "
            f"Fraction {'holds' if cross.holds else 'fails'} after "
            f"{cross.pairs_checked} of {len(sample)} sampled pairs")
    return replace(cross, pairs_checked=checked,
                   pair_source={"kind": "sample", "pairs": n * (n - 1) // 2,
                                "seed": None})


def _reciprocal_intermediate_bound(k_max: int) -> int:
    """An upper bound on every value ``_strict_kannan_row`` forms, exactly.

    With every denominator at most k_max: u = |a'-a|b' and v = |b'-b|a'
    are below k_max^2, so f = f1 + f2 <= u + v and r1*b + r2*a < 2ab are
    below 2 k_max^2; a*b, c = 2|b'-a'| and the remainders are smaller.
    """
    return 2 * k_max * k_max


# The largest denominator the int64 rows decide exactly: 2^31 - 1, which
# the stock witness's images pass at prefix 32,768 (k' = 2n(n+1) + 1).
_RECIPROCAL_SAFE_K = _least_index(
    lambda k: _reciprocal_intermediate_bound(k) > np.iinfo(np.int64).max, start=1) - 1


def check_reciprocal_denominator(k_max: int) -> None:
    """Refuse a prefix whose largest denominator passes ``_RECIPROCAL_SAFE_K``."""
    if k_max > _RECIPROCAL_SAFE_K:
        raise ValueError(f"the prefix reaches the denominator {k_max}, past "
                         f"{_RECIPROCAL_SAFE_K}, the largest the int64 rows "
                         "decide exactly")


def _cross_check_sample(prefix: int, stop=None) -> list[tuple[int, int]]:
    """The index pairs i < j the Fraction route decides again, in pair order.

    The pairs at the ``stated_sample`` indices of the C(prefix, 2) pairs
    in pair order.  When the rows stopped at the pair ``stop``, only the
    sampled pairs before it, then ``stop`` itself.
    """
    row = np.arange(prefix - 1, 0, -1)  # row i holds the pairs (i, i+1..prefix-1)
    starts = np.cumsum(row) - row  # the pair-order index of each row's first pair
    p = np.array(stated_sample(prefix * (prefix - 1) // 2), dtype=np.int64)
    i = np.searchsorted(starts, p, side="right") - 1
    sample = list(zip(i.tolist(), (i + 1 + p - starts[i]).tolist()))
    if stop is not None:
        sample = [pair for pair in sample if pair < stop] + [stop]
    return sample


# ---------------------------------------------------------------------------
# Samples of a usual-metric space (exhaustive over the sample, exact)
# ---------------------------------------------------------------------------

def verify_line_sample(space: Space, m: SelfMap, points) -> ConditionReport:
    """The report ``evaluate_condition(StrictKannan(), space, m,
    sample_pairs(points))`` gives, decided on int64 rows.

    Each point and each image is read once.  Scaled by L, the least common
    multiple of their denominators, they are integers P and Q, the rows'
    input (``_strict_kannan_line_row``).  A space without the usual metric,
    a repeated point and a numerator past ``_LINE_SAFE_NUMERATOR``
    (2^61 - 1) are refused with ValueError before the first row.
    ``_cross_checked`` decides the stated sample again in Fraction
    arithmetic.
    """
    if not isinstance(space, _UsualMetric):
        raise ValueError(f"the line rows need a usual-metric space, not {space.kind}")
    check_same_space(space, m)
    pts = [space.check_member(p) for p in points]
    if len(set(pts)) != len(pts):
        p = next(p for i, p in enumerate(pts) if p in pts[:i])
        raise ValueError(f"pair points must be distinct, got "
                         f"({point_text(p)}, {point_text(p)})")
    images = [m._apply(p) for p in pts]
    scale = math.lcm(*(v.denominator for v in pts + images))
    P = [v.numerator * (scale // v.denominator) for v in pts]
    Q = [v.numerator * (scale // v.denominator) for v in images]
    big = max(map(abs, P + Q), default=0)
    if big > _LINE_SAFE_NUMERATOR:
        raise ValueError(f"the sample reaches the numerator {big} over its common "
                         f"denominator, past {_LINE_SAFE_NUMERATOR}, the largest the "
                         "int64 rows decide exactly")
    checked, stop = _scan_pair_rows(_strict_kannan_line_row, np.array(P, dtype=np.int64),
                                    np.array(Q, dtype=np.int64))
    return _cross_checked(space, m, pts, f"a sample of {len(pts)} points", checked, stop)


def _strict_kannan_line_row(a, a_img, b, b_img) -> np.ndarray:
    """Which pairs (a/L, b/L) of a row hold the strict Kannan inequality
    under the usual metric, where the map sends a/L to a'/L and b/L to b'/L.

    Multiplied by 2L > 0, 2|a'/L - b'/L| < |a/L - a'/L| + |b/L - b'/L|
    reads 2|a' - b'| < |a - a'| + |b - b'|, exact while no value
    overflows; see ``_line_intermediate_bound``.
    """
    return 2 * np.abs(b_img - a_img) < np.abs(a - a_img) + np.abs(b - b_img)


def _line_intermediate_bound(big: int) -> int:
    """An upper bound on every value ``_strict_kannan_line_row`` forms,
    exactly, when no numerator's magnitude passes big: each difference is
    at most 2 big, and its double or a sum of two at most 4 big."""
    return 4 * big


# The largest numerator magnitude the int64 line rows decide exactly: 2^61 - 1.
_LINE_SAFE_NUMERATOR = _least_index(
    lambda big: _line_intermediate_bound(big) > np.iinfo(np.int64).max, start=1) - 1


# The largest --scan count: about 1.5 us per term in flat memory (31 MB
# max RSS for the CLI), so about 15 s at the cap, measured on a 2-core Xeon.
MAX_SCAN = 10 ** 7


def scan_fixed_point_free(cm: ConstructedMap, count: int) -> bool:
    """True iff none of the first ``count`` sequence terms is fixed.

    Uses the index rule directly, one term at a time in O(1) memory: x_n
    is fixed iff its target index equals n, which cannot happen, since
    every target lies deeper than its source by construction and
    ``target_index`` enforces it (TheoremContradictionError otherwise).
    ``term_index(term(n)) == n`` is checked for each n, which proves the
    terms distinct (term_index is a left inverse); a repeat returns False.
    Target leastness is checked against the witness's Fraction bounds
    (``check_target_is_least``) at the n whose index n - 1 is in
    ``stated_sample(count)``.  A count outside 1..``MAX_SCAN`` is refused
    with ValueError before the first term.
    """
    if count < 1:
        raise ValueError("scan count must be >= 1")
    if count > MAX_SCAN:
        raise ValueError(f"scan count {count} exceeds {MAX_SCAN}, the largest "
                         "scan allowed")
    w = cm.witness
    sample = set(stated_sample(count))
    for n in range(1, count + 1):
        if w.term_index(w.term(n)) != n:
            return False
        if n - 1 in sample:
            cm.check_target_is_least(n)
        else:
            cm.target_index(n)
    return True


# ---------------------------------------------------------------------------
# The positive-integer gallery check (exhaustive, exact)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GornickiAnswerReport:
    """Exhaustive verdicts for x -> 3x under d(x,y) = 1 + |1/x - 1/y|."""

    n: int
    pairs_checked: int
    closed_forms_match: bool
    strict_inequality: bool
    fixed_point_free: bool
    distances_exceed_one: bool
    cross_checked_pairs: int
    first_violation: Optional[tuple[int, int, str]] = None

    @property
    def ok(self) -> bool:
        return (self.closed_forms_match and self.strict_inequality
                and self.fixed_point_free and self.distances_exceed_one)

    def to_json(self) -> dict:
        return {"n": self.n, "pairs_checked": self.pairs_checked,
                "closed_forms_match": self.closed_forms_match,
                "strict_inequality": self.strict_inequality,
                "fixed_point_free": self.fixed_point_free,
                "distances_exceed_one": self.distances_exceed_one,
                "cross_checked_pairs": self.cross_checked_pairs,
                "first_violation": (list(self.first_violation)
                                    if self.first_violation else None),
                "ok": self.ok}


def verify_gornicki_answer(n: int) -> GornickiAnswerReport:
    """Exhaustively verify the fixed-point-free gallery map up to n.

    For every pair 1 <= x < y <= n, with T the tripling map and d the
    1 + |1/x - 1/y| metric, checks in exact integer arithmetic that

    * d(Tx,Ty) evaluates to the closed form 1 + 1/(3x) - 1/(3y),
    * (d(x,Tx) + d(y,Ty))/2 evaluates to 1 + 1/(3x) + 1/(3y),
    * the strict inequality between them holds,
    * d(x,y) > 1 (so Cauchy sequences must be eventually constant),

    and that no x <= n is fixed by T.  The scan runs on tiles of rows of
    integers with no gcd: every quantity is a numerator over the common
    denominator 6xy.  The tiles are int32 for n up to ``_INT32_SAFE_N``
    (18,918) and int64 above it.  An n past ``MAX_GORNICKI_N`` (65,537),
    whose longest row fills the workspace of ``TILE_CELLS`` cells, is
    refused with ValueError before any pair is scanned.  The three checks
    run on every pair in both dtypes.  A deterministic subsample is
    cross-checked against the Fraction-based space metric, pair by pair
    (``_cross_check_fraction``).
    """
    check_gornicki_n(n)
    pairs_checked, forms_ok, strict_ok, dist_ok, first_violation = _scan_pairs(n)

    fixed_point_free = all(3 * x != x for x in range(1, n + 1))

    crossed = _cross_check_fraction(n)

    return GornickiAnswerReport(n=n, pairs_checked=pairs_checked,
                                closed_forms_match=forms_ok,
                                strict_inequality=strict_ok,
                                fixed_point_free=fixed_point_free,
                                distances_exceed_one=dist_ok,
                                cross_checked_pairs=crossed,
                                first_violation=first_violation)


def check_gornicki_n(n: int) -> None:
    """Refuse a scan size outside 2..``MAX_GORNICKI_N`` before any work."""
    if n < 2:
        raise ValueError("need n >= 2 for at least one pair")
    if n > MAX_GORNICKI_N:
        raise ValueError(f"n = {n} exceeds {MAX_GORNICKI_N}, the largest n "
                         "whose rows fit one workspace and are decided exactly")


_CHECKS = ("closed_form", "strict", "distance")

# The most cells a tile of rows holds, and so the cells of the workspace;
# ``MAX_GORNICKI_N`` keeps every row within it.  Each tile costs about 25
# numpy calls however many rows it holds.  At n = 10^4 a scan took
# 0.22-0.25 s with tiles of 2^16 cells, 0.24-0.29 s with 2^15 and
# 0.25-0.30 s with 2^17 (2-core Xeon, numpy 2.4, 3 runs each).
TILE_CELLS = 1 << 16


def _scan_pairs(n: int):
    """Run ``_scan_rows`` over tiles of x = 1..n-1 and merge its findings.

    A tile takes as many rows as fit in ``TILE_CELLS`` cells, and every
    tile reuses one workspace of that many cells.  The longest row, n - 1
    cells, fits it for every n that ``check_gornicki_n`` admits, so a
    tile holds at least one row.  Returns (pairs, forms_ok,
    strict_ok, dist_ok, first_violation), where first_violation is
    (x, y, check) for the first failing row, its first failing check in
    ``_CHECKS`` order, and that check's first failing y.
    """
    work = _workspace(n, TILE_CELLS)
    failed = set()
    first_violation = None
    x0 = 1
    while x0 < n:
        x1 = min(n, x0 + TILE_CELLS // (n - x0))
        found = [(first[0], i, first[1])
                 for i, first in enumerate(_scan_rows(x0, x1, n, work)) if first]
        failed.update(_CHECKS[i] for _, i, _ in found)
        if found and first_violation is None:
            x, i, y = min(found)
            first_violation = (x, y, _CHECKS[i])
        x0 = x1
    return (n * (n - 1) // 2, "closed_form" not in failed,
            "strict" not in failed, "distance" not in failed, first_violation)


def _workspace(n: int, cells: int) -> list:
    """Six integer and three boolean buffers of ``cells`` cells, which
    every tile of a scan up to n writes into.  The integers are int32
    while n is at most ``_INT32_SAFE_N`` and int64 above it.
    """
    dtype = np.int32 if n <= _INT32_SAFE_N else np.int64
    return ([np.empty(cells, dtype=dtype) for _ in range(6)]
            + [np.empty(cells, dtype=bool) for _ in range(3)])


def _scan_rows(x0: int, x1: int, n: int, work: list) -> list:
    """Rows x0 <= x < x1 of pairs x < y <= n, decided as one tile: per
    check, (x, y) for the first failing row and its first failing y, or
    None.

    The tile is (x1 - x0) x (n - x0) cells, columns y = x0+1..n.  A cell
    left of x+1 is clamped to y = x+1, so it repeats the row's first
    pair, and the first failing cell in row-major order lies in the first
    failing row, at its first failing y.  Each distance is reduced by
    hand, d(3x,3y) = (3xy + |y-x|) / (3xy) and d(x,3x) = (3x+2) / (3x),
    so every quantity below is a numerator over the common denominator
    6xy.  Every value is written into ``work`` (see ``_workspace``) in
    its dtype; the constants are Python ints, which NumPy 2 casts to that
    dtype, so every value is exact while it does not overflow (see
    ``_largest_intermediate``).
    """
    rows, width = x1 - x0, n - x0
    y, delta, xy3, lhs, rhs, t, forms, strict, apart = (
        b[:rows * width].reshape(rows, width) for b in work)
    xx = np.arange(x0, x1, dtype=y.dtype)[:, None]
    np.maximum(np.arange(x0 + 1, n + 1, dtype=y.dtype), xx + 1, out=y)
    np.subtract(y, xx, out=delta)
    np.abs(delta, out=delta)
    np.multiply(3 * xx, y, out=xy3)
    # d(Tx,Ty) via the metric, Tx = 3x
    np.add(xy3, delta, out=lhs)
    lhs *= 2
    # (d(x,Tx) + d(y,Ty)) / 2 via the metric
    np.multiply(3 * xx + 2, y, out=rhs)
    np.multiply(3, y, out=t)
    t += 2
    t *= xx
    rhs += t
    # closed forms 1 + 1/(3x) - 1/(3y) and 1 + 1/(3x) + 1/(3y)
    np.add(xy3, y, out=t)
    t -= xx
    t *= 2
    np.equal(lhs, t, out=forms)
    np.add(xy3, xx, out=t)
    t += y
    t *= 2
    np.equal(rhs, t, out=strict)  # strict is scratch until its check below
    forms &= strict
    # `<=` for `<` would be an equivalent change: rhs - lhs = 4x over 6xy = 2/(3y) > 0
    np.less(lhs, rhs, out=strict)
    # d(x,y) > 1  <=>  (xy + |y-x|) / (xy) > 1
    np.greater(delta, 0, out=apart)
    firsts = []
    for mask in (forms, strict, apart):
        cell = int(np.argmin(mask))
        firsts.append(None if mask.flat[cell]
                      else (x0 + cell // width, int(y.flat[cell])))
    return firsts


def _largest_intermediate(n: int) -> int:
    """The largest value ``_scan_rows`` forms for pairs up to n, exactly.

    It is the closed-form numerator 2(3xy + x + y), which rhs equals, at
    the last pair x = n-1, y = n: every other value is a smaller sum of
    the same positive terms, and each grows in x and y.  Both bounds of
    the scan are derived from it: ``_INT32_SAFE_N``, up to which the tiles
    are int32, and ``_VECTOR_SAFE_N``, up to which they are int64.  A
    cell clamped left of its row's first pair repeats that pair's values.
    """
    x, y = n - 1, n
    return 2 * (3 * x * y + x + y)


# The largest n whose int32 scan is exact: 18,918.  Above it the tiles are
# int64, which move twice the bytes: n = 18,918 took 0.84 s in int32 and
# n = 18,919 took 1.7 s in int64 (2-core Xeon, numpy 2.4).
_INT32_SAFE_N = _least_index(
    lambda n: _largest_intermediate(n) > np.iinfo(np.int32).max, start=2) - 1

# The largest n whose int64 scan is exact: 1,239,850,262.  Beyond it the
# largest intermediate passes 2^63 - 1.
_VECTOR_SAFE_N = _least_index(
    lambda n: _largest_intermediate(n) > np.iinfo(np.int64).max, start=2) - 1

# The largest n check_gornicki_n admits: 65,537, whose first row fills the
# workspace of TILE_CELLS cells, which the scan then allocates at every n.
# Its pairs are exact in int64, and the scan takes about 20 s there.
MAX_GORNICKI_N = min(TILE_CELLS + 1, _VECTOR_SAFE_N)


def _cross_check_fraction(n: int) -> int:
    """Re-derive a deterministic pair subsample through the Fraction metric.

    Every pair up to n = 100, else a few hundred.  An independent route:
    distances come from the space object, the map images from TripleNat,
    all in Fraction arithmetic; a disagreement with the closed forms
    raises TheoremContradictionError.
    """
    space = GornickiNat()
    t = TripleNat(space)
    if n <= 100:
        sample = [(x, y) for x in range(1, n) for y in range(x + 1, n + 1)]
    else:
        step = (n - 1) // 31  # about 31 grid values an axis, plus the end pairs
        sample = [(x, y) for x in range(1, n, step)
                  for y in range(x + 1, n + 1, step)]
        sample = sorted(set(sample + [(1, 2), (1, n), (n - 1, n)]))
    values = sorted({v for pair in sample for v in pair})
    point = {v: space.check_member(v) for v in values}
    image = {v: t._apply(p) for v, p in point.items()}
    d = space._dist
    for x, y in sample:
        fx, fy, tx, ty = point[x], point[y], image[x], image[y]
        lhs = d(tx, ty)
        rhs = (d(fx, tx) + d(fy, ty)) / 2
        if not (lhs == 1 + Fraction(1, 3 * x) - Fraction(1, 3 * y)
                and rhs == 1 + Fraction(1, 3 * x) + Fraction(1, 3 * y)
                and lhs < rhs and d(fx, fy) > 1):
            raise TheoremContradictionError(
                f"the Fraction metric disagrees with the closed forms at ({x}, {y})")
    return len(sample)

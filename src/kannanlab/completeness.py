"""Fixed-point-free strict-Kannan maps built from incompleteness.

If a space has a Cauchy sequence (x_n) with no limit in the space, a
self-map with no fixed point can be built that still satisfies the strict
Kannan inequality on every distinct pair: send each point far enough down
the sequence tail that images are closer together than half of any
distance back to their sources.  The existence of such a map is exactly
why spaces on which every strict-Kannan map has a fixed point must be
complete.

This module makes that construction concrete and checkable.  A witness
packages the sequence together with two *certified* bounds:

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
checked exactly against the two Fraction bounds on a deterministic
sample; either failure raises TheoremContradictionError.  On the
reciprocal set {1/n}, every pair of a prefix is decided exactly on int64
rows of the denominators, with a Fraction cross-check on a pair sample.

The module also hosts the positive-integer gallery check: x -> 3x on the
1 + |1/x - 1/y| metric is continuous and fixed point free on a complete
(but non-compact) space, yet strictly Kannan on every distinct pair —
the two closed forms

    d(Tx,Ty) = 1 + 1/(3x) - 1/(3y)   <   1 + 1/(3x) + 1/(3y)
             = (d(x,Tx) + d(y,Ty)) / 2          (for x < y)

are verified exhaustively in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .conditions import ConditionReport, StrictKannan, evaluate_condition
from .maps import SelfMap, TripleNat
from .spaces import GornickiNat, ReciprocalSet, Space, TheoremContradictionError


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncompleteWitness:
    """A non-convergent Cauchy sequence with certified distance bounds.

    ``term(n)`` is x_n for n >= 1, all terms distinct.  ``term_index``
    inverts term on sequence members (None off the sequence).
    ``target(n)`` is the closed form of the least n' > n with
    tail_bound(n') < gap_lower_bound(n)/2, which the tail map sends x_n
    to.  ``off_sequence_gap`` certifies a positive lower bound on the
    distance from an off-sequence point to the whole sequence, when the
    space has such points at all.
    """

    space: Space
    term: Callable[[int], Fraction]
    gap_lower_bound: Callable[[int], Fraction]
    tail_bound: Callable[[int], Fraction]
    term_index: Callable[[Fraction], Optional[int]]
    target: Callable[[int], int]
    off_sequence_gap: Optional[Callable[[Fraction], Fraction]] = None


def build_reciprocal_witness() -> IncompleteWitness:
    """The stock witness: x_n = 1/n in the space {1/n : n >= 1}.

    Every point of the space is a sequence term, so the off-sequence
    branch of the construction is never exercised here.  The certified
    bounds are closed forms: the nearest neighbour of 1/n is 1/(n+1),
    giving gap_lower_bound(n) = 1/(n(n+1)); and all points beyond index N
    lie in (0, 1/N], giving tail_bound(N) = 1/N.  The least n' with
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
    """The two-branch tail map built from a witness.

    A sequence term x_{n0} goes to x_{n'} for the least n' > n0 with
    tail_bound(n') < gap_lower_bound(n0) / 2, read from the witness's
    closed form ``target``; an off-sequence point x goes to x_{n_x} for
    the least n_x with tail_bound(n_x) < off_sequence_gap(x) / 2.
    Targets sit strictly deeper in the sequence than their sources by
    construction, and ``target_index`` enforces it on every target it
    serves; with distinct terms, the map has no fixed point.
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
        if n0 is not None:
            return self.witness.term(self.target_index(n0))
        if self.witness.off_sequence_gap is None:
            raise ValueError(
                f"witness certifies no off-sequence distance bound, needed for {p}")
        half = self.witness.off_sequence_gap(p) / 2
        if half <= 0:
            raise ValueError(f"off-sequence gap bound is not positive at {p}")
        idx = _least_index(lambda n: self.witness.tail_bound(n) < half, start=1)
        return self.witness.term(idx)

    def construction_entries(self, prefix: int) -> list[tuple[int, int]]:
        """(source index, target index) for the first ``prefix`` terms."""
        return [(n, self.target_index(n)) for n in range(1, prefix + 1)]


def _least_index(satisfied: Callable[[int], bool], start: int) -> int:
    """Least n >= start with satisfied(n), for upward-closed predicates.

    tail_bound is nonincreasing, so the satisfied set is upward closed and
    gallop-then-bisect finds the same index a linear scan would.
    """
    if satisfied(start):
        return start
    lo, hi = start, max(2 * start, start + 1)
    while not satisfied(hi):
        lo, hi = hi, 2 * hi
        if hi > 1 << 62:
            raise ValueError("no admissible target index below 2^62; "
                             "the witness bounds look defective")
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
    (``_strict_kannan_row``).  The rows are exact while no denominator
    exceeds ``_RECIPROCAL_SAFE_K`` (2^31 - 1, prefix 32,767 for the stock
    witness); a larger one is refused with ValueError before the first
    row.  A deterministic sample of the pairs (``_cross_check_sample``) is
    decided again by :func:`evaluate_condition` in Fraction arithmetic,
    an independent route: a disagreement raises
    TheoremContradictionError, and the report's violation witness is the
    Fraction one.  A witness on any other space is refused with
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
    checked, stop = _scan_reciprocal_rows(np.array(k, dtype=np.int64),
                                          np.array(k_img, dtype=np.int64))

    sample = _cross_check_sample(prefix, stop)
    cross = evaluate_condition(StrictKannan(), w.space, cm,
                               [(terms[i], terms[j]) for i, j in sample])
    # the Fraction route must hold on every sampled pair, or fail first
    # on the last one, which is the rows' first violation
    if (cross.pairs_checked, cross.holds) != (len(sample), stop is None):
        raise TheoremContradictionError(
            f"the int64 rows and the Fraction route disagree on the prefix "
            f"{prefix}: rows {'hold' if stop is None else f'fail first at {stop}'}, "
            f"Fraction {'holds' if cross.holds else 'fails'} after "
            f"{cross.pairs_checked} of {len(sample)} sampled pairs")
    report = replace(cross, pairs_checked=checked,
                     pair_source={"kind": "sample", "pairs": prefix * (prefix - 1) // 2,
                                  "seed": None})
    fixed_free = all(img != t for t, img in zip(terms, images))
    return CounterexampleReport(prefix=prefix,
                                condition_report=report,
                                fixed_point_free=fixed_free,
                                constructions=tuple(cm.construction_entries(prefix)))


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


def _scan_reciprocal_rows(k, k_img):
    """Run ``_strict_kannan_row`` over rows i = 0..len(k)-2 against j > i.

    Returns (pairs checked, (i, j) of the first violating pair in pair
    order, or None): the scan stops at that pair, as evaluate_condition does.
    """
    checked = 0
    for i in range(len(k) - 1):
        holds = _strict_kannan_row(k[i], k_img[i], k[i + 1:], k_img[i + 1:])
        if not holds.all():
            j = i + 1 + int(np.argmin(holds))
            return checked + j - i, (i, j)
        checked += holds.size
    return checked, None


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

    Every pair up to prefix 100, else every s-th pair in pair order (about
    1000 of them) and the last pair.  When the rows stopped at the pair
    ``stop``, only the sampled pairs before it, then ``stop`` itself.
    """
    total = prefix * (prefix - 1) // 2
    step = 1 if prefix <= 100 else total // 1000
    sample, start = [], 0
    for i in range(prefix - 1):
        end = start + prefix - 1 - i
        first = -(-start // step) * step  # the first multiple of step in the row
        sample += [(i, i + 1 + p - start) for p in range(first, end, step)]
        start = end
    if sample and sample[-1] != (prefix - 2, prefix - 1):
        sample.append((prefix - 2, prefix - 1))
    if stop is not None:
        sample = [pair for pair in sample if pair < stop] + [stop]
    return sample


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
    (``check_target_is_least``) on a deterministic sample: every
    (count // 1000)-th n from n = 1 (every n below count 2000), and the
    last.  A count outside 1..``MAX_SCAN`` is refused with ValueError
    before the first term.
    """
    if count < 1:
        raise ValueError("scan count must be >= 1")
    if count > MAX_SCAN:
        raise ValueError(f"scan count {count} exceeds {MAX_SCAN}, the largest "
                         "scan allowed")
    w = cm.witness
    step = max(1, count // 1000)
    for n in range(1, count + 1):
        if w.term_index(w.term(n)) != n:
            return False
        if (n - 1) % step == 0 or n == count:
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

    and that no x <= n is fixed by T.  The scan runs on int64 vectors
    with no gcd: every quantity is a numerator over the common
    denominator 6xy, exact for n up to ``_VECTOR_SAFE_N`` (about 1.24e9);
    a larger n is refused with ValueError before any pair is scanned.  A
    deterministic subsample is cross-checked against the Fraction-based
    space metric, pair by pair (every pair up to n = 100, else about 1000).
    """
    check_gornicki_n(n)
    pairs_checked, forms_ok, strict_ok, dist_ok, first_violation = _scan_pairs(n)

    fixed_point_free = all(3 * x != x for x in range(1, n + 1))

    crossed = _cross_check_fraction(n, n * (n - 1) // 2 if n <= 100 else 1000)

    return GornickiAnswerReport(n=n, pairs_checked=pairs_checked,
                                closed_forms_match=forms_ok,
                                strict_inequality=strict_ok,
                                fixed_point_free=fixed_point_free,
                                distances_exceed_one=dist_ok,
                                cross_checked_pairs=crossed,
                                first_violation=first_violation)


def check_gornicki_n(n: int) -> None:
    """Refuse a scan size outside 2..``_VECTOR_SAFE_N`` before any work."""
    if n < 2:
        raise ValueError("need n >= 2 for at least one pair")
    if n > _VECTOR_SAFE_N:
        raise ValueError(f"n = {n} exceeds {_VECTOR_SAFE_N}, "
                         "the largest n the int64 scan decides exactly")


_CHECKS = ("closed_form", "strict", "distance")


def _scan_pairs(n: int):
    """Run ``_scan_row_int64`` over x = 1..n-1 and merge its findings.

    Returns (pairs, forms_ok, strict_ok, dist_ok, first_violation), where
    first_violation is (x, y, check) for the first failing row, its first
    failing check in ``_CHECKS`` order, and that check's first failing y.
    """
    failed = set()
    first_violation = None
    for x in range(1, n):
        for name, y in zip(_CHECKS, _scan_row_int64(x, n)):
            if y is not None:
                failed.add(name)
                if first_violation is None:
                    first_violation = (x, y, name)
    return (n * (n - 1) // 2, "closed_form" not in failed,
            "strict" not in failed, "distance" not in failed, first_violation)


def _scan_row_int64(x: int, n: int) -> list:
    """The row x < y <= n on int64 vectors: the first failing y per check, or None.

    Each distance is reduced by hand, d(3x,3y) = (3xy + |y-x|) / (3xy) and
    d(x,3x) = (3x+2) / (3x), so every quantity below is a numerator over
    the common denominator 6xy.  Exact while no value overflows; see
    ``_VECTOR_SAFE_N``.
    """
    y = np.arange(x + 1, n + 1, dtype=np.int64)
    xx = np.int64(x)
    delta = np.abs(y - xx)
    xy3 = 3 * xx * y
    # d(Tx,Ty) via the metric, Tx = 3x
    lhs = 2 * (xy3 + delta)
    # (d(x,Tx) + d(y,Ty)) / 2 via the metric
    rhs = (3 * xx + 2) * y + (3 * y + 2) * xx
    # closed forms 1 + 1/(3x) - 1/(3y) and 1 + 1/(3x) + 1/(3y)
    forms = (lhs == 2 * (xy3 + y - xx)) & (rhs == 2 * (xy3 + xx + y))
    # `<=` for `<` would be an equivalent change: rhs - lhs = 4x over 6xy = 2/(3y) > 0
    strict = lhs < rhs
    # d(x,y) > 1  <=>  (xy + |y-x|) / (xy) > 1
    masks = (forms, strict, delta > 0)
    return [None if mask.all() else int(y[np.argmin(mask)]) for mask in masks]


def _largest_intermediate(n: int) -> int:
    """The largest value ``_scan_row_int64`` forms for pairs up to n, exactly.

    It is the closed-form numerator 2(3xy + x + y), which rhs equals, at
    the last pair x = n-1, y = n: every other value is a smaller sum of
    the same positive terms, and each grows in x and y.
    """
    x, y = n - 1, n
    return 2 * (3 * x * y + x + y)


# The largest n whose int64 scan is exact: 1,239,850,262.  Beyond it the
# largest intermediate passes 2^63 - 1, and check_gornicki_n refuses.
_VECTOR_SAFE_N = _least_index(
    lambda n: _largest_intermediate(n) > np.iinfo(np.int64).max, start=2) - 1


def _cross_check_fraction(n: int, budget: int) -> int:
    """Re-derive a deterministic pair subsample through the Fraction metric.

    An independent route: distances come from the space object, the map
    images from TripleNat, all in Fraction arithmetic; a disagreement
    with the closed forms raises TheoremContradictionError.
    """
    space = GornickiNat()
    t = TripleNat(space)
    all_pairs = n * (n - 1) // 2
    budget = min(budget, all_pairs)
    if budget == all_pairs:
        sample = [(x, y) for x in range(1, n) for y in range(x + 1, n + 1)]
    else:
        per_axis = max(2, int(budget ** 0.5))
        step = max(1, (n - 1) // per_axis)
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

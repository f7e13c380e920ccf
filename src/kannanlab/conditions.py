"""The catalog of contractive conditions and an exact pairwise checker.

Each condition compares d(Tx,Ty) against an expression in the six
distances d(x,y), d(x,Tx), d(y,Ty), d(x,Ty), d(y,Tx) (and iterated
variants).  Verdicts are exact: rational terms are compared by
cross-multiplication, geometric-mean terms through
:func:`kannanlab.rationals.lt_sqrt`, so a strict inequality is never
decided by a rounded value.

A report only ever speaks for the pair set it actually checked
(``domain_exhausted`` is True only for exhaustive finite-space scans);
claiming more would be dishonest for infinite spaces, where callers must
supply an explicit rational sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .rationals import HALF, as_scalar, json_scalar, lt_sqrt, scalar_text
from .maps import MAX_HORIZON, SelfMap, check_same_space
from .spaces import FiniteSpace, Space, point_text


# ---------------------------------------------------------------------------
# Condition kinds
# ---------------------------------------------------------------------------

class Condition:
    """Base of the condition catalog: one exact verdict per pair.

    ``verdict(d, image, x, y)`` decides the pair of distinct canonical
    members x, y from the unchecked distance ``d`` and the closure-checked
    ``image``.  It returns (holds, lhs, rhs): rhs is the exact bound when
    that is rational, otherwise a function rendering it, which is called
    only when a violation is reported.

    Each condition also declares its theorem's conclusion on a finite
    (hence compact and complete) space: a map satisfying it on every pair
    has a fixed point, exactly one when ``unique_fixed_point``, and Picard
    iteration reaches it from every start when ``picard_converges``.

    Verdicts are pair-local, except ``iterated_kannan(m)``'s for m >= 1:
    a verdict reads only x, y, Tx and Ty, so two maps that agree on x and
    y get the same verdict on that pair.
    """

    kind: str
    unique_fixed_point = True
    picard_converges = False

    def label(self) -> str:
        return self.kind

    def to_json(self) -> dict:
        return {"kind": self.kind}

    def verdict(self, d, image, x, y):
        raise NotImplementedError


@dataclass(frozen=True)
class KannanK(Condition):
    """d(Tx,Ty) <= k * (d(x,Tx) + d(y,Ty)) with a fixed k in [0, 1/2)."""

    k: Fraction

    kind = "kannan_k"
    picard_converges = True

    def __post_init__(self):
        object.__setattr__(self, "k", as_scalar(self.k))
        if not (0 <= self.k < HALF):
            raise ValueError(f"Kannan constant must lie in [0, 1/2), got {self.k}")

    def label(self) -> str:
        return f"kannan_k({self.k})"

    def to_json(self) -> dict:
        return {"kind": "kannan_k", "k": str(self.k)}

    def verdict(self, d, image, x, y):
        tx, ty = image(x), image(y)
        lhs = d(tx, ty)
        rhs = self.k * (d(x, tx) + d(y, ty))
        return lhs <= rhs, lhs, rhs


@dataclass(frozen=True)
class StrictKannan(Condition):
    """d(Tx,Ty) < (d(x,Tx) + d(y,Ty)) / 2 for all x != y; no constant.

    The central condition of the lab: parameterless, satisfied by maps
    that may be badly discontinuous, and strong enough to force a unique
    fixed point on boundedly compact or orbitally compact spaces.
    """

    kind = "strict_kannan"
    picard_converges = True

    def verdict(self, d, image, x, y):
        tx, ty = image(x), image(y)
        lhs = d(tx, ty)
        rhs = (d(x, tx) + d(y, ty)) / 2
        return lhs < rhs, lhs, rhs


@dataclass(frozen=True)
class Fisher(Condition):
    """d(Tx,Ty) < (d(x,Ty) + d(y,Tx)) / 2 for all x != y."""

    kind = "fisher"

    def verdict(self, d, image, x, y):
        tx, ty = image(x), image(y)
        lhs = d(tx, ty)
        rhs = (d(x, ty) + d(y, tx)) / 2
        return lhs < rhs, lhs, rhs


@dataclass(frozen=True)
class Khan(Condition):
    """d(Tx,Ty) < sqrt(d(x,Tx) * d(y,Ty)) for all x != y.

    The root is never materialized; the verdict comes from lt_sqrt.
    """

    kind = "khan"

    def verdict(self, d, image, x, y):
        tx, ty = image(x), image(y)
        lhs = d(tx, ty)
        u = d(x, tx) * d(y, ty)
        return lt_sqrt(lhs, u), lhs, lambda: f"sqrt({scalar_text(u)})"


@dataclass(frozen=True)
class ChenYeh(Condition):
    """d(Tx,Ty) < max of seven terms mixing all six distances.

    The terms are d(x,y); the Kannan mean (d(x,Tx)+d(y,Ty))/2; the Fisher
    mean (d(x,Ty)+d(y,Tx))/2; d(x,Tx)d(y,Ty)/d(x,y); sqrt(d(x,Tx)d(y,Ty));
    a*d(x,Ty)d(y,Tx); and b*sqrt(d(x,Ty)d(y,Tx)), where the weights a and
    b are non-negative exact constants, so the checker stays exact and
    total.

    ``uniqueness_bounds`` records the extra hypotheses a <= 1/d(x,y) and
    b <= 1 under which the fixed point is unique; when set, the weights
    are validated against those bounds on every evaluated pair.
    """

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    uniqueness_bounds: bool = False

    kind = "chen_yeh"

    def __post_init__(self):
        for name in ("a", "b"):
            value = as_scalar(getattr(self, name))
            if value < 0:
                raise ValueError(f"ChenYeh {name} must be non-negative")
            object.__setattr__(self, name, value)

    @property
    def unique_fixed_point(self) -> bool:
        return self.uniqueness_bounds

    def label(self) -> str:
        return f"chen_yeh(a={self.a},b={self.b})"

    def to_json(self) -> dict:
        return {"kind": "chen_yeh", "uniqueness_bounds": self.uniqueness_bounds,
                "a": str(self.a), "b": str(self.b)}

    def verdict(self, d, image, x, y):
        tx, ty = image(x), image(y)
        dxy = d(x, y)
        dxtx, dyty = d(x, tx), d(y, ty)
        dxty, dytx = d(x, ty), d(y, tx)
        a, b = self.a, self.b
        if self.uniqueness_bounds:
            if a * dxy > 1:
                raise ValueError(f"uniqueness bound a <= 1/d(x,y) fails at "
                                 f"({point_text(x)}, {point_text(y)})")
            if b > 1:
                raise ValueError(f"uniqueness bound b <= 1 fails at "
                                 f"({point_text(x)}, {point_text(y)})")
        lhs = d(tx, ty)
        rational_terms = [
            dxy,
            (dxtx + dyty) / 2,
            (dxty + dytx) / 2,
            dxtx * dyty / dxy,  # well-defined: pair points are distinct
            a * dxty * dytx,
        ]
        holds = any(lhs < t for t in rational_terms)
        # The term sqrt(d(x,Tx)d(y,Ty)) never decides: by AM-GM it is at
        # most the Kannan mean, which lhs has already reached.  The b term
        # is decided by squaring: lhs < b*sqrt(v) iff lhs/b < sqrt(v).
        if not holds and b > 0:
            holds = lt_sqrt(lhs / b, dxty * dytx)

        def rhs_text():
            return ("max(" + ", ".join(scalar_text(t) for t in rational_terms[:4])
                    + f", sqrt({scalar_text(dxtx * dyty)})"
                    + f", {scalar_text(rational_terms[4])}"
                    + f", {scalar_text(b)}*sqrt({scalar_text(dxty * dytx)}))")
        return holds, lhs, rhs_text


@dataclass(frozen=True)
class IteratedKannan(Condition):
    """The strict Kannan inequality shifted m steps along the orbit:

    d(T^{m+1}x, T^{m+1}y) < (d(T^m x, T^{m+1}x) + d(T^m y, T^{m+1}y)) / 2.

    m = 0 coincides with the plain strict condition (T^0 = identity).
    Every pair walks m steps from each point, so m is capped at
    ``maps.MAX_HORIZON``, the cap on an orbit's length.
    """

    m: int

    kind = "iterated_kannan"
    picard_converges = True

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError("iteration shift m must be an integer >= 0")
        if self.m > MAX_HORIZON:
            raise ValueError(f"iteration shift m capped at {MAX_HORIZON}, got {self.m}")

    def label(self) -> str:
        return f"iterated_kannan({self.m})"

    def to_json(self) -> dict:
        return {"kind": "iterated_kannan", "m": self.m}

    def verdict(self, d, image, x, y):
        image(x), image(y)  # the pair's own images come first, as in every condition
        for _ in range(self.m):
            x = image(x)
        for _ in range(self.m):
            y = image(y)
        return StrictKannan().verdict(d, image, x, y)


def load_condition(obj: dict) -> Condition:
    """Build a condition from its JSON definition."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("condition definition must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "strict_kannan":
        return StrictKannan()
    if kind == "kannan_k":
        return KannanK(json_scalar(obj["k"]))
    if kind == "fisher":
        return Fisher()
    if kind == "khan":
        return Khan()
    if kind == "chen_yeh":
        bounds = obj.get("uniqueness_bounds", False)
        if not isinstance(bounds, bool):
            raise ValueError(f"uniqueness_bounds must be true or false, got {bounds!r}")
        return ChenYeh(a=json_scalar(obj.get("a", 0)), b=json_scalar(obj.get("b", 0)),
                       uniqueness_bounds=bounds)
    if kind == "iterated_kannan":
        m = obj["m"]
        if isinstance(m, bool) or not isinstance(m, (int, str)):
            raise ValueError(f"iteration shift m must be an integer, got {m!r}")
        return IteratedKannan(int(m))
    raise ValueError(f"unknown condition kind {kind!r}")


# ---------------------------------------------------------------------------
# Pair sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exhaustive:
    """All unordered distinct pairs of a finite space."""


EXHAUSTIVE = Exhaustive()


def sample_pairs(points: Sequence) -> tuple:
    """All unordered distinct pairs among the given points, in list order.

    The result is a plain pair tuple, an explicit sample for
    :func:`evaluate_condition`.
    """
    pts = list(points)
    return tuple((pts[i], pts[j])
                 for i in range(len(pts)) for j in range(i + 1, len(pts)))


PairSource = Union[Exhaustive, Iterable]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violated:
    """Exact violation witness; replaying the pair reproduces the verdict."""

    x: object
    y: object
    lhs: Fraction
    rhs: Optional[Fraction]  # exact value when the bound is rational
    rhs_text: Optional[str]  # exact rendering when it is not; one of the two is set


@dataclass(frozen=True)
class ConditionReport:
    condition: Condition
    pair_source: dict
    pairs_checked: int
    violation: Optional[Violated]
    domain_exhausted: bool

    @property
    def holds(self) -> bool:
        return self.violation is None

    def to_json(self) -> dict:
        if self.violation is None:
            verdict = "holds"
        else:
            v = self.violation
            verdict = {"violated": {
                "x": point_text(v.x), "y": point_text(v.y),
                "lhs": scalar_text(v.lhs),
                "rhs": scalar_text(v.rhs) if v.rhs is not None else v.rhs_text,
            }}
        return {"condition": self.condition.to_json(),
                "pair_source": self.pair_source,
                "pairs_checked": self.pairs_checked,
                "domain_exhausted": self.domain_exhausted,
                "verdict": verdict}


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

# The types of canonical points: rationals on catalog spaces, labels on
# finite spaces.  A point of any other type (an int, a float, a bool) is
# always checked, even when it equals a point checked before.
_CANONICAL = (Fraction, str)


def _checked_pairs(space: Space, m: SelfMap, pairs: PairSource):
    """(pair_source, exhausted, image, pairs) for one scan of m on space.

    Refused at once: a map bound to another space, and an exhaustive scan
    of a space that is not finite.  ``pairs`` yields each pair as two
    distinct canonical members, checking each distinct point once (the
    space's own labels need no check on an exhaustive scan); ``image``
    computes and closure-checks each distinct image once.  Both run
    lazily, in the order the scan asks, so the first error a caller sees
    is the one checking every use would raise.
    """
    check_same_space(space, m)
    exhausted = isinstance(pairs, Exhaustive)
    if exhausted:
        if not isinstance(space, FiniteSpace):
            raise ValueError("exhaustive pair scans need a finite space; "
                             "supply an explicit sample for catalog spaces")
        pair_list, members = space.distinct_pairs(), set(space.labels)
        pair_source = {"kind": "exhaustive", "space_size": space.size}
    else:
        pair_list, members = [tuple(p) for p in pairs], set()
        pair_source = {"kind": "sample", "pairs": len(pair_list), "seed": None}
    images = {}

    def member(p):
        if type(p) not in _CANONICAL or p not in members:
            p = space.check_member(p)
            members.add(p)
        return p

    def image(p):
        img = images.get(p)
        if img is None:
            img = images[p] = m._apply(p)
        return img

    def checked():
        for x, y in pair_list:
            x, y = member(x), member(y)
            if x == y:
                raise ValueError(f"pair points must be distinct, got "
                                 f"({point_text(x)}, {point_text(y)})")
            yield x, y

    return pair_source, exhausted, image, checked()


def _violated(x, y, lhs, rhs) -> Violated:
    if callable(rhs):
        return Violated(x, y, lhs, None, rhs())
    return Violated(x, y, lhs, rhs, None)


def evaluate_condition(cond: Condition, space: Space, m: SelfMap,
                       pairs: PairSource = EXHAUSTIVE) -> ConditionReport:
    """Check one condition over an explicit pair set, exactly.

    Stops at the first violation (pair-set order) and reports it with
    exact values.  Pairs must consist of distinct member points.
    """
    pair_source, exhausted, image, pairs = _checked_pairs(space, m, pairs)
    d = space._dist
    checked = 0
    for x, y in pairs:
        checked += 1
        holds, lhs, rhs = cond.verdict(d, image, x, y)
        if not holds:
            return ConditionReport(cond, pair_source, checked,
                                   _violated(x, y, lhs, rhs), exhausted)
    return ConditionReport(cond, pair_source, checked, None, exhausted)


def replay_violation(report: ConditionReport, space: Space, m: SelfMap) -> bool:
    """Re-evaluate a Violated witness; True iff it is a genuine violation."""
    if report.violation is None:
        raise ValueError("report has no violation to replay")
    v = report.violation
    _, _, image, pairs = _checked_pairs(space, m, [(v.x, v.y)])
    [(x, y)] = pairs
    holds, lhs, _ = report.condition.verdict(space._dist, image, x, y)
    return (not holds) and lhs == v.lhs


def kannan_ratio(space: Space, m: SelfMap,
                 pairs: PairSource = EXHAUSTIVE) -> Optional[Fraction]:
    """max over pairs of d(Tx,Ty) / (d(x,Tx)+d(y,Ty)), denominator > 0 only.

    The smallest admissible Kannan constant on the checked pairs; None when
    every pair has zero total displacement.
    """
    _, _, image, pairs = _checked_pairs(space, m, pairs)
    d = space._dist
    return max((d(image(x), image(y)) / s for x, y in pairs
                if (s := d(x, image(x)) + d(y, image(y)))), default=None)


# ---------------------------------------------------------------------------
# The orbit eps-delta check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsDeltaCell:
    """One (eps, delta) attempt: holds / vacuous / violated.

    ``exercised`` counts distinct-index pairs that satisfied the premise
    d(T^i x, T^j x) < eps + delta.  A delta whose premise was never
    exercised certifies nothing on this finite horizon, so vacuous
    satisfaction is reported as its own status and does not count as a
    pass.
    """

    eps: Fraction
    delta: Fraction
    status: str  # "holds" | "vacuous" | "violated"
    exercised: int
    witness: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class EpsDeltaReport:
    eps: Fraction
    passing_delta: Optional[Fraction]
    cells: tuple[EpsDeltaCell, ...]
    horizon: int
    evidence_only: bool = True


def check_epsdelta_orbit(space: Space, m: SelfMap, x0,
                         eps_grid: Sequence, delta_candidates: Sequence,
                         horizon: int) -> list[EpsDeltaReport]:
    """Finite-horizon scan of the orbit uniform-contraction property:

    for all 0 <= i < j <= horizon,
        d(T^i x0, T^j x0) < eps + delta  implies  d(T^{i+1} x0, T^{j+1} x0) <= eps.

    For each eps the candidates are tried in order and the first delta
    whose implication holds non-vacuously is reported.  Evidence only: a
    finite prefix can neither prove the property nor its negation.  The
    horizon runs from 2 to ``MAX_HORIZON``.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon capped at {MAX_HORIZON}")
    check_same_space(space, m)
    eps_grid = [as_scalar(e) for e in eps_grid]
    delta_candidates = [as_scalar(dd) for dd in delta_candidates]
    if any(e <= 0 for e in eps_grid) or any(dd <= 0 for dd in delta_candidates):
        raise ValueError("eps and delta values must be positive")

    x0 = space.check_member(x0)
    pts = [x0]
    for _ in range(horizon + 1):
        pts.append(m._apply(pts[-1]))
    dmat = {}
    for i in range(horizon + 2):
        for j in range(i + 1, horizon + 2):
            dmat[(i, j)] = space._dist(pts[i], pts[j])

    reports = []
    for eps in eps_grid:
        cells = []
        passing = None
        for delta in delta_candidates:
            bound = eps + delta
            exercised = 0
            witness = None
            for i in range(horizon):
                for j in range(i + 1, horizon + 1):
                    if dmat[(i, j)] < bound:
                        exercised += 1
                        if dmat[(i + 1, j + 1)] > eps:
                            witness = (i, j)
                            break
                if witness:
                    break
            if witness:
                cells.append(EpsDeltaCell(eps, delta, "violated", exercised, witness))
            elif exercised == 0:
                cells.append(EpsDeltaCell(eps, delta, "vacuous", 0))
            else:
                cells.append(EpsDeltaCell(eps, delta, "holds", exercised))
                passing = delta
                break
        reports.append(EpsDeltaReport(eps=eps, passing_delta=passing,
                                      cells=tuple(cells), horizon=horizon))
    return reports

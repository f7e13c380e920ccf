"""Self-mappings on the lab's spaces, and exact orbit generation.

Maps are bound to their space.  The public ``apply`` membership-checks its
input; the ``_apply`` behind it takes a point already checked and
closure-checks the image: an image escaping the space raises
:class:`ClosureError`, which signals a misconfigured map (typically a bad
Custom rule), never a rounding artifact, because all arithmetic is exact.
A :class:`TableMap` proves its closure at construction, so its
``_apply`` is a plain lookup.  Scans call ``_apply`` once per distinct
point they have checked.  Every scan of a map on a space calls
:func:`check_same_space` first: the space's ``_dist`` trusts the images
``_apply`` returns only when the map is bound to that space.

Orbits terminate on an exact fixed point (consecutive gap exactly 0), an
exact recurrence (cycle), or the horizon.  There is deliberately no
tolerance-based notion of convergence here: several catalog examples have
orbits converging to limits *outside* the space, and a tolerance would
blur exactly the distinction the lab exists to exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .rationals import as_scalar, json_scalar
from .spaces import (ClosureError, FiniteSpace, GornickiNat, MembershipError,
                     Space, SplitSet, point_text)


MAX_HORIZON = 512  # pairwise orbit scans are O(horizon^2); desk scale only


class SelfMap:
    """Base: a self-mapping of ``space`` with validated application."""

    space: Space
    kind: str = "custom"

    def _image(self, p):
        raise NotImplementedError

    def apply(self, p):
        """Exact image of p, membership-checked on both sides."""
        return self._apply(self.space.check_member(p))

    def _apply(self, p):
        """Exact image of a canonical member p; only the image is checked."""
        img = self._image(p)
        try:
            return self.space.check_member(img)
        except MembershipError:
            raise ClosureError(
                f"{self.kind} maps {point_text(p)} to {point_text(img)}, "
                f"outside {self.space.kind}") from None

    def to_json(self) -> dict:
        return {"kind": self.kind}


def check_same_space(space: Space, m: SelfMap) -> None:
    """Refuse to scan m on any space but the one it is bound to."""
    if space != m.space:
        raise ValueError("space does not match the map's space")


@dataclass(frozen=True)
class TableMap(SelfMap):
    """Lookup-table map on a finite space; closure checked exhaustively."""

    space: FiniteSpace
    assign: Mapping[str, str]
    kind: str = field(default="table", init=False)

    def __post_init__(self):
        object.__setattr__(self, "assign", dict(self.assign))
        missing = set(self.space.labels) - set(self.assign)
        if missing:
            raise ValueError(f"table map undefined on {sorted(missing)}")
        for src, img in self.assign.items():
            if src not in self.space.labels:
                raise MembershipError(f"table key {src!r} not in space")
            if img not in self.space.labels:
                raise ClosureError(f"table image {img!r} not in space")

    def _apply(self, p):
        return self.assign[p]  # closure proved in __post_init__

    def to_json(self) -> dict:
        return {"kind": "table", "assign": dict(sorted(self.assign.items()))}


@dataclass(frozen=True)
class Scale(SelfMap):
    """x -> c*x for a fixed rational c >= 0."""

    space: Space
    c: Fraction

    kind: str = field(default="scale", init=False)

    def __post_init__(self):
        object.__setattr__(self, "c", as_scalar(self.c))
        if self.c < 0:
            raise ValueError("scale factor must be >= 0")

    def _image(self, p):
        return self.c * p

    def to_json(self) -> dict:
        return {"kind": "scale", "c": str(self.c)}


@dataclass(frozen=True)
class StairScale(SelfMap):
    """x -> x/(n+1) on the stair n-1 <= x < n (positive integer n; 0 sits on n=1).

    Orbits collapse toward 0 faster and faster: each stair divides by at
    least 2, and points below 1 keep halving.
    """

    space: Space
    kind: str = field(default="stair_scale", init=False)

    def _image(self, p):
        if p < 0:
            raise ClosureError("stair_scale is defined for x >= 0")
        n = int(p) + 1  # unique positive integer with n-1 <= p < n
        return p / (n + 1)


@dataclass(frozen=True)
class PiecewiseDrop(SelfMap):
    """On the split set: 2 -> -1, everything else -> 0.

    Discontinuous at 2, yet strictly Kannan-contractive; its only fixed
    point is 0.
    """

    space: Space = field(default_factory=SplitSet)
    kind: str = field(default="piecewise_drop", init=False)

    def _image(self, p):
        return Fraction(-1) if p == 2 else Fraction(0)


@dataclass(frozen=True)
class TripleNat(SelfMap):
    """x -> 3x on the positive integers with the 1 + |1/x - 1/y| metric.

    Continuous and fixed-point free there, despite satisfying the strict
    Kannan inequality on every distinct pair.
    """

    space: Space = field(default_factory=GornickiNat)
    kind: str = field(default="triple_nat", init=False)

    def _image(self, p):
        return 3 * p


class Custom(SelfMap):
    """Host-supplied rule; closure is enforced at every application."""

    def __init__(self, space: Space, rule: Callable, kind: str = "custom"):
        self.space = space
        self.rule = rule
        self.kind = kind

    def _image(self, p):
        return self.rule(p)


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointReached:
    at: int  # first index i with points[i+1] == points[i] (gaps[i] == 0)


@dataclass(frozen=True)
class CycleDetected:
    entry: int
    period: int


@dataclass(frozen=True)
class Truncated:
    horizon: int


@dataclass
class Orbit:
    """x0, Tx0, T^2 x0, ... with the gap sequence s_n = d(x_n, x_{n+1})."""

    map: SelfMap
    start: object
    points: list
    gaps: list[Fraction]
    status: object

    @property
    def space(self) -> Space:
        return self.map.space


def orbit(m: SelfMap, x0, horizon: int) -> Orbit:
    """Generate the orbit of x0 under m, up to horizon applications.

    A horizon above ``MAX_HORIZON`` is refused before the first application.

    Stops early on an exact fixed point (the repeated point is kept, so
    the gap list ends in an exact 0) or on an exact recurrence of an
    earlier point (cycle).  Exact-equality hashing of rational points
    makes recurrence detection sound; no tolerance is involved.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon capped at {MAX_HORIZON}")
    x0 = m.space.check_member(x0)
    points = [x0]
    gaps: list[Fraction] = []
    seen = {x0: 0}
    status = None
    for _ in range(horizon):
        nxt = m._apply(points[-1])
        gaps.append(m.space._dist(points[-1], nxt))
        points.append(nxt)
        if gaps[-1] == 0:
            status = FixedPointReached(at=len(points) - 2)
            break
        if nxt in seen:
            status = CycleDetected(entry=seen[nxt],
                                   period=len(points) - 1 - seen[nxt])
            break
        seen[nxt] = len(points) - 1
    if status is None:
        status = Truncated(horizon=horizon)
    return Orbit(map=m, start=x0, points=points, gaps=gaps, status=status)


@dataclass(frozen=True)
class OrbitClusterReport:
    """Finite-horizon accumulation evidence for an orbit.

    ``clustered`` means some orbit point has at least half of the *other*
    computed points within ``radius`` — candidate evidence for a convergent
    subsequence.  ``max_pairwise`` is the exact orbit diameter seen, the
    boundedness side.  A finite prefix can never decide orbital
    compactness, hence ``evidence_only`` is always True.
    """

    radius: Fraction
    clustered: bool
    witness_index: Optional[int]
    neighbor_count: int
    threshold: int
    max_pairwise: Fraction
    evidence_only: bool = True


def orbit_cluster_probe(o: Orbit, radius) -> OrbitClusterReport:
    """Probe an orbit for accumulation evidence at the given radius."""
    radius = as_scalar(radius)
    pts = o.points
    n = len(pts)
    if n < 2:
        raise ValueError("probe needs an orbit with at least 2 points")
    space = o.space  # orbit points are members already: no re-check
    d = [[space._dist(pts[i], pts[j]) if i < j else None
          for j in range(n)] for i in range(n)]

    def dat(i, j):
        return d[i][j] if i < j else d[j][i]

    threshold = n // 2  # ceil((n-1)/2): half of the other points
    best_i, best_count = None, -1
    max_pairwise = Fraction(0)
    for i in range(n):
        count = 0
        for j in range(n):
            if i == j:
                continue
            dij = dat(i, j)
            if dij <= radius:
                count += 1
            if dij > max_pairwise:
                max_pairwise = dij
        if count > best_count:
            best_i, best_count = i, count
    return OrbitClusterReport(radius=radius,
                              clustered=best_count >= threshold,
                              witness_index=best_i if best_count >= threshold else None,
                              neighbor_count=best_count,
                              threshold=threshold,
                              max_pairwise=max_pairwise)


# ---------------------------------------------------------------------------
# JSON definition format
# ---------------------------------------------------------------------------

def load_map(obj: dict, space: Space) -> SelfMap:
    """Build a map from its JSON definition, bound to ``space``."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("map definition must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "table":
        if not isinstance(space, FiniteSpace):
            raise ValueError("table maps need a finite space")
        assign = obj.get("assign", {})
        if not isinstance(assign, dict):
            raise ValueError(f"table map 'assign' must be an object, got {assign!r}")
        return TableMap(space, assign)
    if kind == "scale":
        return Scale(space, json_scalar(obj["c"]))
    if kind == "stair_scale":
        return StairScale(space)
    if kind == "piecewise_drop":
        return PiecewiseDrop(space)
    if kind == "triple_nat":
        return TripleNat(space)
    raise ValueError(f"unknown map kind {kind!r}")

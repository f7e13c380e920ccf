"""Metric spaces of the lab: a finite-matrix form plus a small catalog.

Points are plain values: exact rationals (:class:`fractions.Fraction`) on
the catalog spaces, string labels on finite spaces.  Membership is
validated once, at the boundary: :meth:`Space.check_member` and the public
:meth:`Space.dist` raise :class:`MembershipError` for a point outside the
space.  Behind ``dist`` sits the unchecked ``_dist``, which scans call on
points they have already checked, each distinct point once.

Completeness / compactness style flags are *declared* metadata: they are
analytic facts about each catalog space, recorded on the class, never
inferred from the distance function (they are not decidable from one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

from .rationals import as_scalar, json_scalar, scalar_text


class MembershipError(ValueError):
    """A point was used with a space it does not belong to."""


class ClosureError(ValueError):
    """A self-map produced an image outside its own space."""


class TheoremContradictionError(RuntimeError):
    """A verdict contradicted a proved theorem: the implementation is defective."""


def stated_sample(total: int) -> list[int]:
    """The 0-based indices, ascending, of the ``total`` items an in-run
    cross-check decides again: every (total // 1000)-th index from 0
    (every index below 2,000 items), and the last, each once."""
    step = max(1, total // 1000)
    return [*range(0, total - 1, step), *range(max(0, total - 1), total)]


def point_text(p) -> str:
    """Render a point (rational value or finite-space label) as text."""
    if isinstance(p, str):
        return p
    return scalar_text(p)


# ---------------------------------------------------------------------------
# Metric axiom verification (finite matrices)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricAxiomReport:
    """Outcome of checking the metric axioms on an explicit matrix.

    ``first_violation`` carries (axiom name, witness labels) for the first
    failing check in scan order, or None; axiom failure is a report, not
    an error.
    """

    first_violation: Optional[tuple[str, tuple[str, ...]]] = None

    @property
    def passed(self) -> bool:
        return self.first_violation is None


def verify_metric_axioms(labels: Sequence[str], matrix: Sequence[Sequence]) -> MetricAxiomReport:
    """Check symmetry, identity, positivity and the triangle inequality.

    Works on raw data so that broken matrices can be diagnosed before any
    FiniteSpace exists.  All comparisons are exact; the scan stops at the
    first failing check.
    """
    labels = tuple(labels)
    n = len(labels)
    d = [[as_scalar(v) for v in row] for row in matrix]
    if len(d) != n or any(len(row) != n for row in d):
        raise ValueError(f"distance matrix must be {n}x{n}")

    for i in range(n):
        if d[i][i] != 0:
            return MetricAxiomReport(("identity", (labels[i],)))
    for i, j in permutations(range(n), 2):
        if d[i][j] != d[j][i]:
            return MetricAxiomReport(("symmetry", (labels[i], labels[j])))
        if d[i][j] <= 0:
            return MetricAxiomReport(("positivity", (labels[i], labels[j])))
    # Distinct ordered triples suffice: repeats reduce to the axioms above.
    for i, j, k in permutations(range(n), 3):
        if d[i][k] > d[i][j] + d[j][k]:
            return MetricAxiomReport(("triangle", (labels[i], labels[j], labels[k])))
    return MetricAxiomReport()


# ---------------------------------------------------------------------------
# Space catalog
# ---------------------------------------------------------------------------

class Space:
    """Base: membership checking plus exact distance evaluation."""

    kind: str
    complete: Optional[bool] = None
    boundedly_compact: Optional[bool] = None
    compact: Optional[bool] = None

    def contains(self, p) -> bool:
        raise NotImplementedError

    def canon(self, p):
        """Canonical form of a would-be point (no membership check)."""
        return as_scalar(p)

    def check_member(self, p):
        """Return the canonical point, raising MembershipError if p is not in the space."""
        try:
            q = self.canon(p)
        except (TypeError, ValueError) as exc:
            raise MembershipError(f"{p!r} is not a point of {self.kind}: {exc}") from None
        if not self.contains(q):
            raise MembershipError(f"{point_text(q)} is not a point of {self.kind}")
        return q

    def dist(self, p, q) -> Fraction:
        """Exact distance between two points, both membership-checked."""
        return self._dist(self.check_member(p), self.check_member(q))

    def _dist(self, p, q) -> Fraction:
        """Exact distance between two canonical members (not checked)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind}


class _UsualMetric(Space):
    """Subsets of the rationals with the usual metric |x - y|."""

    def _dist(self, p, q) -> Fraction:
        return abs(p - q)


@dataclass(frozen=True)
class HalfLineUsual(_UsualMetric):
    """[0, oo) with the usual metric: complete, boundedly compact, not compact."""

    kind: str = field(default="half_line", init=False)
    complete = True
    boundedly_compact = True
    compact = False

    def contains(self, p) -> bool:
        return p >= 0


@dataclass(frozen=True)
class UnitIntervalRight(_UsualMetric):
    """[0, 1) with the usual metric; not complete (x_n -> 1 escapes)."""

    kind: str = field(default="unit_interval_right", init=False)
    complete = False
    boundedly_compact = False
    compact = False

    def contains(self, p) -> bool:
        return 0 <= p < 1


@dataclass(frozen=True)
class SplitSet(_UsualMetric):
    """(1, 2] union {-1, 0} with the usual metric; not complete (1 + 1/n -> 1)."""

    kind: str = field(default="split_set", init=False)
    complete = False
    boundedly_compact = False
    compact = False

    def contains(self, p) -> bool:
        return (1 < p <= 2) or p == -1 or p == 0


@dataclass(frozen=True)
class ReciprocalSet(_UsualMetric):
    """{1/n : n a positive integer} with the usual metric.

    Not complete: (1/n) is Cauchy with no limit in the set.  This is the
    stock incompleteness witness used by the counterexample builder.
    """

    kind: str = field(default="reciprocal_set", init=False)
    complete = False
    boundedly_compact = False
    compact = False

    def contains(self, p) -> bool:
        return p > 0 and p.numerator == 1


@dataclass(frozen=True)
class GornickiNat(Space):
    """Positive integers with d(x,y) = 1 + |1/x - 1/y| for x != y, else 0.

    Every Cauchy sequence is eventually constant (distinct points are more
    than 1 apart), so the space is complete; the sequence (n) is bounded
    yet has no convergent subsequence, so it is neither compact nor
    boundedly compact.  Positive integers start at 1: the metric needs 1/x.
    """

    kind: str = field(default="gornicki_nat", init=False)
    complete = True
    boundedly_compact = False
    compact = False

    def contains(self, p) -> bool:
        return p.denominator == 1 and p >= 1

    def _dist(self, p, q) -> Fraction:
        if p == q:
            return Fraction(0)
        return 1 + abs(Fraction(1, int(p)) - Fraction(1, int(q)))


@dataclass(frozen=True)
class FiniteSpace(Space):
    """Explicit finite metric space: labels plus an exact distance matrix.

    The matrix is verified against all four metric axioms at construction;
    a failing matrix raises ValueError carrying the first violation.
    """

    labels: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    kind: str = field(default="finite", init=False)
    complete = True
    boundedly_compact = True
    compact = True

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(
            self, "matrix",
            tuple(tuple(as_scalar(v) for v in row) for row in self.matrix))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("finite space labels must be distinct")
        report = verify_metric_axioms(self.labels, self.matrix)
        if not report.passed:
            axiom, witness = report.first_violation
            raise ValueError(f"not a metric: {axiom} fails at {witness}")
        object.__setattr__(
            self, "_index", {label: i for i, label in enumerate(self.labels)})
        n = len(self.labels)
        object.__setattr__(
            self, "_pairs", tuple((self.labels[i], self.labels[j])
                                  for i in range(n) for j in range(i + 1, n)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def canon(self, p):
        if not isinstance(p, str):
            raise MembershipError(f"finite-space points are labels, got {p!r}")
        return p

    def contains(self, p) -> bool:
        return p in self._index

    def _dist(self, p, q) -> Fraction:
        return self.matrix[self._index[p]][self._index[q]]

    def distinct_pairs(self) -> tuple[tuple[str, str], ...]:
        """All unordered pairs of distinct points, in label order.

        The tuple is built once, at construction, and shared by every scan.
        """
        return self._pairs

    def to_json(self) -> dict:
        return {"kind": "finite",
                "labels": list(self.labels),
                "d": [[scalar_text(v) for v in row] for row in self.matrix]}


# ---------------------------------------------------------------------------
# JSON definition format
# ---------------------------------------------------------------------------

_CATALOG = {
    "half_line": HalfLineUsual,
    "unit_interval_right": UnitIntervalRight,
    "split_set": SplitSet,
    "reciprocal_set": ReciprocalSet,
    "gornicki_nat": GornickiNat,
}


def load_space(obj: dict) -> Space:
    """Build a space from its JSON definition (see README for the format)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("space definition must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "finite":
        try:
            labels, d = obj["labels"], obj["d"]
        except KeyError as exc:
            raise ValueError(f"finite space definition missing {exc}") from None
        if not isinstance(labels, list):
            raise ValueError(f"finite space 'labels' must be a list, got {labels!r}")
        if not isinstance(d, list) or not all(isinstance(row, list) for row in d):
            raise ValueError(f"finite space 'd' must be a list of lists, got {d!r}")
        return FiniteSpace(labels=tuple(labels),
                           matrix=tuple(tuple(json_scalar(v) for v in row) for row in d))
    if kind in _CATALOG:
        return _CATALOG[kind]()
    raise ValueError(f"unknown space kind {kind!r}")


def split_set_sample(count: int = 200) -> list[Fraction]:
    """Deterministic rational sample of SplitSet containing -1, 0 and 2.

    The remaining count-3 points are the evenly spaced rationals
    1 + k/(count-2) for k = 1..count-3, all strictly inside (1, 2).
    """
    if count < 4:
        raise ValueError("sample needs at least the points -1, 0, 2 and one more")
    interior = count - 3
    den = interior + 1
    pts = [Fraction(-1), Fraction(0)]
    pts += [1 + Fraction(k, den) for k in range(1, interior + 1)]
    pts.append(Fraction(2))
    return pts

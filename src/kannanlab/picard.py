"""Picard iteration with proof-level diagnostics.

Beyond the raw orbit, a run re-checks on the computed prefix every
quantity the strict-Kannan convergence argument manipulates: the gap
sequence s_n = d(x_n, x_{n+1}) must be strictly decreasing while nonzero,
and every pair of iterates must satisfy d(x_n, x_m) < (s_{n-1}+s_{m-1})/2,
which bounds the whole orbit by s_1.  For maps that do not satisfy the
strict condition these diagnostics simply come back False; they are
measurements, not assumptions.

Termination is exact fixed point, exact cycle, or horizon — never a
tolerance.  Several catalog orbits converge to limits outside their
space, and a tolerance-based stop would report a fixed point those maps
do not have.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .rationals import scalar_text
from .maps import (FixedPointReached, Orbit, SelfMap, Truncated, check_same_space,
                   orbit)
from .conditions import StrictKannan, evaluate_condition, sample_pairs
from .spaces import Space, TheoremContradictionError, point_text


def _status_json(status) -> dict:
    if isinstance(status, FixedPointReached):
        return {"kind": "fixed_point", "at": status.at}
    if isinstance(status, Truncated):
        return {"kind": "truncated", "horizon": status.horizon}
    return {"kind": "cycle", "entry": status.entry, "period": status.period}


@dataclass
class PicardRun:
    orbit: Orbit
    gap_monotone: bool
    pairwise_bound_ok: bool
    gap_limit_evidence: Optional[Fraction]
    fixed_point: Optional[object]
    cauchy_evidence: Optional[Fraction]

    def to_json(self) -> dict:
        return {
            "start": point_text(self.orbit.start),
            "status": _status_json(self.orbit.status),
            "points": [point_text(p) for p in self.orbit.points],
            "gaps": [scalar_text(g) for g in self.orbit.gaps],
            "gap_monotone": self.gap_monotone,
            "pairwise_bound_ok": self.pairwise_bound_ok,
            "gap_limit_evidence": (scalar_text(self.gap_limit_evidence)
                                   if self.gap_limit_evidence is not None else None),
            "fixed_point": (point_text(self.fixed_point)
                            if self.fixed_point is not None else None),
            "cauchy_evidence": (scalar_text(self.cauchy_evidence)
                                if self.cauchy_evidence is not None else None),
        }


def run_picard(space: Space, m: SelfMap, x0, horizon: int = 64) -> PicardRun:
    """Iterate m from x0 and measure the convergence-argument invariants."""
    check_same_space(space, m)
    o = orbit(m, x0, horizon)
    gaps = o.gaps
    pts = o.points

    gap_monotone = all(gaps[i] < gaps[i - 1]
                       for i in range(1, len(gaps)) if gaps[i - 1] > 0)

    # d(x_n, x_m) < (s_{n-1} + s_{m-1}) / 2 for 1 <= n < m; in particular
    # the whole tail stays within s_1 of itself.
    pairwise_bound_ok = True
    last = len(pts) - 1
    for n in range(1, last + 1):
        for mm in range(n + 1, last + 1):
            if space._dist(pts[n], pts[mm]) * 2 >= gaps[n - 1] + gaps[mm - 1]:
                pairwise_bound_ok = False
                break
        if not pairwise_bound_ok:
            break

    fixed_point = None
    if isinstance(o.status, FixedPointReached):
        fixed_point = pts[-1]
        if m._apply(fixed_point) != fixed_point:
            raise TheoremContradictionError(
                f"orbit stopped at {point_text(fixed_point)}, "
                f"which {m.kind} does not fix")

    tail = pts[-max(2, -(-len(pts) // 4)):] if len(pts) >= 2 else []
    cauchy_evidence = None
    if tail:
        cauchy_evidence = max(space._dist(tail[i], tail[j])
                              for i in range(len(tail))
                              for j in range(i + 1, len(tail)))

    return PicardRun(orbit=o,
                     gap_monotone=gap_monotone,
                     pairwise_bound_ok=pairwise_bound_ok,
                     gap_limit_evidence=gaps[-1] if gaps else None,
                     fixed_point=fixed_point,
                     cauchy_evidence=cauchy_evidence)


@dataclass(frozen=True)
class FixedPointCheck:
    is_fixed: bool
    residual: Fraction


def verify_fixed_point(space: Space, m: SelfMap, z) -> FixedPointCheck:
    """Exact residual d(z, Tz) and the exact-zero verdict."""
    check_same_space(space, m)
    z = space.check_member(z)
    residual = space._dist(z, m._apply(z))
    return FixedPointCheck(is_fixed=residual == 0, residual=residual)


def uniqueness_probe(space: Space, m: SelfMap, candidates: Sequence) -> list:
    """The distinct exact fixed points of m among the candidates, in order.

    Two distinct fixed points z, z* make the strict Kannan inequality
    impossible on that pair (left side d(z,z*) > 0 against a zero bound),
    so whenever the condition holds on the candidate pairs the returned
    list has length <= 1; the checker itself confirms this, and a strict
    verdict on two fixed points raises :class:`TheoremContradictionError`.
    """
    check_same_space(space, m)
    fixed = (z for z in (space.check_member(c) for c in candidates)
             if space._dist(z, m._apply(z)) == 0)
    found = list(dict.fromkeys(fixed))
    if len(found) >= 2 and evaluate_condition(StrictKannan(), space, m,
                                              sample_pairs(found)).holds:
        raise TheoremContradictionError(
            "two exact fixed points cannot satisfy the strict condition")
    return found


def orbit_trace_csv(o: Orbit) -> str:
    """CSV trace (step, point, gap) — plot-ready, exact Scalar text."""
    buf = io.StringIO()
    buf.write("step,point,gap\r\n")
    for i, p in enumerate(o.points):
        gap = scalar_text(o.gaps[i]) if i < len(o.gaps) else ""
        buf.write(f"{i},{point_text(p)},{gap}\r\n")
    return buf.getvalue()

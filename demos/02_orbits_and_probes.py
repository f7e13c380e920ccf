"""Orbit generation and finite-horizon compactness evidence.

Two maps on the half line [0, oo): the stair scale collapses every orbit
toward 0, the doubling map runs away.  The cluster probe quantifies the
difference on a finite prefix — and says so honestly (evidence_only).
"""

from fractions import Fraction as F

from kannanlab import (HalfLineUsual, Scale, StairScale, orbit,
                       orbit_cluster_probe)

half = HalfLineUsual()

print("=== stair scale from 3/2 ===")
o = orbit(StairScale(half), F(3, 2), horizon=64)
head = ", ".join(str(p) for p in o.points[:6])
print(f"first points: {head}, ...")
print(f"status: {o.status}")
probe = orbit_cluster_probe(o, radius=F(1, 10))
print(f"cluster probe at radius 1/10: clustered={probe.clustered} "
      f"(witness index {probe.witness_index}, "
      f"{probe.neighbor_count} neighbours, threshold {probe.threshold})")
print(f"orbit diameter: {probe.max_pairwise}")

print()
print("=== doubling from 1 ===")
o = orbit(Scale(half, 2), F(1), horizon=10)
print(f"points: {[str(p) for p in o.points]}")
print(f"status: {o.status}")
probe = orbit_cluster_probe(o, radius=F(1, 2))
print(f"cluster probe at radius 1/2: clustered={probe.clustered}, "
      f"diameter {probe.max_pairwise}")
print("no accumulation evidence and unbounded growth: the half line is")
print("not orbitally compact for the doubling map, although it is for")
print("the stair scale started anywhere.")

print()
print("=== exact cycle detection ===")
from kannanlab import FiniteSpace, TableMap

fs = FiniteSpace(labels=("a", "b", "c"),
                 matrix=((0, 1, 1), (1, 0, 1), (1, 1, 0)))
swap = TableMap(fs, {"a": "b", "b": "a", "c": "a"})
o = orbit(swap, "c", horizon=10)
print(f"points: {o.points}, status: {o.status}")
print("recurrence is decided by exact equality, never by a tolerance.")

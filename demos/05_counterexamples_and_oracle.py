"""Fixed-point-free strict-Kannan maps, and the brute-force oracle.

Two constructions show why completeness and some compactness hypothesis
both matter, then a finite-space census cross-validates the theorems
exhaustively where they *must* hold.
"""

from fractions import Fraction as F

from kannanlab import (build_reciprocal_witness,
                       construct_counterexample_map, enumerate_census,
                       khan_float_crosscheck, random_finite_space,
                       render_census, scan_fixed_point_free, tightness_scan,
                       verify_counterexample, verify_gornicki_answer)
from kannanlab.conditions import ChenYeh, Fisher, KannanK, StrictKannan

print("=== incompleteness buys a fixed-point-free map ===")
witness = build_reciprocal_witness()
cmap = construct_counterexample_map(witness)
print("on {1/n}, each term is sent deep enough down the tail:")
for n in (1, 2, 3, 10):
    print(f"  1/{n} -> 1/{cmap.target_index(n)}")
report = verify_counterexample(cmap, prefix=200)
print(f"strict condition on all {report.condition_report.pairs_checked} "
      f"pairs of the first 200 terms: "
      f"{'holds' if report.condition_report.holds else 'violated'}")
print(f"no fixed point among the first 10^4 terms: "
      f"{scan_fixed_point_free(cmap, 10 ** 4)}")

print()
print("=== a complete space is not enough either ===")
answer = verify_gornicki_answer(1000)
print(f"tripling on the integers with the 1 + |1/x - 1/y| metric:")
print(f"  strict inequality on all {answer.pairs_checked} pairs: "
      f"{answer.strict_inequality}")
print(f"  closed forms match the metric evaluation: {answer.closed_forms_match}")
print(f"  fixed point free: {answer.fixed_point_free}")
print("the space is complete but not compact; without any compactness the")
print("strict condition cannot force a fixed point.")

print()
print("=== finite spaces are compact: the census is the oracle ===")
space = random_finite_space(3, seed=0)
conditions = [StrictKannan(), KannanK(F(1, 3)), Fisher(),
              ChenYeh(F(0), F(0))]
census = enumerate_census(space, conditions)
strict = [r for r in census if dict(r.satisfies)["strict_kannan"]]
print(f"3 points -> {len(census)} self-maps, {len(strict)} strictly Kannan;")
print("each of those has exactly one fixed point and globally convergent")
print("iteration (enumerate_census raises loudly on any deviation).")
print()
# the CLI's CSV: a config comment, the header, then one line per map
csv_lines = "".join(render_census(census, {"size": 3, "seed": 0}, "csv")).splitlines()
print("\n".join(csv_lines[:8]))
print()

# on a band space every strictly Kannan map is constant, so its ratio is
# always 0; a line space has non-constant ones
tight = tightness_scan(random_finite_space(4, seed=2, mode="line"))
print(f"tightness on a 4-point line space: sup of 2*d(Tx,Ty)/(d(x,Tx)+d(y,Ty)) "
      f"over satisfying maps = {tight.ratio} at map {tight.map_id}, pair {tight.pair}")

compared, skipped, mismatches = khan_float_crosscheck(space)
print(f"sqrt-comparison cross-check vs extended floats: {compared} compared, "
      f"{skipped} near-boundary skipped, {len(mismatches)} mismatches")

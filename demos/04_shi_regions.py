#!/usr/bin/env python3
"""List the regions of the Shi arrangement.

For n coordinates the arrangement x_i - x_j = 0, 1 (i < j) cuts space into
(n+1)^(n-1) chambers.  Each chamber comes from a pair (w, U): a permutation
w ordering the coordinates and an up-set U of the position pairs that are
more than 1 apart.  Its label counts, per coordinate, the hyperplanes that
separate it from the base chamber x_1 > ... > x_n (all gaps below 1); the
labels are exactly the parking functions, and the labels of the chambers
that are bounded modulo the line x_1 = ... = x_n are exactly the prime
parking functions.  Each interior point is built from the chamber's (w, U).
"""

from parkfunc import enumerate_regions, feasible_point, hyperplanes

n = 3
print(f"hyperplanes for n={n}:")
for hp in hyperplanes(n):
    print(f"  x{hp.i} - x{hp.j} = {hp.k}")

print(f"\n{'signs':<8} {'label':<7} {'bounded':<8} depth   interior point")
for r in enumerate_regions(n):
    point = feasible_point(r.sign_vector)
    coords = ", ".join(str(c) for c in point)
    label = "".join(map(str, r.label))
    print(f"{r.sign_vector.as_string():<8} {label:<7} "
          f"{str(r.bounded).lower():<8} {r.bfs_depth:<7} ({coords})")

for m in (2, 3, 4):
    regions = enumerate_regions(m)
    bounded = sum(r.bounded for r in regions)
    print(f"\nn={m}: {len(regions)} regions = (n+1)^(n-1), "
          f"{bounded} bounded = (n-1)^(n-1)")

"""Good/bad dyadic cube partition driven by a density field.

Uses the analytic slowly growing density profile of a defect-refined
configuration, classifies dyadic cubes (each standing for its 2^d - 1
gendered cubes) over several levels, verifies the bad-cube sidelength bound
with the certified self-majorization constant, and checks the per-level
overlap count.
"""

import numpy as np

from surfspline import (
    DensityField,
    DyadicParams,
    bad_cube_bound_check,
    certify_self_majorization,
    classify,
    enumerate_cubes,
    genders,
    geometric_tail_bound,
    max_overlap,
    overlap_count,
)

# analytic profile: rho0 near the defect, growing with exponent 2/3, capped
# at the global spacing h
rho0 = 5 * np.sqrt(2.0) * 2.0**-6
h = 2.0**-3
xs = np.arange(-32, 33) * 2.0**-6
gx, gy = np.meshgrid(xs, xs, indexing="ij")
pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
dist = np.linalg.norm(pts, axis=1)
df = DensityField(pts, np.minimum(rho0 * (1 + dist / rho0) ** (2 / 3), h))
print(f"density field: {len(df)} samples, rho in [{df.values.min():.4f}, "
      f"{df.values.max():.4f}]")

r = 2.0
c_sm = certify_self_majorization(df, r)
print(f"certified self-majorization: C_sm = {c_sm:.4f} at r = {r}")

params = DyadicParams(gamma=2.0, sigma=1.5, two_k=4.0)
box = (np.full(2, -0.5), np.full(2, 0.5))
cubes = enumerate_cubes(box, range(0, 7), 2)
good = classify(cubes, df, params)
print(f"\nclassified {len(cubes)} cubes ({len(genders(2)) * len(cubes)} gendered) "
      "over levels 0..6:")
for lv in np.unique(cubes.level):
    at = cubes.level == lv
    g = np.count_nonzero(good & at)
    b = np.count_nonzero(at) - g
    print(f"  level {lv}: {g:5d} good  {b:6d} bad   (side 2^-{lv})")

ratio = bad_cube_bound_check(cubes[~good], df, params, c_sm, r)
print(f"\nbad-cube sidelength bound: max ratio {ratio:.4f} (must be <= 1)")

rng = np.random.default_rng(0)
level4 = cubes[cubes.level == 4]
worst = max(overlap_count(level4, rng.uniform(-0.5, 0.5, 2), params)
            for _ in range(50))
print(f"overlap at level 4: max {worst} over 50 points "
      f"(bound {max_overlap(2, params.gamma)})")

good_sum, bad_sum = geometric_tail_bound(params.sigma, params.two_k, 3)
print(f"\ngeometric tails anchored at level 3: good-series {good_sum:.4f}, "
      f"bad-series {bad_sum:.4f}")

"""Local density measurement and global-compatibility certificates.

Measures the minimal local density of a multiresolution center set along a
ray from the defect, compares it with the predicted slowly growing profile
rho(0) (1 + |x|/rho(0))^(2/3), computes the majorant, and certifies the
slow-growth and self-majorization constants together with their lemma
transfers.
"""

import numpy as np

from surfspline import (
    DensityField,
    MultiresSpec,
    certify_self_majorization,
    certify_slow_growth,
    generate_centers,
    lemma_transfer_sg_to_sm,
    lemma_transfer_sm_to_sg,
    majorant,
    minimal_density,
)

spec = MultiresSpec(j=2, k=1, d=1, defect=np.zeros((1, 1)),
                    box=(np.array([-10.0]), np.array([10.0])),
                    epsilon=1 / 3, degree=7)
cs = generate_centers(spec)
print(f"centers: {len(cs)} on [-10, 10], spacing 2^-4 at the defect to 2^-2 globally")

rho0, _ = minimal_density(cs, np.zeros(1), spec.degree)
print(f"\nminimal density at the defect: rho(0) = {rho0:.5f}")

radii = np.geomspace(0.05, 2.0, 12)
samples = radii[:, None]
values, _ = minimal_density(cs, samples, spec.degree)  # one call for the whole batch
models = rho0 * (1 + radii / rho0) ** (2 / 3)
print("\n  |x|       rho(x)    model     ratio")
for rx, rho, model in zip(radii, values, models):
    print(f"  {rx:7.4f}  {rho:8.5f}  {model:8.5f}  {rho / model:6.3f}")

df = DensityField(samples, values)
r = 2.0
eps = 1 / 3
c_sg = certify_slow_growth(df, eps)
c_sm = certify_self_majorization(df, r)
print(f"\ncertificates on the measured field ({len(df)} samples):")
print(f"  slow growth (eps = 1/3):        C_sg = {c_sg:.4f}")
print(f"  self-majorization (r = 2):      C_sm = {c_sm:.4f}")

eps_t, c_sg_t = lemma_transfer_sm_to_sg(c_sm, r)
r_t, c_sm_t = lemma_transfer_sg_to_sm(c_sg, eps)
print("\nlemma transfers:")
print(f"  from C_sm: eps = {eps_t:.4f}, C_sg bound = {c_sg_t:.4f} "
      f"(measured {certify_slow_growth(df, eps_t):.4f})")
print(f"  from C_sg: r = {r_t:.4f},  C_sm bound = {c_sm_t:.4f} "
      f"(measured {certify_self_majorization(df, r_t):.4f})")

print("\nmajorant along the ray (dominates rho everywhere):")
for x, v in zip(df.points[::4], df.values[::4]):
    print(f"  H({x[0]:7.4f}) = {majorant(df, x, r):.5f}  >=  rho = {v:.5f}")

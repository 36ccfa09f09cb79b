"""Relative inconsistency: the same sheaf under two groundings.

The intrinsic Laplacians cannot distinguish two groundings of one fixed
sheaf. The relative cone channel L1 + eps^T eps can: it acquires a kernel
exactly when the grounding annihilates an intrinsic harmonic mode. The
separation check verifies that equivalence by explicit ranks.
"""

import numpy as np

from sheafgauge import (
    channel_set,
    grounding_identity_c1,
    grounding_killing_kernel,
    kernel_dim,
    laplacian,
    separation_check,
    trivial_bundle,
)

# one copy of the sheaf per grounding, so the base operators below are two
# assemblies, not one kept matrix compared with itself
sheaves = {"full-rank": trivial_bundle(10), "rank-deficient": trivial_bundle(10)}
groundings = {
    "full-rank": grounding_identity_c1(sheaves["full-rank"]),
    "rank-deficient": grounding_killing_kernel(sheaves["rank-deficient"]),
}

for name, grounding in groundings.items():
    channels = channel_set(sheaves[name], grounding)
    print(f"{name:14s}  dim ker (L1 + eps^T eps) = {kernel_dim(channels.relative_spectrum)}")

identical = all(np.array_equal(laplacian(sheaves["full-rank"], j).matrix,
                               laplacian(sheaves["rank-deficient"], j).matrix) for j in (0, 1))
print(f"\nbase channels identical across the pair: {identical}")

print("\nseparation check (kernel of the relative channel vs grounding on harmonics):")
for name, grounding in groundings.items():
    report = separation_check(channel_set(sheaves[name], grounding))
    gamma = "gap > 0" if report.gamma else "kernel present"
    print(f"  {name:14s} dims (a, b, c) = ({report.kernel_relative_channel}, "
          f"{report.kernel_eps_on_harmonics}, {report.kernel_meet_harmonics})  ->  {gamma}")

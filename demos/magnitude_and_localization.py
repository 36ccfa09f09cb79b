"""Telling a structured defect from diffuse noise.

Two bundles on the same 10-cycle, both without global sections: a hidden
twist (one weak, rotated bond) and a noisy trivial bundle (small random
rotations everywhere). Their spectral gaps are of comparable size, but
attributing the low-energy mode energy to edges separates them sharply:
the twist concentrates on its defect edge, the noise cannot concentrate
anywhere (an orthogonal-twist cycle bundle has provably flat cluster
profiles).
"""

from sheafgauge import (
    WitnessConfig,
    coface_energy_map,
    eigendecompose,
    hidden_twist_bundle,
    laplacian,
    noisy_trivial_bundle,
    participation_ratio,
    spectral_gap,
)

n, tau, sigma = 10, 0.3, 0.25

twist = hidden_twist_bundle(n, tau)
noisy = noisy_trivial_bundle(n, sigma, seed=0)

for name, sheaf in (("hidden twist", twist), ("noisy trivial", noisy)):
    gap = spectral_gap(eigendecompose(laplacian(sheaf, 0)))
    print(f"{name:14s} gap = {gap:.5f}")

print("\nedge-attributed energy of the admitted low modes:")
for name, sheaf in (("hidden twist", twist), ("noisy trivial", noisy)):
    energy = coface_energy_map(sheaf, 0, WitnessConfig())
    bars = "".join("#" if v > 0.5 * energy.scores.max() else "." for v in energy.scores)
    print(f"  {name:14s} [{bars}]  argmax = {energy.argmax()}  "
          f"participation = {participation_ratio(energy.scores):.2f}")

print("\nthe defect edge of the twist is (0, 1); the noise profile is flat,")
print("so its participation ratio sits near the number of edges.")

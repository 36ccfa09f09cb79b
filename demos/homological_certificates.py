"""Machine-checked homological facts behind the diagnostics.

Four certificates on small fixtures: the geometric cone realizes the
translated algebraic mapping cone entrywise; the long exact sequence of a
compatible grounding is rank-exact at every node; the degree-0 cone
Laplacian block-decomposes when the coupling vanishes; and cone
filtrations of commuting grounded pairs interleave within eta + v. The
first two read one mapping cone, assembled once by ``algebraic_cone``.
"""

import numpy as np

from sheafgauge import (
    algebraic_cone,
    complete_graph,
    build_clique_complex,
    constant_grounding,
    constant_sheaf,
    grounding_identity_c1,
    synthetic_commuting_side,
    trivial_bundle,
    verify_block_decomposition,
    verify_cone_equivalence,
    verify_cone_reduction,
    verify_long_exact_sequence,
)

k4 = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
grounding = constant_grounding(k4, target_dim=3, seed=1)

cone = algebraic_cone(k4, grounding)
equivalence = verify_cone_equivalence(cone)
print(f"cone equivalence: {equivalence.status}  "
      f"max residual = {equivalence.max_residual:.1e}")

les = verify_long_exact_sequence(cone)
print(f"long exact sequence: {les.status}")
for node in les.nodes:
    print(f"  {node.name:8s} dim = {node.dim}  rank_in = {node.rank_in}  "
          f"rank_out = {node.rank_out}  exact = {node.exact}")

cycle = trivial_bundle(10)
block = verify_block_decomposition(cycle, grounding_identity_c1(cycle))
print(f"\nblock decomposition: coupling = {block.coupling_norm:.1e}  "
      f"asserted = {block.asserted}  max spectral diff = {block.max_spectral_diff:.1e}")

report = verify_cone_reduction(synthetic_commuting_side(0), synthetic_commuting_side(1))
print(f"\ncone reduction: {report.status}")
print(f"  eta = {report.eta:.4f}  v = {report.v_bound:.4f}  theta = {report.theta:.4f}")
print(f"  measured cone interleaving = {report.measured:.4f} "
      f"<= eta + theta = {report.eta + report.theta:.4f}")

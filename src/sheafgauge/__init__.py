"""sheafgauge: spectral inconsistency diagnostics for cellular sheaves.

Builds cellular sheaves on 2-truncated clique complexes (from node features
or synthetic cycle bundles), assembles sheaf and mapping-cone Laplacians,
and computes spectral witnesses that detect, quantify, localize and
relativize structural inconsistency.
"""

from .complexes import (
    CliqueComplex,
    Graph,
    build_clique_complex,
    complete_graph,
    cone_complex,
    cycle_graph,
    graph_from_json,
    graph_to_json,
)
from .diagnostics import (
    DiagnosticsConfig,
    DiagnosticsReport,
    experiment_existence,
    experiment_localization,
    experiment_magnitude,
    experiment_relativity,
    make_grounding,
    participation_ratio,
    run_diagnostics,
    separation_check,
)
from .operators import (
    ChannelSet,
    Coboundary,
    GroundingMorphism,
    MappingCone,
    SheafLaplacian,
    algebraic_cone,
    betti_numbers,
    channel_set,
    coboundary,
    consistency_energy,
    constant_grounding,
    geometric_cone_sheaf,
    grounding_from_padding,
    grounding_identity_c1,
    grounding_killing_kernel,
    grounding_zero_c1,
    incidence_defect,
    is_delta_feasible,
    laplacian,
    laplacian_spectrum,
    numerical_rank,
    propagate_cycle_grounding,
    verify_block_decomposition,
    verify_cone_equivalence,
    verify_long_exact_sequence,
)
from .sheaves import (
    CellSheaf,
    FeaturePipelineConfig,
    Stalk,
    add_restriction_noise,
    build_sheaf_from_features,
    constant_sheaf,
    edge_stalk_intersection,
    hidden_twist_bundle,
    make_line_bundle,
    mobius_bundle,
    node_stalks_from_features,
    noisy_trivial_bundle,
    sheaf_from_json,
    sheaf_to_json,
    triangle_stalk_soft_intersection,
    trivial_bundle,
    validate_sheaf,
)
from .spectral import (
    InterleavingResult,
    LocalWitnessMap,
    Spectrum,
    WitnessConfig,
    coface_energy_map,
    cone_reduction_side,
    eigendecompose,
    global_witness,
    harmonic_space,
    indicator_profile,
    interleaving_shift,
    is_almost_non_exact,
    kernel_dim,
    local_witness,
    local_witness_relative,
    normalize_spectrum,
    spectral_gap,
    synthetic_commuting_side,
    verify_cone_reduction,
)

__version__ = "0.1.0"

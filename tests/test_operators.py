import dataclasses
import math
import re
from functools import cached_property

import numpy as np
import pytest
from conftest import count_solvers
from hypothesis import given
from hypothesis import strategies as st

from sheafgauge.complexes import (
    CliqueComplex,
    Graph,
    build_clique_complex,
    complete_graph,
    cycle_graph,
)
from sheafgauge.operators import (
    COCHAIN_C1,
    COMPATIBILITY_TOL,
    VERTEX_LEVEL,
    AsymmetricOperatorError,
    ChannelSet,
    ConeEquivalenceReport,
    GroundingModeError,
    GroundingMorphism,
    MappingCone,
    SheafLaplacian,
    _assemble_laplacian,
    _gram_sum,
    _proves_empty_kernel,
    algebraic_cone,
    betti_numbers,
    channel_set,
    coboundary,
    consistency_energy,
    constant_grounding,
    decompose,
    geometric_cone_sheaf,
    grounding_from_padding,
    grounding_identity_c1,
    grounding_killing_kernel,
    grounding_zero_c1,
    incidence_defect,
    is_delta_feasible,
    laplacian,
    laplacian_spectrum,
    numerical_kernel,
    numerical_rank,
    propagate_cycle_grounding,
    verify_block_decomposition,
    verify_cone_equivalence,
    verify_long_exact_sequence,
    zero_threshold,
)
from sheafgauge.sheaves import (
    CellSheaf,
    Stalk,
    _read_only,
    build_sheaf_from_features,
    constant_sheaf,
    hidden_twist_bundle,
    make_line_bundle,
    mobius_bundle,
    noisy_trivial_bundle,
    rotation_matrix,
    sheaf_from_json,
    sheaf_to_json,
    trivial_bundle,
    validate_sheaf,
)
from sheafgauge.spectral import (
    COMMUTATION_TOL,
    ConeReductionSide,
    cone_reduction_side,
    eigendecompose,
    kernel_dim,
    spectral_gap,
    verify_cone_reduction,
)


def single_edge_sheaf():
    return constant_sheaf(build_clique_complex(Graph(2, [(0, 1)])), 1)


def random_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


def trivial_holonomy_bundle(n, dim, seed):
    """Random orthogonal twists whose ordered product around the cycle is I."""
    rng = np.random.default_rng(seed)
    twists = {(i, i + 1): random_orthogonal(rng, dim) for i in range(n - 1)}
    # trivial holonomy forces the closing twist to be T_0 T_1 ... T_{n-2}
    transport = np.eye(dim)
    for i in range(n - 1):
        transport = transport @ twists[(i, i + 1)]
    twists[(0, n - 1)] = transport
    return make_line_bundle(n, dim, twists)


# ---------------------------------------------------------------------------
# Coboundaries and Laplacians
# ---------------------------------------------------------------------------


def test_coboundary_single_edge():
    d0 = coboundary(single_edge_sheaf(), 0)
    assert np.array_equal(d0.matrix, np.array([[-1.0, 1.0]]))


def test_coboundary_ten_cycle_circulant_rows():
    sheaf = trivial_bundle(10)
    d0 = coboundary(sheaf, 0).matrix
    assert d0.shape == (10, 10)
    for row in d0:
        assert sorted(row[row != 0]) == [-1.0, 1.0]
    assert np.count_nonzero(d0) == 20


def test_d1_d0_vanishes_exactly_on_k3():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(3)), 1)
    d0 = coboundary(sheaf, 0).matrix
    d1 = coboundary(sheaf, 1).matrix
    assert np.max(np.abs(d1 @ d0)) == 0.0


def _fresh_slices(sheaf, j):
    """Cell slices of C^j and its dimension, recomputed from the stalks."""
    slices, offset = {}, 0
    for cell in sheaf.complex.cells(j):
        d = sheaf.stalk_dim(cell)
        slices[cell] = slice(offset, offset + d)
        offset += d
    return slices, offset


def _reference_coboundary(sheaf, j):
    """Per-coface assembly through faces(), the incidence signs and restriction()."""
    rows, row_dim = _fresh_slices(sheaf, j + 1)
    cols, col_dim = _fresh_slices(sheaf, j)
    matrix = np.zeros((row_dim, col_dim))
    for coface in sheaf.complex.cells(j + 1):
        for face in sheaf.complex.faces(coface):
            sign = sheaf.complex.incidences[(coface, face)]
            matrix[rows[coface], cols[face]] = sign * sheaf.restriction(face, coface)
    return matrix


def _zero_stalk_feature_sheaf(noise=0.05):
    """Features near one 3-frame on vertices 0-5, vertex 6 orthogonal to it;
    without noise, every stalk of 0-5 spans the frame and the sheaf is functorial."""
    rng = np.random.default_rng(4)
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.6]
    frame, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    features = {v: frame[:, :3] + noise * rng.normal(size=(5, 3)) for v in range(6)}
    features[6] = frame[:, 3:]  # orthogonal to the rest: zero-dim edge stalks
    sheaf = build_sheaf_from_features(Graph(7, edges), features)
    assert min(sheaf.stalk_dim(e) for e in sheaf.complex.cells(1)) == 0
    return sheaf


def _triangle_constant_sheaf():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (4, 5)])
    return constant_sheaf(build_clique_complex(g), 2)


@pytest.mark.parametrize("make", [
    lambda: trivial_bundle(9, 2),
    lambda: mobius_bundle(8, 2),
    lambda: hidden_twist_bundle(10, 0.3),
    lambda: noisy_trivial_bundle(11, 0.25, 5),
    lambda: constant_sheaf(build_clique_complex(complete_graph(5)), 1),
    _triangle_constant_sheaf,
    _zero_stalk_feature_sheaf,
    lambda: geometric_cone_sheaf(mobius_bundle(6, 2),
                                 grounding_from_padding(mobius_bundle(6, 2))),
    lambda: geometric_cone_sheaf(_triangle_constant_sheaf(),
                                 constant_grounding(_triangle_constant_sheaf(), 3, seed=2)),
], ids=["trivial", "mobius", "hidden-twist", "noisy-trivial", "constant-k5",
        "constant-triangles", "feature-zero-stalks", "cone-mobius", "cone-constant"])
def test_coboundary_bit_identical_to_reference(make):
    sheaf = make()
    for j in (0, 1):
        d = coboundary(sheaf, j).matrix
        reference = _reference_coboundary(sheaf, j)
        assert d.shape == reference.shape
        # tobytes() also tells a signed zero from an unsigned one
        assert d.tobytes() == reference.tobytes()


def test_coboundary_end_maps_are_empty(monkeypatch):
    # 0 -> C^0 -> C^1 -> C^2 -> 0: outside degrees 0 and 1, d_j scatters no
    # incidence, so it is an empty read-only matrix, assembled once and kept
    # like every d_j
    sheaf = _triangle_constant_sheaf()
    assembled = []
    assemble = CellSheaf._assemble_coboundary
    monkeypatch.setattr(CellSheaf, "_assemble_coboundary",
                        lambda s, j: assembled.append(j) or assemble(s, j))
    for _ in range(2):
        for j, shape in ((-1, (sheaf.cochain_dim(0), 0)), (2, (0, sheaf.cochain_dim(2))),
                         (3, (0, 0))):
            d = coboundary(sheaf, j).matrix
            assert d.shape == shape and d.size == 0
            assert not d.flags.writeable
    assert assembled == [-1, 2, 3]
    assert sheaf.cochain_dim(0) and sheaf.cochain_dim(2)


def test_d_squared_small_for_validated_sheaves():
    rng = np.random.default_rng(0)
    g = Graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.5])
    sheaf = build_sheaf_from_features(g, {v: rng.normal(size=(6, 2)) for v in range(8)})
    d0 = coboundary(sheaf, 0).matrix
    d1 = coboundary(sheaf, 1).matrix
    if d1.size and np.any(d1):
        scale = np.linalg.norm(d0, 2) * np.linalg.norm(d1, 2)
        assert np.linalg.norm(d1 @ d0, 2) < 1e-8 * scale


def test_laplacian_single_edge():
    lap = laplacian(single_edge_sheaf(), 0)
    assert np.array_equal(lap.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(np.linalg.eigvalsh(lap.matrix), [0.0, 2.0])


def test_laplacian_k3_spectrum():
    # oracle: characteristic polynomial of the C3 graph Laplacian gives {0, 3, 3}
    sheaf = constant_sheaf(build_clique_complex(complete_graph(3)), 1)
    values = np.linalg.eigvalsh(laplacian(sheaf, 0).matrix)
    assert np.allclose(values, [0.0, 3.0, 3.0], atol=1e-12)


def test_laplacian_mobius_closed_form():
    lap = laplacian(mobius_bundle(10), 0)
    values = np.linalg.eigvalsh(lap.matrix)
    expected = np.sort([2 - 2 * math.cos((2 * k + 1) * math.pi / 10) for k in range(10)])
    assert np.allclose(values, expected, atol=1e-10)
    assert abs(values[0] - 2 * (1 - math.cos(math.pi / 10))) < 1e-12


def _noisy_feature_sheaf():
    """A G(30, 0.2) feature sheaf at noise 0.05: large and irregular enough
    that a general product of its L_1 terms, as against a Gram product, is
    not exactly symmetric."""
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    edges = [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.2]
    features = {v: basis @ rng.normal(size=(3, 5)) + 0.05 * rng.normal(size=(6, 5))
                for v in range(30)}
    return build_sheaf_from_features(Graph(30, edges), features)


@pytest.mark.parametrize("make", [
    _noisy_feature_sheaf,
    lambda: noisy_trivial_bundle(12, 0.3, 4, stalk_dim=3),
    lambda: hidden_twist_bundle(9, 0.4),
    lambda: constant_sheaf(build_clique_complex(complete_graph(5)), 2),
], ids=["feature", "noisy", "hidden-twist", "constant"])
def test_laplacians_are_exactly_symmetric(make):
    # decompose's symmetry check relies on it: no symmetrization pass is made
    sheaf = make()
    for j in (0, 1, 2):
        m = laplacian(sheaf, j).matrix
        assert np.array_equal(m, m.T), j
    groundings = [grounding_from_padding(sheaf)]
    if len({stalk.dim for stalk in sheaf.stalks.values()}) == 1:  # a constant map needs it
        groundings.append(constant_grounding(sheaf, target_dim=3, seed=2))
    for grounding in groundings:
        cone = algebraic_cone(sheaf, grounding)
        for n in (-1, 0, 1, 2):
            m = cone.laplacian(n).matrix
            assert np.array_equal(m, m.T), n


def test_consistency_energy_kernel_and_rayleigh():
    lap = laplacian(single_edge_sheaf(), 0)
    kernel = np.array([1.0, 1.0]) / math.sqrt(2)
    assert consistency_energy(lap, kernel) < 1e-15
    mode = np.array([1.0, -1.0]) / math.sqrt(2)
    assert abs(consistency_energy(lap, mode) - 2.0) < 1e-12


def test_consistency_energy_matches_hodge_split():
    sheaf = trivial_bundle(10, 2)
    lap = laplacian(sheaf, 0)
    d0 = coboundary(sheaf, 0).matrix
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=lap.dim)
        assert abs(consistency_energy(lap, x) - float(np.sum((d0 @ x) ** 2))) < 1e-10 * max(
            1.0, float(np.sum(x**2))
        )


def test_consistency_energy_hodge_split_degree_one():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    lap = laplacian(sheaf, 1)
    d0 = coboundary(sheaf, 0).matrix
    d1 = coboundary(sheaf, 1).matrix
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.normal(size=lap.dim)
        split = float(np.sum((d1 @ x) ** 2) + np.sum((d0.T @ x) ** 2))
        assert abs(consistency_energy(lap, x) - split) < 1e-10 * max(1.0, split)


def test_consistency_energy_dim_mismatch():
    with pytest.raises(ValueError):
        consistency_energy(laplacian(single_edge_sheaf(), 0), np.ones(3))


def test_delta_feasible_boundary_inclusive():
    lap = laplacian(single_edge_sheaf(), 0)
    mode = np.array([1.0, -1.0]) / math.sqrt(2)
    assert is_delta_feasible(lap, np.ones(2) / math.sqrt(2), 0.0)
    assert not is_delta_feasible(lap, mode, 1.0)
    assert is_delta_feasible(lap, mode, consistency_energy(lap, mode))
    with pytest.raises(ValueError):
        is_delta_feasible(lap, mode, -1.0)


def test_hodge_correspondence_generators_and_features():
    rng = np.random.default_rng(2)
    fixtures = [
        trivial_bundle(10),
        trivial_bundle(8, 2),
        mobius_bundle(10),
        constant_sheaf(build_clique_complex(complete_graph(4)), 2),
        constant_sheaf(build_clique_complex(cycle_graph(6)), 3),
    ]
    for seed in range(5):
        local = np.random.default_rng(seed)
        g = Graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7) if local.random() < 0.5])
        fixtures.append(
            build_sheaf_from_features(g, {v: local.normal(size=(6, 2)) for v in range(7)})
        )
    for sheaf in fixtures:
        betti = betti_numbers(sheaf)
        for j in (0, 1):
            spectrum = eigendecompose(laplacian(sheaf, j))
            assert kernel_dim(spectrum) == betti[j]


@pytest.mark.parametrize("make", [
    lambda: constant_sheaf(build_clique_complex(Graph(0, [])), 1),
    lambda: _zero_stalk_feature_sheaf(noise=0.0),
    _triangle_constant_sheaf,
], ids=["zero-vertex", "feature-zero-stalks", "constant-triangles"])
def test_betti_numbers_are_laplacian_kernels_in_every_degree(make):
    # rank-nullity equals the Hodge kernels on a complex (d_1 d_0 = 0)
    sheaf = make()
    assert sheaf.validated
    kernels = tuple(kernel_dim(laplacian_spectrum(sheaf, j)) for j in (0, 1, 2))
    assert betti_numbers(sheaf) == kernels


def test_betti_numbers_refuse_a_sheaf_with_functoriality_violations():
    # with d1 d0 != 0, rank-nullity read (2, 0, 0) here, against kernels (2, 1, 0)
    sheaf = _zero_stalk_feature_sheaf()
    count = len(validate_sheaf(sheaf))
    assert count > 0
    with pytest.raises(ValueError, match=rf"has {count} functoriality violation\(s\)"):
        betti_numbers(sheaf)


# ---------------------------------------------------------------------------
# Groundings and defects
# ---------------------------------------------------------------------------


def test_padding_grounding_full_rank_orthonormal():
    sheaf = trivial_bundle(6, 3)
    grounding = grounding_from_padding(sheaf)
    for cell in sheaf.stalks:
        eps = grounding.cell_map(cell)
        assert np.max(np.abs(eps.T @ eps - np.eye(3))) < 1e-12


def test_padding_grounding_pads_small_stalks():
    complex_ = build_clique_complex(Graph(2, [(0, 1)]))
    stalks = {
        (0,): Stalk(np.eye(3)[:, :1]),
        (1,): Stalk(np.eye(3)),
        (0, 1): Stalk(np.eye(3)[:, :1]),
    }
    restrictions = {
        ((0,), (0, 1)): np.eye(1),
        ((1,), (0, 1)): np.array([[1.0, 0.0, 0.0]]),
    }
    sheaf = CellSheaf(complex_, stalks, restrictions)
    grounding = grounding_from_padding(sheaf)
    eps = grounding.cell_map((0,))
    assert eps.shape == (3, 1)
    assert abs(np.linalg.norm(eps[:, 0]) - 1.0) < 1e-12


def test_padding_grounding_rank():
    # oracle: rank of the assembled block-diagonal matrix
    sheaf = trivial_bundle(7, 2)
    grounding = grounding_from_padding(sheaf)
    eps0 = grounding.cochain_block(sheaf, 0)
    assert numerical_rank(eps0) == sum(min(sheaf.stalk_dim(v), grounding.target_dim)
                                       for v in sheaf.complex.cells(0))


def _padding_by_vstack(sheaf):
    """Reference padding: every stalk basis stacked over its zero pad."""
    d_max = sheaf.max_ambient_dim
    return {cell: np.vstack([stalk.basis, np.zeros((d_max - stalk.ambient_dim, stalk.dim))])
            for cell, stalk in sheaf.stalks.items()}


def _unequal_ambient_sheaf():
    """One edge whose stalks sit in R^3, R^2 and R^4."""
    complex_ = build_clique_complex(Graph(2, [(0, 1)]))
    rng = np.random.default_rng(12)
    stalks = {
        (0,): Stalk(random_orthogonal(rng, 3)[:, :2]),
        (1,): Stalk(np.eye(2)),
        (0, 1): Stalk(random_orthogonal(rng, 4)[:, :1]),
    }
    restrictions = {((0,), (0, 1)): rng.normal(size=(1, 2)),
                    ((1,), (0, 1)): rng.normal(size=(1, 2))}
    return CellSheaf(complex_, stalks, restrictions)


def test_padding_grounding_bit_identical_to_vstack():
    for sheaf in (trivial_bundle(7, 2), _unequal_ambient_sheaf()):
        grounding = grounding_from_padding(sheaf)
        reference = _padding_by_vstack(sheaf)
        assert grounding.cell_maps.keys() == reference.keys()
        for cell, block in reference.items():
            assert grounding.cell_maps[cell].shape == block.shape
            assert grounding.cell_maps[cell].tobytes() == block.tobytes()


def test_incidence_defect_constant_embedding_commutes():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    grounding = constant_grounding(sheaf, matrix=np.vstack([np.eye(2), np.zeros((1, 2))]))
    defect = incidence_defect(sheaf, grounding)
    assert defect == 0.0


def test_incidence_defect_matches_assembled_commutator():
    # oracle: full matrix eps d - d eps on assembled cochain spaces
    rng = np.random.default_rng(3)
    sheaf = trivial_holonomy_bundle(6, 2, seed=3)
    grounding = grounding_from_padding(sheaf)
    defect = incidence_defect(sheaf, grounding)
    wsheaf = constant_sheaf(sheaf.complex, grounding.target_dim)
    commutator = (
        grounding.cochain_block(sheaf, 1) @ coboundary(sheaf, 0).matrix
        - coboundary(wsheaf, 0).matrix @ grounding.cochain_block(sheaf, 0)
    )
    assert abs(defect - float(np.linalg.norm(commutator))) < 1e-10


def _incidence_defect_per_block(sheaf, grounding):
    """The per-incidence generator that ``incidence_defect`` stacks: the
    defect it returns must be this float exactly."""
    blocks = (grounding.cell_map(coface) @ sheaf.restriction(face, coface)
              - grounding.cell_map(face)
              for coface, face in sheaf.complex.incidences)
    return math.sqrt(sum(float(np.sum(b * b)) for b in blocks))


@pytest.mark.parametrize("make_sheaf, ground", [
    (_zero_stalk_feature_sheaf, grounding_from_padding),
    (_noisy_feature_sheaf, grounding_from_padding),
    (lambda: noisy_trivial_bundle(11, 0.25, 5, 3), grounding_from_padding),
    (lambda: noisy_trivial_bundle(9, 0.3, 1), lambda s: constant_grounding(s, 4, seed=2)),
    (_triangle_constant_sheaf, lambda s: constant_grounding(s, 3, seed=1)),
    (lambda: trivial_holonomy_bundle(8, 2, seed=4),
     lambda s: propagate_cycle_grounding(s, seed=5, target_dim=3)),
], ids=["padding-zero-stalks", "padding-features", "padding-noisy", "constant-noisy",
        "constant-triangles", "propagated"])
def test_incidence_defect_is_the_per_incidence_sum_exactly(make_sheaf, ground):
    sheaf = make_sheaf()
    grounding = ground(sheaf)
    assert incidence_defect(sheaf, grounding) == _incidence_defect_per_block(sheaf, grounding)


def test_propagated_grounding_is_compatible():
    sheaf = trivial_holonomy_bundle(8, 2, seed=4)
    grounding = propagate_cycle_grounding(sheaf, seed=5, target_dim=3)
    assert incidence_defect(sheaf, grounding) < 1e-12


def test_propagated_grounding_obstructed_by_holonomy():
    with pytest.raises(ValueError, match="holonomy"):
        propagate_cycle_grounding(mobius_bundle(6), seed=0)


def test_grounding_mode_and_target_dim_are_read_from_the_payload():
    sheaf = trivial_bundle(6, 2)
    cell_maps = {cell: np.ones((3, 2)) for cell in sheaf.stalks}
    vertex = GroundingMorphism(cell_maps=cell_maps)
    assert (vertex.mode, vertex.target_dim) == (VERTEX_LEVEL, 3)
    c1 = GroundingMorphism(c1_matrix=np.ones((4, sheaf.cochain_dim(1))))
    assert (c1.mode, c1.target_dim) == (COCHAIN_C1, 4)
    # no cells: W = R^0, as padding gives an empty sheaf
    empty = constant_sheaf(build_clique_complex(Graph(0, [])), 2)
    assert GroundingMorphism(cell_maps={}).target_dim == 0
    assert grounding_from_padding(empty).target_dim == 0
    # every grounding constructor agrees with the row count of its maps
    for grounding in (grounding_from_padding(sheaf), constant_grounding(sheaf, target_dim=5),
                      propagate_cycle_grounding(sheaf, seed=1, target_dim=4)):
        assert {m.shape[0] for m in grounding.cell_maps.values()} == {grounding.target_dim}
    # two-row maps make a two-dimensional W, so the cone assembles
    two_rows = GroundingMorphism(cell_maps={cell: np.zeros((2, 2)) for cell in sheaf.stalks})
    assert algebraic_cone(sheaf, two_rows).w_sheaf.stalk_dim((0,)) == 2
    with pytest.raises(AttributeError):
        vertex.target_dim = 2
    with pytest.raises(AttributeError):
        vertex.mode = COCHAIN_C1
    # the maps are a read-only copy, so no map of another row count gets in
    with pytest.raises(TypeError):
        vertex.cell_maps[(0,)] = np.ones((5, 2))
    cell_maps[(0,)] = np.ones((5, 2))
    assert vertex.cell_maps[(0,)].shape == (3, 2)


def test_grounding_rejects_payloads_that_do_not_determine_it():
    sheaf = trivial_bundle(6, 2)
    maps = {cell: np.eye(2) for cell in sheaf.stalks}
    with pytest.raises(GroundingModeError, match="exactly one of cell_maps and c1_matrix"):
        GroundingMorphism()
    with pytest.raises(GroundingModeError, match="exactly one of cell_maps and c1_matrix"):
        GroundingMorphism(cell_maps=maps, c1_matrix=np.eye(sheaf.cochain_dim(1)))
    maps[(0, 1)] = np.ones((3, 2))
    with pytest.raises(GroundingModeError, match=re.escape("row counts [2, 3]")):
        GroundingMorphism(cell_maps=maps)
    # the mode and the target dimension are not arguments
    with pytest.raises(TypeError):
        GroundingMorphism(3, VERTEX_LEVEL, cell_maps=maps)
    with pytest.raises(TypeError):
        GroundingMorphism(c1_matrix=np.eye(2), target_dim=2)


def test_vertex_level_entry_points_name_themselves():
    # a grounding on C^1 has no per-cell maps: each reader of them says so
    sheaf = trivial_bundle(6, 2)
    grounding = grounding_identity_c1(sheaf)
    calls = {
        "cell_map": lambda: grounding.cell_map((0,)),
        "cochain_block": lambda: grounding.cochain_block(sheaf, 0),
        "incidence defect": lambda: incidence_defect(sheaf, grounding),
        "the algebraic cone": lambda: algebraic_cone(sheaf, grounding),
        "the geometric cone": lambda: geometric_cone_sheaf(sheaf, grounding),
    }
    for what, call in calls.items():
        with pytest.raises(GroundingModeError, match=f"^{what} needs a vertex-level grounding$"):
            call()


def test_grounding_payloads_are_read_only():
    sheaf = trivial_bundle(6, 2)
    identity = grounding_identity_c1(sheaf)
    channels = channel_set(sheaf, identity)
    eps = channels.eps.copy()
    with pytest.raises(ValueError, match="read-only"):
        identity.c1_matrix[0, 0] = 5.0
    assert np.array_equal(channels.eps, eps)
    padding = grounding_from_padding(sheaf)
    with pytest.raises(ValueError, match="read-only"):
        padding.cell_maps[(0,)][0, 0] = 7.0
    for grounding in (grounding_killing_kernel(sheaf), grounding_zero_c1(sheaf)):
        assert not grounding.c1_matrix.flags.writeable
    for grounding in (constant_grounding(sheaf, seed=3),
                      propagate_cycle_grounding(sheaf, seed=1, target_dim=3)):
        assert not any(m.flags.writeable for m in grounding.cell_maps.values())
    # the constant map is frozen once and shared by every cell
    assert len({id(m) for m in constant_grounding(sheaf).cell_maps.values()}) == 1
    # a writeable payload is copied once: the caller's array keeps its flags
    # and a later write to it does not reach the grounding
    c1 = np.eye(sheaf.cochain_dim(1))
    grounding = GroundingMorphism(c1_matrix=c1)
    c1[0, 0] = 5.0
    assert c1.flags.writeable and grounding.c1_matrix[0, 0] == 1.0


# ---------------------------------------------------------------------------
# Mapping cones
# ---------------------------------------------------------------------------


def test_cone_split_at_zero_morphism():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    grounding = constant_grounding(sheaf, matrix=np.zeros((2, 2)))
    cone = algebraic_cone(sheaf, grounding)
    betti_f = betti_numbers(sheaf)
    betti_w = betti_numbers(constant_sheaf(sheaf.complex, 2))
    betti_cone = verify_long_exact_sequence(cone).betti_cone
    for n in (-1, 0, 1):
        expected = (betti_f[n + 1] if 0 <= n + 1 <= 2 else 0) + (
            betti_w[n] if 0 <= n <= 2 else 0
        )
        assert betti_cone[n + 1] == expected
    # spectrum of the cone Laplacian splits into the two block spectra
    for n in (0, 1):
        cone_spec = np.sort(np.linalg.eigvalsh(cone.laplacian(n).matrix))
        parts = []
        if 0 <= n + 1 <= 2:
            parts.append(np.linalg.eigvalsh(laplacian(sheaf, n + 1).matrix))
        if 0 <= n <= 2:
            parts.append(
                np.linalg.eigvalsh(laplacian(constant_sheaf(sheaf.complex, 2), n).matrix)
            )
        split = np.sort(np.concatenate(parts))
        assert np.max(np.abs(cone_spec - split)) < 1e-8


def test_long_exact_sequence_ranks_each_map_once(monkeypatch):
    sheaf = _triangle_constant_sheaf()
    cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
    ranked = []
    monkeypatch.setattr("sheafgauge.operators.numerical_rank",
                        lambda m: ranked.append(m.shape) or numerical_rank(m))
    report = verify_long_exact_sequence(cone)
    assert report.status == "pass"
    # the 9 maps between the 10 nodes and one empty zero map at each end
    assert len(report.nodes) == 10 and len(ranked) == 11
    assert ranked[0] == (report.nodes[0].dim, 0) and ranked[-1] == (0, report.nodes[-1].dim)


def _d_squared(cone):
    """Largest entry of every product of two consecutive cone differentials."""
    return max(float(np.max(np.abs(cone.differential(n + 1) @ cone.differential(n)),
                            initial=0.0)) for n in (-2, -1, 0, 1))


def test_cone_of_identity_is_acyclic():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    grounding = constant_grounding(sheaf, matrix=np.eye(2))
    cone = algebraic_cone(sheaf, grounding)
    assert _d_squared(cone) <= 1e-10
    assert verify_long_exact_sequence(cone).betti_cone == (0, 0, 0, 0)


def test_cone_d_squared_for_compatible_morphism():
    sheaf = trivial_holonomy_bundle(7, 2, seed=6)
    grounding = propagate_cycle_grounding(sheaf, seed=7)
    cone = algebraic_cone(sheaf, grounding)
    assert cone.defect_total < 1e-10
    assert _d_squared(cone) < 1e-10


def test_cone_flags_incompatible_morphism():
    sheaf = mobius_bundle(6)
    cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
    assert cone.defect_total > 0.1
    assert _d_squared(cone) > 1e-10


def test_geometric_cone_sheaf_shape():
    sheaf = trivial_bundle(10, 2)
    grounding = grounding_from_padding(sheaf)
    cone_sheaf = geometric_cone_sheaf(sheaf, grounding)
    apex = cone_sheaf.complex.apex
    assert cone_sheaf.stalk_dim((apex,)) == grounding.target_dim
    assert len(cone_sheaf.complex.cells(2)) == 10
    lap = laplacian(cone_sheaf, 0)
    assert lap.dim == sheaf.cochain_dim(0) + grounding.target_dim


def test_geometric_cone_kernel_for_constant_full_rank_grounding():
    # oracle: dense kernel of the cone Laplacian; sections must match all
    # vertex embeddings of one ambient vector
    sheaf = trivial_bundle(8, 2)
    grounding = grounding_from_padding(sheaf)
    cone_sheaf = geometric_cone_sheaf(sheaf, grounding)
    spectrum = eigendecompose(laplacian(cone_sheaf, 0))
    assert kernel_dim(spectrum) == 2


def test_cone_equivalence_constant_case():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    grounding = constant_grounding(sheaf, matrix=np.eye(2))
    report = verify_cone_equivalence(algebraic_cone(sheaf, grounding))
    assert report.status == "pass"
    assert report.max_residual == 0.0


def test_cone_equivalence_mobius_zero_grounding():
    # the only compatible grounding on the Mobius bundle is zero
    sheaf = mobius_bundle(10)
    from sheafgauge.operators import GroundingMorphism

    cell_maps = {cell: np.zeros((2, sheaf.stalk_dim(cell))) for cell in sheaf.stalks}
    grounding = GroundingMorphism(cell_maps=cell_maps)
    report = verify_cone_equivalence(algebraic_cone(sheaf, grounding))
    assert report.status == "pass"
    assert report.max_residual < 1e-12


def test_cone_equivalence_reports_defect_on_incompatible():
    sheaf = mobius_bundle(8)
    report = verify_cone_equivalence(algebraic_cone(sheaf, grounding_from_padding(sheaf)))
    assert report.status == "hypothesis-not-met"
    assert report.defect_norm > 0.1
    assert report.max_residual is None


def test_cone_equivalence_random_compatible_fixtures():
    for seed in range(5):
        sheaf = trivial_holonomy_bundle(6 + seed, 2, seed=seed)
        grounding = propagate_cycle_grounding(sheaf, seed=seed + 100)
        report = verify_cone_equivalence(algebraic_cone(sheaf, grounding))
        assert report.status == "pass"
        assert report.max_residual < 1e-12


def test_les_identity_and_zero():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    identity = verify_long_exact_sequence(
        algebraic_cone(sheaf, constant_grounding(sheaf, matrix=np.eye(2))))
    assert identity.status == "pass"
    assert identity.betti_cone == (0, 0, 0, 0)
    zero = verify_long_exact_sequence(
        algebraic_cone(sheaf, constant_grounding(sheaf, matrix=np.zeros((2, 2)))))
    assert zero.status == "pass"
    betti_f, betti_w = zero.betti_f, zero.betti_w
    assert zero.betti_cone == (
        betti_f[0],
        betti_f[1] + betti_w[0],
        betti_f[2] + betti_w[1],
        betti_w[2],
    )


def test_les_random_compatible_morphisms():
    rng = np.random.default_rng(8)
    reports = []
    for seed in range(5):
        sheaf = trivial_holonomy_bundle(5 + seed, 2, seed=seed)
        reports.append(
            verify_long_exact_sequence(
                algebraic_cone(sheaf, propagate_cycle_grounding(sheaf, seed=seed)))
        )
    for seed in range(5):
        sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
        grounding = constant_grounding(sheaf, target_dim=3, seed=seed)
        reports.append(verify_long_exact_sequence(algebraic_cone(sheaf, grounding)))
    for report in reports:
        assert report.status == "pass"
        for node in report.nodes:
            assert node.exact


def test_numerical_kernel_rejects_an_asymmetric_operator():
    with pytest.raises(AsymmetricOperatorError):
        numerical_kernel(SheafLaplacian(np.array([[1.0, 1.0], [0.0, 1.0]]), 0))


def test_decompose_tolerates_only_a_rounding_asymmetry():
    # the exact test decides first; a matrix that fails it is held to the tolerance
    a = np.random.default_rng(8).normal(size=(6, 6))
    m = a @ a.T
    scale = max(1.0, float(np.max(np.abs(m))))
    for offset, passes in ((1e-12, True), (1e-9, False)):
        skewed = m.copy()
        skewed[0, 3] += offset * scale
        if passes:
            assert decompose(SheafLaplacian(skewed, 1)).dim == 6
        else:
            with pytest.raises(AsymmetricOperatorError,
                               match="^operator is not symmetric within tolerance$"):
                decompose(SheafLaplacian(skewed, 1))


def test_numerical_kernel_of_each_cone_laplacian_is_its_decomposed_kernel():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(5)), 2)
    dims = []
    for grounding in (grounding_from_padding(sheaf),
                      constant_grounding(sheaf, matrix=np.zeros((2, 2)))):
        cone = algebraic_cone(sheaf, grounding)
        for n in (-1, 0, 1, 2):
            kernel = numerical_kernel(cone.laplacian(n))
            assert np.array_equal(kernel, decompose(cone.laplacian(n)).kernel)
            assert kernel.base is None  # a copy: the full eigenbasis is not kept
            dims.append(kernel.shape[1])
    assert dims[:4] == [0, 0, 0, 0] and sum(dims[4:]) > 0


def _cone_layout_index(geo_sheaf, base_sheaf, w, degree):
    """Coordinate map from the geometric cone layout to the translated-cone
    layout [C^degree(F) | C^{degree-1}(W)], found cell by cell."""
    apex = geo_sheaf.complex.apex
    f_offset = base_sheaf.cell_slices(degree)
    f_total = base_sheaf.cochain_dim(degree)
    base_cells = base_sheaf.complex.cells(degree - 1) if degree >= 1 else ()
    w_index = {cell: i for i, cell in enumerate(base_cells)}
    index = np.empty(geo_sheaf.cochain_dim(degree), dtype=int)
    position = 0
    for cell in geo_sheaf.complex.cells(degree):
        d = geo_sheaf.stalk_dim(cell)
        if apex in cell:
            base = tuple(x for x in cell if x != apex)
            slot = 0 if degree == 0 else w_index[base]
            start = f_total + w * slot
        else:
            start = f_offset[cell].start
        index[position : position + d] = np.arange(start, start + d)
        position += d
    return index


def _reference_cone_equivalence(sheaf, grounding):
    """Cone equivalence from its own assembly: the incidence defect, the
    augmented translated cone (degree -1 carries the apex column, one
    identity per vertex over C^0(W)) and the residual loop, in degrees 0-2,
    over the geometric cone with its cells sorted, permuted into the
    translated layout."""
    defect = incidence_defect(sheaf, grounding)
    if defect > COMPATIBILITY_TOL:
        return ConeEquivalenceReport("hypothesis-not-met", defect, None, None)
    w = grounding.target_dim
    wsheaf = constant_sheaf(sheaf.complex, w)
    f = [sheaf.cochain_dim(j) for j in (0, 1, 2)]
    wd = [wsheaf.cochain_dim(j) for j in (0, 1, 2)]
    d_minus1 = np.zeros((f[1] + wd[0], f[0] + w))
    d_minus1[: f[1], : f[0]] = -coboundary(sheaf, 0).matrix
    d_minus1[f[1] :, : f[0]] = -grounding.cochain_block(sheaf, 0)
    d_minus1[f[1] :, f[0] :] = np.vstack([np.eye(w)] * len(sheaf.complex.cells(0)))
    d_zero = np.zeros((f[2] + wd[1], f[1] + wd[0]))
    d_zero[: f[2], : f[1]] = -coboundary(sheaf, 1).matrix
    d_zero[f[2] :, : f[1]] = -grounding.cochain_block(sheaf, 1)
    d_zero[f[2] :, f[1] :] = coboundary(wsheaf, 0).matrix
    # C^3(F) = 0: d^1 maps C^2(F) + C^1(W) into C^2(W) alone
    d_one = np.hstack([-grounding.cochain_block(sheaf, 2), coboundary(wsheaf, 1).matrix])
    coned = geometric_cone_sheaf(sheaf, grounding)
    cells = coned.complex
    sorted_complex = CliqueComplex([sorted(cells.cells(j)) for j in cells.degrees],
                                   cells.incidences, apex=cells.apex)
    geo = CellSheaf(sorted_complex, coned.stalks, coned.restrictions)
    index = {j: _cone_layout_index(geo, sheaf, w, j) for j in (0, 1, 2, 3)}
    residuals = {}
    for j, differential in ((0, d_minus1), (1, d_zero), (2, d_one)):
        geometric = coboundary(geo, j).matrix
        reordered = (-differential)[np.ix_(index[j + 1], index[j])]
        residuals[j] = float(np.max(np.abs(geometric - reordered))) if geometric.size else 0.0
    worst = max(residuals.values())
    return ConeEquivalenceReport("pass" if worst < 1e-12 else "fail", defect, worst, residuals)


def _shared_cone_fixtures():
    k4 = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    fixtures = [(k4, constant_grounding(k4, matrix=np.eye(2))),
                (k4, constant_grounding(k4, matrix=np.zeros((2, 2))))]
    fixtures += [(k4, constant_grounding(k4, target_dim=3, seed=seed)) for seed in range(5)]
    for seed in range(5):
        sheaf = trivial_holonomy_bundle(5 + seed, 2, seed=seed)
        fixtures.append((sheaf, propagate_cycle_grounding(sheaf, seed=seed)))
    mobius = mobius_bundle(8)
    zero_maps = {cell: np.zeros((2, mobius.stalk_dim(cell))) for cell in mobius.stalks}
    fixtures.append((mobius, GroundingMorphism(cell_maps=zero_maps)))
    fixtures.append((mobius, grounding_from_padding(mobius)))
    return fixtures


def test_cone_equivalence_equals_reference_assembly():
    statuses = []
    for sheaf, grounding in _shared_cone_fixtures():
        report = verify_cone_equivalence(algebraic_cone(sheaf, grounding))
        reference = _reference_cone_equivalence(sheaf, grounding)
        assert report.status == reference.status
        assert report.defect_norm == reference.defect_norm
        assert report.max_residual == reference.max_residual
        assert report.residual_by_degree == reference.residual_by_degree
        # the coned complex is laid out as the translated cone: the
        # permutation is the identity
        geo = geometric_cone_sheaf(sheaf, grounding)
        for j in (0, 1, 2, 3):
            index = _cone_layout_index(geo, sheaf, grounding.target_dim, j)
            assert index.tolist() == list(range(geo.cochain_dim(j)))
        statuses.append(report.status)
    assert statuses == ["pass"] * 13 + ["hypothesis-not-met"]


def test_cone_laplacians_bit_identical_to_standalone():
    # the cone's differentials hold the coboundaries of its two sheaves, and
    # the Laplacians the certificates read from those sheaves are the
    # standalone ones, bit for bit
    for sheaf, grounding in _shared_cone_fixtures():
        cone = algebraic_cone(sheaf, grounding)
        wsheaf = constant_sheaf(sheaf.complex, grounding.target_dim)
        assert cone.sheaf is sheaf
        f0, f1 = sheaf.cochain_dim(0), sheaf.cochain_dim(1)
        w0, w1 = wsheaf.cochain_dim(0), wsheaf.cochain_dim(1)
        d = {n: cone.differential(n) for n in (-1, 0, 1)}
        assert d[-1][:f1, :f0].tobytes() == (-coboundary(sheaf, 0).matrix).tobytes()
        assert d[0][:sheaf.cochain_dim(2), :f1].tobytes() == \
            (-coboundary(sheaf, 1).matrix).tobytes()
        assert d[0][sheaf.cochain_dim(2):, f1:].tobytes() == \
            coboundary(cone.w_sheaf, 0).matrix.tobytes()
        assert d[1][:, sheaf.cochain_dim(2):].tobytes() == \
            coboundary(cone.w_sheaf, 1).matrix.tobytes()
        assert d[0].shape == (sheaf.cochain_dim(2) + w1, f1 + w0)
        for j in (0, 1, 2):
            assert laplacian(cone.w_sheaf, j).matrix.tobytes() == \
                laplacian(wsheaf, j).matrix.tobytes()


@pytest.mark.parametrize("face", ["base triangle", "cone triangle"])
def test_cone_equivalence_sees_a_negated_tetrahedron_map(monkeypatch, face):
    # one restriction into a cone tetrahedron negated, either the grounding
    # map of its base triangle or the identity from one of its cone faces:
    # only d_2 of the geometric cone moves, so only degree 2 fails
    from sheafgauge import operators

    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    grounding = constant_grounding(sheaf, matrix=[[1.0, 0.0]])
    build = operators.geometric_cone_sheaf

    def negated(sheaf, grounding):
        geo = build(sheaf, grounding)
        apex = geo.complex.apex
        key = next((f, c) for f, c in geo.restrictions
                   if len(c) == 4 and (apex in f) == (face == "cone triangle"))
        m = -geo.restrictions[key]
        m.flags.writeable = False
        return geo._replacing({key: m})

    assert verify_cone_equivalence(algebraic_cone(sheaf, grounding)).residual_by_degree == \
        {0: 0.0, 1: 0.0, 2: 0.0}
    monkeypatch.setattr(operators, "geometric_cone_sheaf", negated)
    report = verify_cone_equivalence(algebraic_cone(sheaf, grounding))
    assert report.status == "fail"
    assert report.residual_by_degree[0] == report.residual_by_degree[1] == 0.0
    assert report.residual_by_degree[2] == report.max_residual == 2.0


def _formula_cone_laplacian(cone, n):
    """The cone's own Laplacian formula before it shared ``_hodge_laplacian``."""
    down = cone.differential(n - 1)
    up = cone.differential(n)
    m = down @ down.T + up.T @ up
    return 0.5 * (m + m.T)


def _padded_cone_fixtures():
    sheaves = []
    for n in (6, 9):
        sheaves += [trivial_bundle(n), mobius_bundle(n), hidden_twist_bundle(n, 0.3),
                    noisy_trivial_bundle(n, 0.25, n)]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        edges = [(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.3]
        sheaves.append(constant_sheaf(build_clique_complex(Graph(12, edges)), seed + 1))
    return sheaves


def test_cone_laplacian_bit_identical_to_its_formula():
    sheaves = _padded_cone_fixtures()
    assert len(sheaves) == 11
    for sheaf in sheaves:
        cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
        for n in (-1, 0, 1, 2):
            lap = cone.laplacian(n)
            reference = _formula_cone_laplacian(cone, n)
            assert lap.degree == n
            assert lap.matrix.shape == reference.shape
            assert lap.matrix.tobytes() == reference.tobytes()


def test_cone_reduction_side_equals_standalone_assembly():
    # the residuals from standalone blocks, and the spectra of those blocks:
    # eigh for L_1(F) and L_0(W), as their sheaves decompose them
    def largest(m):
        return float(np.max(np.abs(m), initial=0.0))

    statuses = []
    for sheaf, grounding in _shared_cone_fixtures():
        side = cone_reduction_side(algebraic_cone(sheaf, grounding))
        eps0 = grounding.cochain_block(sheaf, 0)
        eps1 = grounding.cochain_block(sheaf, 1)
        wsheaf = constant_sheaf(sheaf.complex, grounding.target_dim)
        d_f0 = coboundary(sheaf, 0).matrix
        d_w0 = coboundary(wsheaf, 0).matrix
        base_f, gram_f = laplacian(sheaf, 1).matrix, eps1.T @ eps1
        base_w, gram_w = laplacian(wsheaf, 0).matrix, eps0 @ eps0.T
        residuals = {"intertwine": largest(d_w0.T @ eps1 - eps0 @ d_f0.T),
                     "commutator_f": largest(base_f @ gram_f - gram_f @ base_f),
                     "commutator_w": largest(base_w @ gram_w - gram_w @ base_w)}
        assert side.residuals == residuals
        if max(residuals.values()) > COMMUTATION_TOL:
            assert side.spectra is None
            statuses.append("hypothesis-not-met")
            continue
        cone = np.concatenate([np.linalg.eigvalsh(base_f + gram_f),
                               np.linalg.eigvalsh(base_w + gram_w)])
        spectra = {"base_f": np.linalg.eigh(base_f)[0], "gram_f": np.linalg.eigvalsh(gram_f),
                   "base_w": np.linalg.eigh(base_w)[0], "gram_w": np.linalg.eigvalsh(gram_w),
                   "cone": np.sort(cone)}
        assert sorted(side.spectra) == sorted(spectra)
        for name, eigenvalues in spectra.items():
            assert side.spectra[name].tobytes() == eigenvalues.tobytes()
        statuses.append("pass")
    assert "pass" in statuses and "hypothesis-not-met" in statuses


def test_cone_keeps_only_its_sheaf_and_grounding():
    sheaf = mobius_bundle(6)
    cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
    assert [f.name for f in dataclasses.fields(MappingCone)] == ["sheaf", "grounding"]
    assert [f.name for f in dataclasses.fields(ConeReductionSide)] == ["residuals", "spectra"]
    # a cleared defect used to turn this hypothesis-not-met into a pass
    with pytest.raises(dataclasses.FrozenInstanceError):
        cone.defect_total = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cone.eps = {}
    assert verify_cone_equivalence(cone).status == "hypothesis-not-met"


def test_cone_parts_are_read_only():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
    with pytest.raises(TypeError):
        cone.eps[0] = np.zeros_like(cone.eps[0])
    for j in (0, 1, 2):
        assert not cone.eps[j].flags.writeable

    def dim(n):  # Cone^n = C^{n+1}(F) + C^n(W)
        return sheaf.cochain_dim(n + 1) + cone.w_sheaf.cochain_dim(n)

    for n in range(-2, 3):
        d = cone.differential(n)
        assert d.shape == (dim(n + 1), dim(n))
        with pytest.raises(ValueError):
            d[...] = 1.0


def test_failing_hypotheses_form_no_differential(monkeypatch):
    sheaf = mobius_bundle(6)
    cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
    solved = []
    for solver in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, solver)
        monkeypatch.setattr(np.linalg, solver,
                            lambda m, _original=original: solved.append(m) or _original(m))
    assert verify_cone_equivalence(cone).status == "hypothesis-not-met"
    assert verify_long_exact_sequence(cone).status == "hypothesis-not-met"
    side = cone_reduction_side(cone)
    assert verify_cone_reduction(side, side).status == "hypothesis-not-met"
    assert "_differentials" not in vars(cone)
    assert side.spectra is None and solved == []


def test_cone_reduction_reads_the_kept_base_spectra():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(5)), 2)
    cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
    side = cone_reduction_side(cone)
    assert side.spectra["base_f"] is laplacian_spectrum(sheaf, 1).eigenvalues
    assert side.spectra["base_w"] is laplacian_spectrum(cone.w_sheaf, 0).eigenvalues


def _k5_r2():
    return constant_sheaf(build_clique_complex(complete_graph(5)), 2)


def _k5_line_in_r2():
    """The constant R^1 sheaf on K5 with every stalk the line e1 of R^2."""
    line = constant_sheaf(build_clique_complex(complete_graph(5)), 1)
    return CellSheaf(line.complex, dict.fromkeys(line.stalks, Stalk(np.eye(2, 1))),
                     line.restrictions)


GROUNDINGS = {
    "k5-padding": grounding_from_padding,
    "6-cycle-padding": grounding_from_padding,
    "k5-first-coordinate": lambda sheaf: constant_grounding(sheaf, matrix=[[1.0, 0.0]]),
    "k5-singular-square": lambda sheaf: constant_grounding(sheaf, matrix=np.diag([1.0, 0.0])),
}


def _les_and_side(name):
    """The cone of a fresh fixture ``name``, its LES report and its cone-reduction side."""
    sheaf = trivial_bundle(6, 2) if name == "6-cycle-padding" else _k5_r2()
    cone = algebraic_cone(sheaf, GROUNDINGS[name](sheaf))
    return cone, verify_long_exact_sequence(cone), cone_reduction_side(cone)


@pytest.mark.parametrize("name, betti_cone", [
    ("k5-padding", (0, 0, 0, 0)), ("6-cycle-padding", (0, 0, 0, 0)),
    # non-square maps: degrees 0 and 2 are proved empty, -1 and 1 read from eigh
    ("k5-first-coordinate", (1, 0, 4, 0)),
    # square maps, singular: no factorization completes, every kernel is from eigh
    ("k5-singular-square", (1, 1, 4, 4)),
])
def test_sharing_w_and_reading_kernel_values_first_change_no_bit(monkeypatch, name, betti_cone):
    # the certificates of a cone whose W is its own sheaf and whose empty
    # kernels are proved by a shifted factorization, with no eigenvalue
    # computed, equal, to the bit, those of a separately built constant W
    # with every cone kernel read from a full eigh
    cone, report, side = _les_and_side(name)
    # every fixture here has identity restrictions: W is F with square maps
    assert (cone.w_sheaf is cone.sheaf) == (name != "k5-first-coordinate")
    assert report.betti_cone == betti_cone

    from sheafgauge import operators

    separate_w = cached_property(
        lambda cone: constant_sheaf(cone.sheaf.complex, cone.grounding.target_dim))
    separate_w.__set_name__(MappingCone, "w_sheaf")
    monkeypatch.setattr(MappingCone, "w_sheaf", separate_w)
    monkeypatch.setattr(operators, "_cone_kernel",
                        lambda cone, n: numerical_kernel(cone.laplacian(n)))
    reference_cone, reference, reference_side = _les_and_side(name)
    assert reference_cone.w_sheaf is not reference_cone.sheaf

    # repr writes every field, and every float round-trips: -0.0 differs from 0.0
    assert report == reference and repr(report) == repr(reference)
    assert repr(side.residuals) == repr(reference_side.residuals)
    assert side.spectra.keys() == reference_side.spectra.keys()
    for key, values in side.spectra.items():
        assert values.tobytes() == reference_side.spectra[key].tobytes(), key


def test_a_padded_cone_with_smaller_stalks_solves_each_laplacian_once(monkeypatch):
    # stalks R^1 in the ambient R^2: padding is a morphism but no isomorphism,
    # its cone is not acyclic. Each cone Laplacian gets one factorization
    # (dpotrf), and each of the two with a kernel (degrees 0 and 2) one
    # eigendecomposition, factored through the bundled LAPACK (dsytrd)
    embedded = _k5_line_in_r2()
    cone = algebraic_cone(embedded, grounding_from_padding(embedded))
    counts, _ = count_solvers(monkeypatch)
    report = verify_long_exact_sequence(cone)
    assert report.status == "pass" and report.betti_cone == (0, 1, 0, 4)
    # 2 cone Laplacians, L_0-L_2 of F and of W
    assert counts == {"eigh": 0, "dsytrd": 8, "eigvalsh": 0, "cholesky": 0, "dpotrf": 4}


@st.composite
def gram_factors(draw):
    """(kind, D, E) of a Gram sum D D^T + E^T E: full rank, rank-deficient,
    or with its smallest eigenvalue planted at a multiple ``kind`` of the
    zero cutoff zero_threshold(lambda_max), over a few larger eigenvalues."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(("full-rank", "rank-deficient", 0.5, 1.0, 2.0, 1e3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    if isinstance(kind, str):
        rank = n + draw(st.integers(0, 4)) if kind == "full-rank" else draw(st.integers(0, n - 1))
        split = draw(st.integers(0, rank))
        return kind, scale * rng.normal(size=(n, split)), scale * rng.normal(size=(rank - split, n))
    lam_max = scale ** 2
    values = np.sort(lam_max * rng.uniform(1e-3, 1.0, size=n))
    values[-1], values[0] = lam_max, kind * zero_threshold(lam_max)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    split = draw(st.integers(0, n))
    return (kind, q[:, :split] * np.sqrt(values[:split]),
            (q[:, split:] * np.sqrt(values[split:])).T)


@given(gram_factors())
def test_a_completed_shifted_factorization_proves_an_empty_kernel(factors):
    # whenever the factorization completes, the cutoff of decompose counts no
    # kernel on either solver path; the matrix is left as it was, bit for bit
    kind, d, e = factors
    m = _gram_sum(d, e)
    assembled = m.tobytes()
    proved = _proves_empty_kernel(m)
    assert m.tobytes() == assembled
    if proved:
        lap = SheafLaplacian(m, 0)
        assert kernel_dim(decompose(lap)) == kernel_dim(decompose(lap, vectors=False)) == 0
    # a smallest eigenvalue far above the cutoff is proved, one at or below it never
    if kind == 1e3:
        assert proved
    if kind in (0.5, 1.0, "rank-deficient"):
        assert not proved


def test_w_is_the_sheaf_exactly_when_its_complex_is_ws():
    k5 = _k5_r2()
    # one restriction negated, or with a -0.0 entry: an equal identity, not the same bits
    negated, signed_zero = (k5._replacing({((0,), (0, 1)): _read_only(m)})
                            for m in (-np.eye(2), [[1.0, -0.0], [0.0, 1.0]]))
    # stalks R^1 in the ambient R^2: the padding W is R^2, not the stalks
    embedded = _k5_line_in_r2()
    # the stalk bases do not enter W's operators
    rotated = CellSheaf(k5.complex, dict.fromkeys(k5.stalks, Stalk(rotation_matrix(0.3))),
                        k5.restrictions)
    cases = [(k5, True), (sheaf_from_json(sheaf_to_json(k5)), True), (rotated, True),
             (negated, False), (signed_zero, False), (embedded, False)]
    for sheaf, shared in cases:
        cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
        assert (cone.w_sheaf is sheaf) == shared
        if not shared:
            w = cone.w_sheaf
            assert w.complex is sheaf.complex
            assert all(np.array_equal(m, np.eye(2)) for m in w.restrictions.values())
    assert algebraic_cone(k5, constant_grounding(k5, target_dim=3)).w_sheaf.stalk_dim((0,)) == 3


def test_les_hypothesis_violation():
    sheaf = mobius_bundle(6)
    report = verify_long_exact_sequence(algebraic_cone(sheaf, grounding_from_padding(sheaf)))
    assert report.status == "hypothesis-not-met"


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


def test_channel_set_zero_grounding():
    sheaf = trivial_bundle(10)
    channels = channel_set(sheaf, grounding_zero_c1(sheaf))
    assert np.array_equal(channels.relative.matrix, laplacian(sheaf, 1).matrix)
    assert np.max(np.abs(channels.utilization.matrix)) == 0.0


def test_channel_set_orthonormal_utilization():
    sheaf = trivial_bundle(10)
    channels = channel_set(sheaf, grounding_identity_c1(sheaf))
    values = np.linalg.eigvalsh(channels.utilization.matrix)
    assert np.max(np.abs(values - 1.0)) < 1e-10


def test_channel_set_relative_is_l1_plus_gram():
    sheaf = trivial_bundle(8)
    grounding = grounding_killing_kernel(sheaf)
    channels = channel_set(sheaf, grounding)
    gram = channels.eps.T @ channels.eps
    assert np.array_equal(channels.relative.matrix, laplacian(sheaf, 1).matrix + gram)


def _record_assemblies(monkeypatch):
    """Degrees of the coboundaries and Laplacians sheaves assemble; those a
    sheaf hands out again are not assembled again."""
    from sheafgauge import operators
    from sheafgauge.sheaves import CellSheaf

    calls = []
    coboundary_ = CellSheaf._assemble_coboundary
    laplacian_ = operators._assemble_laplacian
    monkeypatch.setattr(CellSheaf, "_assemble_coboundary",
                        lambda sheaf, j: calls.append(("d", j)) or coboundary_(sheaf, j))
    monkeypatch.setattr(operators, "_assemble_laplacian",
                        lambda sheaf, j: calls.append(("L", j)) or laplacian_(sheaf, j))
    return calls


@pytest.mark.parametrize("matrix", [np.eye(3), np.ones((2, 1)), np.ones(2)])
def test_constant_grounding_rejects_a_matrix_of_another_width(matrix):
    # named before incidence_defect fails on it with numpy's matmul error
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    message = (f"constant grounding matrix has shape {re.escape(str(matrix.shape))}; "
               "its width must be the stalk dimension 2")
    with pytest.raises(ValueError, match=message):
        constant_grounding(sheaf, matrix=matrix)
    # a wide or tall map of the right width is fine
    assert constant_grounding(sheaf, matrix=np.ones((3, 2))).target_dim == 3


def test_channel_set_assembles_each_coboundary_once(monkeypatch):
    calls = _record_assemblies(monkeypatch)
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    features = {v: basis + 0.05 * rng.normal(size=(5, 3)) for v in range(6)}
    feature_sheaf = build_sheaf_from_features(complete_graph(6), features)
    for sheaf in (trivial_bundle(8, 2), mobius_bundle(7), feature_sheaf):
        calls.clear()
        channels = channel_set(sheaf, grounding_from_padding(sheaf))
        other = channel_set(sheaf, grounding_identity_c1(sheaf))
        # building a channel set assembles nothing
        assert calls == []
        # reading ``relative`` assembles the sheaf's own L_1 once, reading
        # ``utilization`` nothing, and nothing reads L_0
        relatives = [c.relative for c in (channels, other, channels)]
        utilizations = [c.utilization for c in (channels, other)]
        assert sorted(calls) == [("L", 1), ("d", 0), ("d", 1)]
        assert relatives[0] is relatives[2] and utilizations[0] is channels.utilization
        # bit-equal to a fresh copy's operators, and read-only
        copy = sheaf_from_json(sheaf_to_json(sheaf))
        relative = _assemble_laplacian(copy, 1).matrix + channels.eps.T @ channels.eps
        assert np.array_equal(channels.relative.matrix, relative)
        assert np.array_equal(channels.utilization.matrix, channels.eps @ channels.eps.T)
        for array in (channels.eps, channels.relative.matrix, channels.utilization.matrix):
            assert not array.flags.writeable


def test_block_decomposition_assembles_only_d1_when_coupled(monkeypatch):
    # the coupling norm reads d1 and eps; no Laplacian is formed
    calls = _record_assemblies(monkeypatch)
    sheaf = constant_sheaf(build_clique_complex(complete_graph(5)), 2)
    assert not verify_block_decomposition(sheaf, grounding_identity_c1(sheaf)).asserted
    assert calls == [("d", 1)]


def test_channel_set_decomposes_each_grounded_operator_once(monkeypatch):
    from sheafgauge import operators

    decomposed = []
    original = operators.decompose
    monkeypatch.setattr(operators, "decompose",
                        lambda lap: decomposed.append(lap) or original(lap))
    sheaf = trivial_bundle(8, 2)
    channels = channel_set(sheaf, grounding_killing_kernel(sheaf))
    assert [lap.matrix is laplacian(sheaf, 1).matrix for lap in decomposed] == [True]
    for _ in range(2):
        assert channels.relative_spectrum is channels.relative_spectrum
        assert channels.utilization_spectrum is channels.utilization_spectrum
        assert laplacian_spectrum(sheaf, 1) is laplacian_spectrum(sheaf, 1)
    assert [lap.degree for lap in decomposed] == [1, 1, 0]
    spectrum = channels.relative_spectrum
    assert not spectrum.eigenvalues.flags.writeable
    # the kernel is formed alone from the factored basis, then the whole basis
    assert isinstance(spectrum.basis, operators._Eigenbasis)
    assert not spectrum.kernel.flags.writeable
    assert not spectrum.vectors().flags.writeable


def test_rank_deficient_grounding_opens_kernel():
    sheaf = trivial_bundle(10)
    channels = channel_set(sheaf, grounding_killing_kernel(sheaf))
    spectrum = eigendecompose(channels.relative)
    assert kernel_dim(spectrum) == 1


def test_channel_set_requires_width_match():
    sheaf = trivial_bundle(6)
    bad = grounding_identity_c1(trivial_bundle(8))
    with pytest.raises(GroundingModeError, match="width"):
        channel_set(sheaf, bad)


def test_block_decomposition_on_cycle():
    sheaf = trivial_bundle(10)
    report = verify_block_decomposition(sheaf, grounding_identity_c1(sheaf))
    assert report.coupling_norm == 0.0
    assert report.asserted
    assert report.max_spectral_diff < 1e-8


def test_block_decomposition_reports_coupling_on_triangles():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 1)
    report = verify_block_decomposition(sheaf, grounding_identity_c1(sheaf))
    assert report.coupling_norm > 1e-10
    assert not report.asserted
    assert report.max_spectral_diff is None


def test_block_decomposition_computes_no_spectrum_when_coupled(monkeypatch):
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 1)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: pytest.fail("spectrum computed"))
    assert not verify_block_decomposition(sheaf, grounding_identity_c1(sheaf)).asserted


def test_block_decomposition_zero_coupling_with_triangles(monkeypatch):
    # a grounding supported on ker d1 decouples even when triangles exist
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 1)
    d1 = coboundary(sheaf, 1).matrix
    _, _, vt = np.linalg.svd(d1)
    grounding = GroundingMorphism(c1_matrix=vt[np.linalg.matrix_rank(d1):])
    # the relative operator is on both sides of the comparison, so it is not
    # formed: one spectrum of the coupled C^2 + W block, one of its diagonal blocks
    shapes = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or original(m))
    monkeypatch.setattr(ChannelSet, "relative",
                        property(lambda self: pytest.fail("relative operator formed")))
    report = verify_block_decomposition(sheaf, grounding)
    assert report.coupling_norm < 1e-10
    assert report.asserted
    assert report.max_spectral_diff < 1e-8
    size = sheaf.cochain_dim(2) + grounding.target_dim
    assert shapes == [(size, size)] * 2


def test_separation_gap_positive_under_full_rank():
    sheaf = trivial_bundle(10)
    channels = channel_set(sheaf, grounding_identity_c1(sheaf))
    spectrum = eigendecompose(channels.relative)
    assert kernel_dim(spectrum) == 0
    assert spectral_gap(spectrum) > 0

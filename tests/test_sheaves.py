import numpy as np
import pytest

from sheafgauge.complexes import Graph, build_clique_complex, complete_graph
from sheafgauge.operators import laplacian
from sheafgauge.sheaves import (
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
    rotation_matrix,
    sheaf_from_json,
    sheaf_to_json,
    triangle_stalk_soft_intersection,
    trivial_bundle,
    validate_sheaf,
)
from sheafgauge.spectral import eigendecompose, kernel_dim


def _orth(rng, d, k):
    q, _ = np.linalg.qr(rng.normal(size=(d, k)))
    return q[:, :k]


def test_stalk_must_be_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        Stalk(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_node_stalk_full_rank():
    stalks = node_stalks_from_features({0: np.random.default_rng(0).normal(size=(3, 2))})
    assert stalks[0].dim == 2
    assert stalks[0].ambient_dim == 3


def test_node_stalk_duplicated_column_drops_rank():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(4, 2))
    both = np.hstack([f, f[:, :1]])
    stalks = node_stalks_from_features({0: f, 1: both})
    assert stalks[1].dim == stalks[0].dim == 2


def test_node_stalk_constructed_rank_three():
    # oracle: independent SVD rank count on the padded matrix
    rng = np.random.default_rng(2)
    f = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 5))
    stalks = node_stalks_from_features({0: f})
    s = np.linalg.svd(f, compute_uv=False)
    oracle = int(np.count_nonzero(s > 1e-8 * s[0]))
    assert oracle == 3
    assert stalks[0].dim == 3


def test_node_stalk_errors():
    with pytest.raises(ValueError, match="vertex 3"):
        node_stalks_from_features({3: np.zeros((0, 2))})
    with pytest.raises(ValueError, match="NaN"):
        node_stalks_from_features({0: np.array([[np.nan, 1.0]])})
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="vertex 5 contains NaN or inf"):
            node_stalks_from_features({0: np.eye(2), 5: np.array([[bad, 1.0]])})


def test_edge_stalk_identical_planes():
    rng = np.random.default_rng(3)
    b = Stalk(_orth(rng, 5, 2))
    stalk, rho_u, rho_v = edge_stalk_intersection(b, b)
    assert stalk.dim == 2
    assert np.allclose(rho_u, rho_v)
    assert np.allclose(rho_u.T @ rho_u, np.eye(2), atol=1e-10)


def test_edge_stalk_orthogonal_lines():
    bu = Stalk(np.array([[1.0], [0.0]]))
    bv = Stalk(np.array([[0.0], [1.0]]))
    stalk, _, _ = edge_stalk_intersection(bu, bv)
    assert stalk.dim == 0


def test_edge_stalk_two_planes_in_r3_meet_in_line():
    # oracle: the intersection line of two planes via cross products
    a = np.array([1.0, 0.2, -0.3])
    b = np.array([0.0, 1.0, 0.4])
    c = np.array([-0.5, 0.1, 1.0])
    bu = Stalk(np.linalg.qr(np.column_stack([a, b]))[0])
    bv = Stalk(np.linalg.qr(np.column_stack([a, c]))[0])
    stalk, _, _ = edge_stalk_intersection(bu, bv)
    assert stalk.dim == 1
    normal_u = np.cross(a, b)
    normal_v = np.cross(a, c)
    line = np.cross(normal_u, normal_v)
    line = line / np.linalg.norm(line)
    assert abs(float(line @ stalk.basis[:, 0])) > 1 - 1e-8


def test_edge_stalk_symmetric_up_to_basis():
    rng = np.random.default_rng(4)
    for _ in range(5):
        bu, bv = Stalk(_orth(rng, 6, 3)), Stalk(_orth(rng, 6, 3))
        s1, _, _ = edge_stalk_intersection(bu, bv)
        s2, _, _ = edge_stalk_intersection(bv, bu)
        p1 = s1.basis @ s1.basis.T
        p2 = s2.basis @ s2.basis.T
        assert np.max(np.abs(p1 - p2)) < 1e-10


def test_edge_stalk_unequal_node_dims():
    # a 3-dim and a 2-dim stalk sharing a plane intersect in that plane
    rng = np.random.default_rng(10)
    plane = _orth(rng, 5, 2)
    extra = _orth(rng, 5, 5)[:, 4:]
    bu = Stalk(np.linalg.qr(np.hstack([plane, extra]))[0][:, :3])
    bv = Stalk(plane)
    stalk, rho_u, rho_v = edge_stalk_intersection(bu, bv)
    assert stalk.dim == 2
    assert rho_u.shape == (2, 3)
    assert rho_v.shape == (2, 2)


def test_edge_stalk_ambient_mismatch():
    from sheafgauge.sheaves import AmbientMismatchError

    with pytest.raises(AmbientMismatchError):
        edge_stalk_intersection(Stalk(np.eye(3, 1)), Stalk(np.eye(4, 1)))


def test_triangle_stalk_identical_edge_stalks():
    rng = np.random.default_rng(5)
    b = Stalk(_orth(rng, 5, 2))
    stalk, r1, r2, r3 = triangle_stalk_soft_intersection(b, b, b)
    assert stalk.dim == 2
    p = stalk.basis @ stalk.basis.T
    assert np.max(np.abs(p - b.basis @ b.basis.T)) < 1e-10


def test_triangle_stalk_pairwise_orthogonal():
    e1 = Stalk(np.eye(3)[:, :1])
    e2 = Stalk(np.eye(3)[:, 1:2])
    e3 = Stalk(np.eye(3)[:, 2:])
    stalk, *_ = triangle_stalk_soft_intersection(e1, e2, e3)
    assert stalk.dim == 0


def test_triangle_stalk_shared_line():
    # three generic planes all containing e1: alignment operator fixes e1
    e = np.eye(4)
    b1 = Stalk(np.linalg.qr(np.column_stack([e[:, 0], e[:, 1]]))[0])
    b2 = Stalk(np.linalg.qr(np.column_stack([e[:, 0], e[:, 2]]))[0])
    b3 = Stalk(np.linalg.qr(np.column_stack([e[:, 0], (e[:, 1] + e[:, 3]) / np.sqrt(2)]))[0])
    stalk, *_ = triangle_stalk_soft_intersection(b1, b2, b3)
    assert stalk.dim == 1
    assert abs(float(e[:, 0] @ stalk.basis[:, 0])) > 1 - 1e-8
    # oracle: eigendecomposition of the explicitly assembled alignment operator
    proj = [b.basis @ b.basis.T for b in (b1, b2, b3)]
    product = proj[0] @ proj[1] @ proj[2]
    t = product.T @ product
    eigenvalues = np.linalg.eigvalsh(t)
    assert int(np.count_nonzero(eigenvalues > 0.5)) == 1


def test_build_sheaf_constant_subspace():
    rng = np.random.default_rng(6)
    base = rng.normal(size=(5, 3))
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    sheaf = build_sheaf_from_features(g, {v: base for v in range(4)})
    assert sheaf.validated
    for e in sheaf.complex.edges:
        assert sheaf.stalk_dim(e) == 3
        rho = sheaf.restriction((e[0],), e)
        assert np.max(np.abs(rho.T @ rho - np.eye(3))) < 1e-10


def test_build_sheaf_orthogonal_vertex_gives_zero_edges():
    g = Graph(3, [(0, 1), (1, 2)])
    features = {
        0: np.eye(4)[:, :2],
        1: np.eye(4)[:, 2:],
        2: np.eye(4)[:, 2:],
    }
    sheaf = build_sheaf_from_features(g, features)
    assert sheaf.stalk_dim((0, 1)) == 0
    assert sheaf.stalk_dim((1, 2)) == 2


def test_build_sheaf_random_graph_functoriality():
    # generic position: 2-dim stalks in ambient dim 6 have no forced intersections
    rng = np.random.default_rng(7)
    g = Graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10) if rng.random() < 0.45])
    sheaf = build_sheaf_from_features(g, {v: rng.normal(size=(6, 2)) for v in range(10)})
    # oracle: direct two-path composition check per triangle
    worst = 0.0
    for t in sheaf.complex.triangles:
        for v in t:
            e1, e2 = sorted(e for e in sheaf.complex.faces(t) if v in e)
            via1 = sheaf.restriction(e1, t) @ sheaf.restriction((v,), e1)
            via2 = sheaf.restriction(e2, t) @ sheaf.restriction((v,), e2)
            worst = max(worst, float(np.max(np.abs(via1 - via2))) if via1.size else 0.0)
    assert worst < 1e-8
    assert sheaf.validated


def test_build_sheaf_missing_features():
    with pytest.raises(ValueError, match="missing"):
        build_sheaf_from_features(Graph(3, [(0, 1)]), {0: np.eye(2)})


def test_build_sheaf_empty_graph_rejected():
    with pytest.raises(ValueError, match="no feature matrices given"):
        build_sheaf_from_features(Graph(0, []), {})


def test_line_bundle_trivial_kernel_matches_stalk_dim():
    for dim in (1, 2, 3):
        sheaf = make_line_bundle(10, dim)
        spectrum = eigendecompose(laplacian(sheaf, 0))
        assert kernel_dim(spectrum) == dim


def test_line_bundle_rejects_non_orthogonal_twist():
    with pytest.raises(ValueError, match="orthogonal"):
        make_line_bundle(6, 2, {(0, 1): np.array([[1.0, 0.0], [0.0, 0.5]])})


def test_line_bundle_too_short():
    with pytest.raises(ValueError):
        make_line_bundle(2)


def test_mobius_bundle_kills_kernel():
    spectrum = eigendecompose(laplacian(mobius_bundle(10), 0))
    assert kernel_dim(spectrum) == 0


def test_rotation_twist_bundle_gap_closed_form():
    # one rotation twist on a rank-2 bundle: twisted-circulant spectrum
    # 2 - 2 cos((2 pi k +/- tau) / n), verified against the dense eigensolver
    tau, n = 0.3, 10
    sheaf = make_line_bundle(n, 2, {(0, 1): rotation_matrix(tau)})
    values = eigendecompose(laplacian(sheaf, 0)).eigenvalues
    expected = np.sort(
        [2 - 2 * np.cos((2 * np.pi * k + s * tau) / n) for k in range(n) for s in (1, -1)]
    )
    assert np.allclose(values, expected, atol=1e-10)
    assert abs(values[0] - 2 * (1 - np.cos(tau / n))) < 1e-12


def test_hidden_twist_tau_zero_restores_kernel():
    sheaf = hidden_twist_bundle(10, 0.0)
    spectrum = eigendecompose(laplacian(sheaf, 0))
    assert kernel_dim(spectrum) == 2


def test_hidden_twist_has_trivial_kernel():
    spectrum = eigendecompose(laplacian(hidden_twist_bundle(10, 0.3), 0))
    assert kernel_dim(spectrum) == 0


def test_restriction_noise_zero_sigma_bitwise():
    sheaf = trivial_bundle(10, 2)
    noisy = add_restriction_noise(sheaf, 0.0, seed=5)
    for key, m in sheaf.restrictions.items():
        assert np.array_equal(noisy.restrictions[key], m)


def test_restriction_noise_deterministic():
    a = noisy_trivial_bundle(10, 0.1, seed=42)
    b = noisy_trivial_bundle(10, 0.1, seed=42)
    for key in a.restrictions:
        assert np.array_equal(a.restrictions[key], b.restrictions[key])


def test_restriction_noise_kills_kernel():
    # generic holonomy has no fixed vector on a rank-2 bundle
    for seed in range(5):
        noisy = noisy_trivial_bundle(10, 0.1, seed=seed)
        assert kernel_dim(eigendecompose(laplacian(noisy, 0))) == 0


def test_restriction_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        add_restriction_noise(trivial_bundle(5, 2), -0.1, seed=0)


def test_validate_identity_sheaf_empty():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(3)), 2)
    assert validate_sheaf(sheaf) == []


def test_validate_reports_perturbed_incidences():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(3)), 2)
    t = (0, 1, 2)
    sheaf.restrictions[((0, 1), t)] = sheaf.restrictions[((0, 1), t)] + 0.5
    violations = validate_sheaf(sheaf)
    # exactly the flags through the perturbed map: vertices 0 and 1 of the triangle
    assert {(v.triangle, v.vertex) for v in violations} == {(t, (0,)), (t, (1,))}


def test_generator_sheaves_pass_validation():
    for sheaf in (trivial_bundle(6, 2), mobius_bundle(7), hidden_twist_bundle(8, 0.2),
                  noisy_trivial_bundle(6, 0.3, seed=1)):
        assert validate_sheaf(sheaf) == []


def test_all_stalks_orthonormal_invariant():
    rng = np.random.default_rng(8)
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2)])
    sheaf = build_sheaf_from_features(g, {v: rng.normal(size=(5, 3)) for v in range(6)})
    for stalk in sheaf.stalks.values():
        gram = stalk.basis.T @ stalk.basis
        if gram.size:
            assert np.max(np.abs(gram - np.eye(stalk.dim))) < 1e-10


def test_rotation_matrix_orthogonal():
    q = rotation_matrix(0.7, 4)
    assert np.max(np.abs(q.T @ q - np.eye(4))) < 1e-12


def test_sheaf_json_round_trip():
    rng = np.random.default_rng(9)
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    sheaf = build_sheaf_from_features(g, {v: rng.normal(size=(4, 3)) for v in range(4)})
    restored = sheaf_from_json(sheaf_to_json(sheaf))
    assert restored.complex.edges == sheaf.complex.edges
    for key, m in sheaf.restrictions.items():
        assert np.array_equal(restored.restrictions[key], m)
    assert restored.validated == sheaf.validated

import math
import re

import numpy as np
import pytest

from conftest import copy_then_compose
from sheafgauge import sheaves
from sheafgauge.complexes import Graph, build_clique_complex, complete_graph
from sheafgauge.operators import geometric_cone_sheaf, grounding_from_padding, laplacian
from sheafgauge.sheaves import (
    HIDDEN_TWIST_DEFECT_EDGE,
    HIDDEN_TWIST_WEIGHT,
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
    rotation_matrix,
    sheaf_from_json,
    sheaf_from_json_dict,
    sheaf_to_json,
    sheaf_to_json_dict,
    triangle_stalk_soft_intersection,
    trivial_bundle,
    validate_sheaf,
)
from sheafgauge.spectral import eigendecompose, kernel_dim


def _orth(rng, d, k):
    q, _ = np.linalg.qr(rng.normal(size=(d, k)))
    return q[:, :k]


def test_stalk_must_be_orthonormal():
    with pytest.raises(ValueError, match="^stalk basis is not orthonormal$"):
        Stalk(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # the tolerance holds on every Gram entry, the diagonal included
    with pytest.raises(ValueError, match="^stalk basis is not orthonormal$"):
        Stalk(np.array([[1.0 + 1e-9], [0.0]]))
    assert Stalk(np.array([[1.0 + 1e-12], [0.0]])).dim == 1


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
    for rank_other in (5.0, [[[1.0]]], np.zeros((2, 2, 0))):
        with pytest.raises(ValueError,
                           match="^feature matrix of vertex 4 must be a vector or a matrix$"):
            node_stalks_from_features({0: np.eye(2), 4: rank_other})


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
    for e in sheaf.complex.cells(1):
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
    for t in sheaf.complex.cells(2):
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


def test_build_sheaf_rejects_features_of_vertices_the_graph_lacks():
    # vertex 7's 9 rows would set the ambient dimension of every stalk to 9
    features = {v: np.eye(4)[:, :2] for v in range(3)}
    features[7] = np.ones((9, 2))
    with pytest.raises(ValueError, match=re.escape("features given for vertices [7], "
                                                   "which the graph lacks")):
        build_sheaf_from_features(Graph(3, [(0, 1), (1, 2)]), features)
    del features[7]
    sheaf = build_sheaf_from_features(Graph(3, [(0, 1), (1, 2)]), features)
    assert {stalk.ambient_dim for stalk in sheaf.stalks.values()} == {4}


def test_build_sheaf_empty_graph_rejected():
    with pytest.raises(ValueError, match="no feature matrices given"):
        build_sheaf_from_features(Graph(0, []), {})


# ---------------------------------------------------------------------------
# The stacked pipeline against the per-cell pipeline it replaced
# ---------------------------------------------------------------------------


def _reference_node_stalks(features, cfg):
    """The per-vertex pipeline: one SVD per padded feature matrix."""
    arrays = {v: np.asarray(f, dtype=float) for v, f in features.items()}
    ambient = max(f.shape[0] for f in arrays.values())
    stalks = {}
    for vertex in sorted(arrays):
        f = arrays[vertex]
        if f.shape[0] < ambient:
            f = np.vstack([f, np.zeros((ambient - f.shape[0], f.shape[1]))])
        u, s, _ = np.linalg.svd(f, full_matrices=False)
        keep = int(np.count_nonzero(s > cfg.svd_tol * s[0])) if s.size else 0
        stalks[vertex] = Stalk(u[:, :keep])
    return stalks


def _reference_edge(bu, bv, cfg):
    """The per-edge pipeline: two SVDs and four products per edge."""
    ambient = bu.ambient_dim
    m = bu.basis.T @ bv.basis
    stalk = Stalk(np.zeros((ambient, 0)))
    if min(m.shape) > 0:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        keep = s > cfg.edge_align_tol
        if keep.any():
            mean_directions = bu.basis @ u[:, keep] + bv.basis @ vt[keep, :].T
            w, _, zt = np.linalg.svd(mean_directions, full_matrices=False)
            stalk = Stalk(w @ zt)
    return stalk, stalk.basis.T @ bu.basis, stalk.basis.T @ bv.basis


def _reference_triangle(b_uv, b_vw, b_uw, cfg):
    """The per-triangle pipeline: one eigh of the 6-fold projector product."""
    ambient = b_uv.ambient_dim
    product = ((b_uv.basis @ b_uv.basis.T) @ (b_vw.basis @ b_vw.basis.T)
               @ (b_uw.basis @ b_uw.basis.T))
    eigenvalues, eigenvectors = np.linalg.eigh(product.T @ product)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    keep = np.flatnonzero(eigenvalues > cfg.tri_eig_tol)
    keep = keep[np.argsort(-eigenvalues[keep])]
    stalk = Stalk(eigenvectors[:, keep] if keep.size else np.zeros((ambient, 0)))
    return (stalk,) + tuple(stalk.basis.T @ b.basis for b in (b_uv, b_vw, b_uw))


def _reference_build(g, features, cfg):
    complex_ = build_clique_complex(g)
    nodes = _reference_node_stalks(features, cfg)
    stalks = {(v,): nodes[v] for v in range(g.vertex_count)}
    restrictions = {}
    for u, v in complex_.cells(1):
        stalks[(u, v)], restrictions[((u,), (u, v))], restrictions[((v,), (u, v))] = (
            _reference_edge(nodes[u], nodes[v], cfg))
    for u, v, w in complex_.cells(2):
        t = (u, v, w)
        (stalks[t], restrictions[((u, v), t)], restrictions[((v, w), t)],
         restrictions[((u, w), t)]) = _reference_triangle(
            stalks[(u, v)], stalks[(v, w)], stalks[(u, w)], cfg)
    return CellSheaf(complex_, stalks, restrictions)


def _mixed_features(seed):
    """A seeded G(20, 0.4) graph whose vertices have features of rank 1, 2
    and 3 near one frame, a quarter of them with 4 of the 6 ambient rows."""
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    features = {}
    for v in range(20):
        rows, width = (4 if v % 4 == 3 else 6), int(rng.integers(1, 4))
        features[v] = frame[:rows, :width] + 0.05 * rng.normal(size=(rows, width))
    edges = [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.4]
    return Graph(20, edges), features


def _same_array(actual, expected):
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


def _same_cell(result, expected):
    """Two ``(stalk, *restrictions)`` results hold the same bytes."""
    (stalk, *maps), (expected_stalk, *expected_maps) = result, expected
    return all(map(_same_array, (stalk.basis, *maps), (expected_stalk.basis, *expected_maps)))


_PIPELINE_CASES = [
    (0, FeaturePipelineConfig()),
    (1, FeaturePipelineConfig()),
    (2, FeaturePipelineConfig(edge_align_tol=0.5, tri_eig_tol=0.2)),
    (3, FeaturePipelineConfig(edge_align_tol=0.99, tri_eig_tol=0.9)),
]


@pytest.mark.parametrize("seed, cfg", _PIPELINE_CASES)
def test_stacked_pipeline_is_the_per_cell_pipeline_bit_for_bit(seed, cfg):
    g, features = _mixed_features(seed)
    sheaf = build_sheaf_from_features(g, features, cfg)
    reference = _reference_build(g, features, cfg)
    # the fixture reaches every stacking group: mixed vertex ranks, edges and
    # triangles of several dimensions, zero-dimensional ones among them
    dims = {(len(cell), stalk.dim) for cell, stalk in sheaf.stalks.items()}
    assert {(1, 1), (1, 2), (1, 3), (2, 0), (3, 0)} <= dims
    assert len({d for n, d in dims if n == 2}) >= 3
    assert list(sheaf.stalks) == list(reference.stalks)
    assert list(sheaf.restrictions) == list(reference.restrictions)
    for cell, stalk in sheaf.stalks.items():
        assert _same_array(stalk.basis, reference.stalks[cell].basis), cell
    for key, m in sheaf.restrictions.items():
        assert _same_array(m, reference.restrictions[key]), key
    assert sheaf_to_json(sheaf) == sheaf_to_json(reference)


@pytest.mark.parametrize("seed, cfg", _PIPELINE_CASES[:2])
def test_one_cell_functions_are_the_stacked_kernels_on_one_cell(seed, cfg):
    g, features = _mixed_features(seed)
    sheaf = build_sheaf_from_features(g, features, cfg)
    stalks, restrictions = sheaf.stalks, sheaf.restrictions
    nodes = node_stalks_from_features(features, cfg)
    for v, stalk in _reference_node_stalks(features, cfg).items():
        assert _same_array(nodes[v].basis, stalk.basis)
        assert _same_array(stalks[(v,)].basis, stalk.basis)
    for u, v in sheaf.complex.cells(1):
        e = (u, v)
        built = (stalks[e], restrictions[((u,), e)], restrictions[((v,), e)])
        assert _same_cell(edge_stalk_intersection(nodes[u], nodes[v], cfg), built), e
        assert _same_cell(_reference_edge(nodes[u], nodes[v], cfg), built), e
    for u, v, w in sheaf.complex.cells(2):
        t, sides = (u, v, w), ((u, v), (v, w), (u, w))
        built = (stalks[t], *(restrictions[(side, t)] for side in sides))
        edge_stalks = [stalks[side] for side in sides]
        assert _same_cell(triangle_stalk_soft_intersection(*edge_stalks, cfg), built), t
        assert _same_cell(_reference_triangle(*edge_stalks, cfg), built), t


def test_one_cell_functions_match_the_per_cell_pipeline_on_shared_and_tied_stalks():
    # one stalk passed twice (so numpy forms BᵀB by its symmetric rank-k
    # product) and projectors with tied eigenvalues, which argsort must order
    # as the one-cell call did
    cfg = FeaturePipelineConfig()
    b = Stalk(_orth(np.random.default_rng(5), 5, 2))
    e = Stalk(np.eye(4)[:, :2])
    for stalks in ((b, b), (e, e), (e, Stalk(np.eye(4)[:, 1:3]))):
        assert _same_cell(edge_stalk_intersection(*stalks, cfg), _reference_edge(*stalks, cfg))
    for stalks in ((b, b, b), (e, e, e), (e, e, Stalk(np.eye(4)[:, :3]))):
        assert _same_cell(triangle_stalk_soft_intersection(*stalks, cfg),
                          _reference_triangle(*stalks, cfg))


def test_line_bundle_trivial_kernel_matches_stalk_dim():
    for dim in (1, 2, 3):
        sheaf = make_line_bundle(10, dim)
        spectrum = eigendecompose(laplacian(sheaf, 0))
        assert kernel_dim(spectrum) == dim


def test_line_bundle_rejects_non_orthogonal_twist():
    with pytest.raises(ValueError, match="orthogonal"):
        make_line_bundle(6, 2, {(0, 1): np.array([[1.0, 0.0], [0.0, 0.5]])})


def test_line_bundle_rejects_a_twist_on_a_non_edge():
    # the twists replace restrictions of the constant sheaf; a key that is
    # not an incidence of the cycle is an error, not silently dropped
    with pytest.raises(ValueError, match=re.escape("(2,) -> (0, 2), not an incidence")):
        make_line_bundle(6, 1, {(0, 2): -1.0})


def test_line_bundle_too_short():
    with pytest.raises(ValueError):
        make_line_bundle(2)


@pytest.mark.parametrize("make", [
    lambda: trivial_bundle(3),
    lambda: mobius_bundle(3, 2),
    lambda: hidden_twist_bundle(3, 0.3),
    lambda: noisy_trivial_bundle(3, 0.25, 0),
], ids=["trivial", "mobius", "hidden-twist", "noisy-trivial"])
def test_cycle_generators_reject_the_filled_triangle(make):
    with pytest.raises(ValueError, match=r"n >= 4.*triangle \(0, 1, 2\)"):
        make()


def test_cycle_generators_share_one_stalk():
    for sheaf in (trivial_bundle(6, 2), hidden_twist_bundle(6, 0.3),
                  constant_sheaf(build_clique_complex(complete_graph(4)), 2)):
        assert len({id(stalk) for stalk in sheaf.stalks.values()}) == 1


def _fresh_layout(sheaf, j):
    """Cell slices of C^j and its dimension, recomputed from the stalks."""
    slices, offset = {}, 0
    for cell in sheaf.complex.cells(j):
        d = sheaf.stalk_dim(cell)
        slices[cell] = slice(offset, offset + d)
        offset += d
    return slices, offset


def _layout_fixtures():
    rng = np.random.default_rng(2)
    frame = _orth(rng, 5, 5)
    features = {v: frame[:, :3] + 0.05 * rng.normal(size=(5, 3)) for v in range(5)}
    features[5] = frame[:, 3:]  # orthogonal to the rest: zero-dim edge stalks
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.7]
    return (hidden_twist_bundle(7, 0.3), mobius_bundle(5, 3),
            constant_sheaf(build_clique_complex(complete_graph(5)), 2),
            build_sheaf_from_features(Graph(6, edges), features))


def test_layout_matches_fresh_recomputation():
    for sheaf in _layout_fixtures():
        for j in (-1, 0, 1, 2, 3):
            slices, dim = _fresh_layout(sheaf, j)
            assert dict(sheaf.cell_slices(j)) == slices
            assert list(sheaf.cell_slices(j)) == list(slices)
            assert sheaf.cochain_dim(j) == dim
            owner = sheaf.cochain_owner(j)
            assert owner.shape == (dim,)
            for k, cell in enumerate(sheaf.complex.cells(j)):
                assert np.all(owner[slices[cell]] == k)


def _walked_incidences(complex_, j):
    """(coface, face) index rows of the degree-j incidences, by a walk of
    ``complex_.faces`` over the cofaces in order."""
    index = {cell: i for i, cell in enumerate(complex_.cells(j))}
    pairs = [(k, index[face]) for k, coface in enumerate(complex_.cells(j + 1))
             for face in complex_.faces(coface)]
    return np.array(pairs, dtype=int).reshape(-1, 2).T


def test_incidence_cells_are_a_walk_of_the_faces():
    clique = constant_sheaf(build_clique_complex(complete_graph(5)), 2)
    coned = geometric_cone_sheaf(clique, grounding_from_padding(clique))
    features = _layout_fixtures()[-1]
    # zero-dimensional stalks own no coordinate, yet take part in incidences
    assert 0 in {stalk.dim for stalk in features.stalks.values()}
    for sheaf in (clique, coned, features):
        for j in range(-1, len(sheaf.complex.degrees)):
            cells, walked = sheaf.incidence_cells(j), _walked_incidences(sheaf.complex, j)
            assert cells.shape == walked.shape and np.array_equal(cells, walked)
            assert not cells.flags.writeable
    assert len(coned.incidence_cells(2)[0]) > 0  # tetrahedra on their triangles


def test_replacing_shares_the_incidence_cells():
    for base in (constant_sheaf(build_clique_complex(complete_graph(5)), 2), trivial_bundle(6, 2)):
        walked = [base.incidence_cells(j) for j in range(-1, 3)]
        member = add_restriction_noise(base, 0.3, 0)
        assert all(member.incidence_cells(j) is cells for j, cells in zip(range(-1, 3), walked))
    # the member that walks first leaves the positions to its base
    base = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    member = add_restriction_noise(base, 0.3, 1)
    assert base.incidence_cells(1) is member.incidence_cells(1)


def test_layout_cannot_be_mutated_through_its_accessors():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    before = {j: dict(sheaf.cell_slices(j)) for j in (0, 1, 2)}
    slices = sheaf.cell_slices(1)
    with pytest.raises(TypeError):
        slices[(0, 1)] = slice(0, 0)
    with pytest.raises(TypeError):
        del slices[(0, 1)]
    with pytest.raises(ValueError):
        sheaf.cochain_owner(1)[0] = 5
    assert {j: dict(sheaf.cell_slices(j)) for j in (0, 1, 2)} == before
    assert [sheaf.cochain_dim(j) for j in (0, 1, 2)] == [8, 12, 8]


def test_sheaf_cannot_be_mutated():
    # stalks, restrictions and every restriction array are read-only, so the
    # coboundaries a sheaf assembles once stay the operators of its restrictions
    sheaf = trivial_bundle(6, 2)
    key = ((1,), (0, 1))
    d0 = sheaf.coboundary(0).copy()
    with pytest.raises(TypeError):
        sheaf.restrictions[key] = rotation_matrix(0.4)
    with pytest.raises(TypeError):
        del sheaf.restrictions[key]
    with pytest.raises(TypeError):
        sheaf.stalks[(0,)] = Stalk(np.eye(2))
    for m in sheaf.restrictions.values():
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    with pytest.raises(ValueError):
        sheaf.coboundary(0)[0, 0] = 2.0
    assert sheaf.coboundary(0) is sheaf.coboundary(0)
    assert np.array_equal(sheaf.coboundary(0), d0)
    assert kernel_dim(eigendecompose(laplacian(sheaf, 0))) == 2


def test_feature_sheaf_stalks_and_flag_cannot_be_changed():
    # the stalk bases are read-only like the restrictions, and ``validated`` is
    # computed, not set: a padded grounding always pads an orthonormal basis
    from sheafgauge.operators import grounding_from_padding

    rng = np.random.default_rng(12)
    basis = _orth(rng, 5, 3)
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    sheaf = build_sheaf_from_features(g, {v: basis for v in range(5)})
    padded = grounding_from_padding(sheaf).cell_map((0,)).copy()
    for stalk in sheaf.stalks.values():
        with pytest.raises(ValueError):
            stalk.basis[0, 0] = 5.0
    with pytest.raises(AttributeError):
        sheaf.validated = "x"
    assert sheaf.validated is True
    assert np.array_equal(grounding_from_padding(sheaf).cell_map((0,)), padded)


def test_stalk_copies_a_writeable_basis_and_shares_a_read_only_one():
    basis = np.eye(3)[:, :2]
    stalk = Stalk(basis)
    assert basis.flags.writeable and not np.shares_memory(stalk.basis, basis)
    basis[0, 0] = 5.0
    assert stalk.basis[0, 0] == 1.0
    assert Stalk(stalk.basis).basis is stalk.basis


@pytest.mark.parametrize("validated", [True, False])
def test_validated_flag_is_set_at_construction_and_survives_json(validated):
    k4 = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    sheaf = k4 if validated else add_restriction_noise(k4, 0.3, 0)
    assert sheaf.validated is validated
    assert sheaf_from_json(sheaf_to_json(sheaf)).validated is validated
    with pytest.raises(AttributeError):
        sheaf.validated = not validated


def test_validated_is_computed_from_the_restrictions():
    # sheaves whose flag, when callers and files set it, disagreed with validation
    from sheafgauge.operators import constant_grounding, geometric_cone_sheaf

    k4 = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    noisy = add_restriction_noise(k4, 0.3, 0)
    assert (noisy.validated, len(validate_sheaf(noisy))) == (False, 8)
    cone = geometric_cone_sheaf(k4, constant_grounding(k4))
    assert (cone.validated, validate_sheaf(cone)) == (True, [])
    # the file's key is written for readers and ignored on load
    edited = sheaf_to_json_dict(k4)
    edited["restrictions"][0]["matrix"]["data"] = [0.0, 1.0, -1.0, 0.0]
    assert edited["validated"] is True
    loaded = sheaf_from_json_dict(edited)
    assert (loaded.validated, len(validate_sheaf(loaded))) == (False, 2)
    assert sheaf_to_json_dict(loaded)["validated"] is False
    flipped = sheaf_to_json_dict(trivial_bundle(5, 2))
    flipped["validated"] = False
    assert sheaf_from_json_dict(flipped).validated is True
    # no caller sets it
    with pytest.raises(TypeError):
        CellSheaf(k4.complex, k4.stalks, k4.restrictions, validated=True)
    with pytest.raises(AttributeError):
        noisy.validated = True


def test_validation_runs_once_per_sheaf(monkeypatch):
    k4 = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    noisy = add_restriction_noise(k4, 0.3, 0)
    defects = []
    original = sheaves._two_path_defects
    monkeypatch.setattr(sheaves, "_two_path_defects",
                        lambda *stacks: defects.extend(original(*stacks)) or original(*stacks))
    found = validate_sheaf(noisy)
    assert not noisy.validated
    assert validate_sheaf(noisy) == found
    assert len(defects) == 12  # one pass: a defect per (vertex, triangle) flag of K4
    found.clear()  # the caller's list is a copy
    assert len(validate_sheaf(noisy)) == 8


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_stalk_rejects_non_finite_basis(value):
    # a NaN passes the orthonormality comparison, so it is rejected first
    basis = np.eye(3)[:, :2]
    basis[1, 0] = value
    with pytest.raises(ValueError, match="stalk basis contains NaN or inf"):
        Stalk(basis)


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_sheaf_rejects_non_finite_restriction(value):
    base = trivial_bundle(5, 2)
    restrictions = dict(base.restrictions)
    restrictions[((1,), (1, 2))] = np.array([[1.0, 0.0], [value, 1.0]])
    message = re.escape("restriction (1,) -> (1, 2) contains NaN or inf")
    with pytest.raises(ValueError, match=message):
        CellSheaf(base.complex, base.stalks, restrictions)


def test_sheaf_names_mis_keyed_stalks_and_restrictions():
    base = trivial_bundle(5, 2)
    stalks = dict(base.stalks)
    del stalks[(0,)]
    with pytest.raises(ValueError, match=re.escape("missing stalk for cell (0,)")):
        CellSheaf(base.complex, stalks, base.restrictions)
    stalks = dict(base.stalks)
    stalks[(0, 2)] = base.stalks[(0, 1)]
    with pytest.raises(ValueError, match=re.escape("stalk for (0, 2), not a cell of the complex")):
        CellSheaf(base.complex, stalks, base.restrictions)
    restrictions = dict(base.restrictions)
    del restrictions[((1,), (1, 2))]
    with pytest.raises(ValueError, match=re.escape(
            "missing restriction for incidence (1,) < (1, 2)")):
        CellSheaf(base.complex, base.stalks, restrictions)
    restrictions = dict(base.restrictions)
    restrictions[((0,), (2, 3))] = np.eye(2)
    message = "restriction (0,) -> (2, 3), not an incidence of the complex"
    with pytest.raises(ValueError, match=re.escape(message)):
        CellSheaf(base.complex, base.stalks, restrictions)


def test_sheaf_copies_writeable_restrictions_and_shares_read_only_ones():
    base = trivial_bundle(5, 2)
    restrictions = {k: np.array(m) for k, m in base.restrictions.items()}
    sheaf = CellSheaf(base.complex, base.stalks, restrictions)
    for key, m in restrictions.items():
        assert m.flags.writeable  # the caller's array keeps its flags
        assert not np.shares_memory(sheaf.restrictions[key], m)
        assert np.array_equal(sheaf.restrictions[key], m)
        m[...] = 7.0
    assert all(np.array_equal(sheaf.restrictions[k], m) for k, m in base.restrictions.items())
    again = CellSheaf(base.complex, sheaf.stalks, sheaf.restrictions)
    assert all(again.restrictions[k] is m for k, m in sheaf.restrictions.items())


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


def _assert_restrictions_equal(actual, expected):
    assert list(actual) == list(expected)
    for key, m in expected.items():
        assert np.array_equal(actual[key], m), key


@pytest.mark.parametrize("stalk_dim", [1, 2, 3])
@pytest.mark.parametrize("sigma", [0.0, 0.25])
def test_restriction_noise_equals_copy_then_compose(stalk_dim, sigma):
    twist = hidden_twist_bundle(7, 0.4, stalk_dim) if stalk_dim >= 2 else mobius_bundle(7)
    for seed in range(3):
        _assert_restrictions_equal(
            noisy_trivial_bundle(9, sigma, seed, stalk_dim).restrictions,
            copy_then_compose(trivial_bundle(9, stalk_dim), sigma, seed))
        for base in (trivial_bundle(9, stalk_dim), twist):
            noisy = add_restriction_noise(base, sigma, seed)
            _assert_restrictions_equal(noisy.restrictions,
                                       copy_then_compose(base, sigma, seed))
            # one construction on the same complex and stalks, every array read-only
            assert noisy.complex is base.complex
            assert noisy.stalks == base.stalks
            assert noisy.validated == base.validated
            for sheaf in (base, noisy):
                assert not any(m.flags.writeable for m in sheaf.restrictions.values())


def test_coboundary_blocks_are_signed_restrictions():
    # oracle: every block (c, f) of d_j is sign(c, f) * rho_{f->c}, read through
    # the cell slices, and every entry outside the blocks is 0; the feature
    # sheaf's blocks vary in shape, some with zero rows
    member = add_restriction_noise(constant_sheaf(build_clique_complex(complete_graph(5)), 2),
                                   0.3, 4)
    for sheaf in _layout_fixtures() + (member,):
        for j in (0, 1):
            d = sheaf.coboundary(j)
            assert d.shape == (sheaf.cochain_dim(j + 1), sheaf.cochain_dim(j))
            rows, cols = sheaf.cell_slices(j + 1), sheaf.cell_slices(j)
            covered = np.zeros(d.shape, dtype=bool)
            for (coface, face), sign in sheaf.complex.incidences.items():
                if len(face) == j + 1:
                    block = d[rows[coface], cols[face]]
                    assert np.array_equal(block, sign * sheaf.restriction(face, coface))
                    covered[rows[coface], cols[face]] = True
            assert not d[~covered].any()


def test_member_coboundaries_equal_a_sheaf_built_from_scratch():
    base = constant_sheaf(build_clique_complex(complete_graph(5)), 2)
    base.coboundary(0)  # the members reuse the layout's scatter index
    for seed in range(3):
        member = add_restriction_noise(base, 0.3, seed)
        scratch = CellSheaf(base.complex, dict(base.stalks), dict(member.restrictions))
        for j in (0, 1):
            d, fresh = member.coboundary(j), scratch.coboundary(j)
            assert d.tobytes() == fresh.tobytes() and d.shape == fresh.shape
            assert not d.flags.writeable


def test_member_shares_its_base_and_derives_afresh(monkeypatch):
    base = trivial_bundle(8, 2)
    assert base.validated
    member = add_restriction_noise(base, 0.3, 1)
    assert member.complex is base.complex and member.stalks is base.stalks
    assert member.cochain_owner(1) is base.cochain_owner(1)
    assert member.cell_slices(1) == base.cell_slices(1)
    assert member.restriction((0,), (0, 1)) is base.restriction((0,), (0, 1))
    assert member.restriction((1,), (0, 1)) is not base.restriction((1,), (0, 1))
    assert list(member.restrictions) == list(base.restrictions)
    # its own derived values: d0, and the validation the noise leaves true
    assert not np.array_equal(member.coboundary(0), base.coboundary(0))
    assert member.validated
    # each coboundary is assembled once, whoever asks for it first
    calls = []
    assemble = CellSheaf._assemble_coboundary
    monkeypatch.setattr(CellSheaf, "_assemble_coboundary",
                        lambda sheaf, j: calls.append(j) or assemble(sheaf, j))
    other = add_restriction_noise(base, 0.3, 2)
    for _ in range(2):
        other.coboundary(0)
        other.coboundary(1)
        laplacian(other, 0)
    assert calls == [0, 1, -1]  # L_0 reads the empty end map d_{-1}


def test_derived_sheaf_rejects_what_the_constructor_rejects():
    base = trivial_bundle(5, 2)
    key = ((1,), (0, 1))

    def frozen(m):
        m = np.array(m, dtype=float)
        m.flags.writeable = False
        return m

    # the same message as a construction from scratch with the same table
    for replaced, message in (
            ({((0,), (2, 3)): frozen(np.eye(2))},
             "restriction (0,) -> (2, 3), not an incidence of the complex"),
            ({key: frozen(np.ones((3, 2)))},
             "restriction (1,) -> (0, 1) has shape (3, 2), expected (2, 2)"),
            ({key: frozen([[1.0, math.nan], [0.0, 1.0]])},
             "restriction (1,) -> (0, 1) contains NaN or inf")):
        with pytest.raises(ValueError, match=re.escape(message)):
            base._replacing(replaced)
        with pytest.raises(ValueError, match=re.escape(message)):
            CellSheaf(base.complex, base.stalks, {**base.restrictions, **replaced})
    # the member shares its arrays, so it takes read-only ones only
    with pytest.raises(ValueError, match=re.escape("restriction (1,) -> (0, 1) is writeable")):
        base._replacing({key: np.eye(2)})
    member = base._replacing({key: frozen(-np.eye(2))})
    assert np.array_equal(member.restriction((1,), (0, 1)), -np.eye(2))
    assert np.array_equal(base.restriction((1,), (0, 1)), np.eye(2))


def test_restriction_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        add_restriction_noise(trivial_bundle(5, 2), -0.1, seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_generators_reject_non_finite_parameters(value):
    with pytest.raises(ValueError, match=f"sigma must be finite and non-negative, got {value}"):
        add_restriction_noise(trivial_bundle(5, 2), value, seed=0)
    with pytest.raises(ValueError, match=f"sigma must be finite and non-negative, got {value}"):
        noisy_trivial_bundle(5, value, seed=0)
    with pytest.raises(ValueError, match=f"tau must be finite, got {value}"):
        hidden_twist_bundle(5, value)


@pytest.mark.parametrize("name", ["svd_tol", "edge_align_tol", "tri_eig_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pipeline_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        FeaturePipelineConfig(**{name: value})


def _replaced_hidden_twist(n, tau, stalk_dim):
    """The hidden twist as it was built before: the trivial bundle with both
    restrictions of the defect edge replaced, here in a copy of its table."""
    base = trivial_bundle(n, stalk_dim)
    restrictions = dict(base.restrictions)
    restrictions[((0,), (0, 1))] = HIDDEN_TWIST_WEIGHT * np.eye(stalk_dim)
    restrictions[((1,), (0, 1))] = HIDDEN_TWIST_WEIGHT * rotation_matrix(tau, stalk_dim)
    return CellSheaf(base.complex, base.stalks, restrictions)


@pytest.mark.parametrize("stalk_dim", [2, 3])
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_hidden_twist_equals_build_then_replace(stalk_dim, tau):
    assert HIDDEN_TWIST_DEFECT_EDGE == (0, 1)
    for n in (4, 7):
        sheaf = hidden_twist_bundle(n, tau, stalk_dim)
        reference = _replaced_hidden_twist(n, tau, stalk_dim)
        assert sheaf.complex.incidences == reference.complex.incidences
        assert list(sheaf.stalks) == list(reference.stalks)
        assert all(np.array_equal(sheaf.stalks[c].basis, stalk.basis)
                   for c, stalk in reference.stalks.items())
        assert sheaf.validated == reference.validated
        _assert_restrictions_equal(sheaf.restrictions, reference.restrictions)
        assert all(m.dtype == np.float64 for m in sheaf.restrictions.values())


def test_validate_identity_sheaf_empty():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(3)), 2)
    assert validate_sheaf(sheaf) == []


def test_validate_reports_perturbed_incidences():
    base = constant_sheaf(build_clique_complex(complete_graph(3)), 2)
    t = (0, 1, 2)
    restrictions = dict(base.restrictions)
    restrictions[((0, 1), t)] = restrictions[((0, 1), t)] + 0.5
    violations = validate_sheaf(CellSheaf(base.complex, base.stalks, restrictions))
    # exactly the flags through the perturbed map: vertices 0 and 1 of the triangle
    assert {(v.triangle, v.vertex) for v in violations} == {(t, (0,)), (t, (1,))}


def test_violation_names_a_flags_top_cell_and_bottom_face_on_a_coned_complex():
    # a flag of the coned K4 is a (tetrahedron, edge) pair under the names
    # ``triangle`` and ``vertex``
    base = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    coned = geometric_cone_sheaf(base, grounding_from_padding(base))
    t = (0, 1, 2, coned.complex.apex)
    key = ((0, 1, 2), t)
    negated = {**coned.restrictions, key: -coned.restrictions[key]}
    violations = validate_sheaf(CellSheaf(coned.complex, coned.stalks, negated))
    assert sorted((v.triangle, v.vertex) for v in violations) == [
        ((0, 1, 2, 4), (0, 1)), ((0, 1, 2, 4), (0, 2)), ((0, 1, 2, 4), (1, 2))]
    # each flag's two paths are -I and I on R^2
    assert [v.defect for v in violations] == [2 * math.sqrt(2)] * 3


def test_generator_sheaves_pass_validation():
    for sheaf in (trivial_bundle(6, 2), mobius_bundle(7), hidden_twist_bundle(8, 0.2),
                  noisy_trivial_bundle(6, 0.3, seed=1)):
        assert validate_sheaf(sheaf) == []


def _counted(kernel, groups):
    """``kernel``, appending the number of cells of each call to ``groups``."""
    def counting(*stacks):
        groups.append(len(stacks[0]))
        return kernel(*stacks)
    return counting


def test_per_shape_takes_a_stacked_column_as_its_list_of_cells():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(5, 2, 2))
    # one shape group: the stack alone, and a list of one shape beside it
    for columns in ((stack,), (stack, [rng.normal(size=(2, 3)) for _ in range(5)])):
        kernel = sheaves._projectors if len(columns) == 1 else sheaves._products
        groups = []
        stacked = sheaves._per_shape(_counted(kernel, groups), columns)
        listed = sheaves._per_shape(kernel, (list(stack),) + columns[1:])
        assert groups == [5]
        assert all(map(_same_array, stacked, listed)) and len(stacked) == 5
    # two groups: the stack gathered by each group's cells beside a list of two shapes
    mixed = [rng.normal(size=(2, k)) for k in (3, 1, 3, 1, 1)]
    groups = []
    stacked = sheaves._per_shape(_counted(sheaves._products, groups), (stack, mixed))
    listed = sheaves._per_shape(sheaves._products, (list(stack), mixed))
    assert groups == [2, 3]
    assert all(map(_same_array, stacked, listed)) and len(stacked) == 5
    assert [m.shape for m in stacked] == [(2, 3), (2, 1), (2, 3), (2, 1), (2, 1)]


def _reference_defects(sheaf):
    """Every (triangle, vertex) defect by one ``np.linalg.norm`` per flag, in
    triangle order and then vertex order."""
    complex_, restrictions = sheaf.complex, sheaf.restrictions
    defects = []
    for t in complex_.cells(2):
        for v in t:
            e1, e2 = sorted(e for e in complex_.faces(t) if v in e)
            via1 = restrictions[(e1, t)] @ restrictions[((v,), e1)]
            via2 = restrictions[(e2, t)] @ restrictions[((v,), e2)]
            defects.append((t, (v,), float(np.linalg.norm(via1 - via2))))
    return defects


@pytest.mark.parametrize("seed, cfg", _PIPELINE_CASES)
def test_stacked_validation_is_the_per_flag_norm_bit_for_bit(monkeypatch, seed, cfg):
    # every flag is reported, so every defect is compared
    monkeypatch.setattr(sheaves, "FUNCTORIALITY_TOL", -1.0)
    for sheaf in (build_sheaf_from_features(*_mixed_features(seed), cfg),
                  add_restriction_noise(constant_sheaf(build_clique_complex(
                      complete_graph(5)), 3), 0.3, seed)):
        found = [(v.triangle, v.vertex, v.defect) for v in validate_sheaf(sheaf)]
        assert len(found) == 3 * len(sheaf.complex.cells(2)) > 0
        assert found == _reference_defects(sheaf)


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
    assert restored.complex.cells(1) == sheaf.complex.cells(1)
    for key, m in sheaf.restrictions.items():
        assert np.array_equal(restored.restrictions[key], m)
    assert restored.validated == sheaf.validated


def test_sheaf_json_reader_keeps_the_arrays_it_parses(monkeypatch):
    # each list's payloads of one shape are parsed into one read-only stack,
    # and every Stalk and CellSheaf keeps a view of it without a copy
    made = []

    def recording(rows, shape, stack=sheaves._payload_stack):
        made.append(stack(rows, shape))
        return made[-1]

    rng = np.random.default_rng(9)
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    sheaf = build_sheaf_from_features(g, {v: rng.normal(size=(4, 3)) for v in range(4)})
    text = sheaf_to_json(sheaf)
    monkeypatch.setattr(sheaves, "_payload_stack", recording)
    restored = sheaf_from_json(text)
    kept = [stalk.basis for stalk in restored.stalks.values()]
    kept += list(restored.restrictions.values())
    assert sum(map(len, made)) == len(kept) == len(sheaf.stalks) + len(sheaf.restrictions)
    assert len(made) < len(kept)
    for array in kept:
        assert not array.flags.writeable
        (parsed,) = [stack for stack in made if np.shares_memory(array, stack)]
        assert not parsed.flags.writeable and array.shape == parsed.shape[1:]


def _count_basis_checks(monkeypatch):
    """List the shape of every stack that ``sheaves._check_bases`` tests, the
    one orthonormality test of stalk bases, in call order."""
    checked, check = [], sheaves._check_bases

    def counted(stack):
        checked.append(stack.shape)
        return check(stack)

    monkeypatch.setattr(sheaves, "_check_bases", counted)
    return checked


def test_sheaf_json_reader_tests_each_stalk_shape_once(monkeypatch):
    k5 = sheaf_to_json_dict(constant_sheaf(build_clique_complex(complete_graph(5)), 2))
    features = build_sheaf_from_features(*_mixed_features(0))
    shapes = {stalk.basis.shape for stalk in features.stalks.values()}
    checked = _count_basis_checks(monkeypatch)
    sheaf_from_json_dict(k5)
    # the 25 stalks of K5's 2-truncated clique complex share one shape: one Gram test
    assert checked == [(25, 2, 2)]
    checked.clear()
    sheaf_from_json(sheaf_to_json(features))
    assert len(checked) == len(shapes) > 1
    assert {shape[1:] for shape in checked} == shapes
    assert sum(shape[0] for shape in checked) == len(features.stalks)
    # a failed stack is walked item by item, which names the first failing item
    k5["stalks"][3]["basis"]["data"] = [2, 0, 0, 1]
    k5["stalks"][7]["basis"]["data"] = [float("nan"), 0, 0, 1]
    checked.clear()
    with pytest.raises(ValueError, match=r"^stalk item 3 field 'basis': stalk basis is not "
                                         r"orthonormal$"):
        sheaf_from_json_dict(k5)
    assert checked == [(25, 2, 2)] + [(1, 2, 2)] * 4


def test_feature_pipeline_tests_each_stalk_shape_once(monkeypatch):
    g, features = _mixed_features(0)
    checked = _count_basis_checks(monkeypatch)
    sheaf = build_sheaf_from_features(g, features)
    # one Gram test per shape of the vertex stalks, then one per shape of the
    # edge and triangle stalks, which one pass makes together
    nodes = {sheaf.stalks[(v,)].basis.shape for v in range(g.vertex_count)}
    higher = {stalk.basis.shape for cell, stalk in sheaf.stalks.items() if len(cell) > 1}
    assert len(checked) == len(nodes) + len(higher)
    assert {shape[1:] for shape in checked[:len(nodes)]} == nodes
    assert {shape[1:] for shape in checked[len(nodes):]} == higher


def test_stacked_and_walking_sheaf_json_readers_agree():
    # the item-by-item walk, which names a failing item, reads a valid list
    # as the stacked pass does: the same keys in file order and the same bytes
    data = sheaf_to_json_dict(build_sheaf_from_features(*_mixed_features(1)))
    for kind in ("stalk", "restriction"):
        stacked = sheaves._read_stacked(kind, data[f"{kind}s"])
        walked = sheaves._read_walking(kind, data[f"{kind}s"])
        assert list(stacked) == list(walked)
        for a, b in zip(stacked.values(), walked.values()):
            a, b = getattr(a, "basis", a), getattr(b, "basis", b)
            assert _same_array(a, b) and not a.flags.writeable and not b.flags.writeable


def _edit_items(*edits):
    """The trivial R^2 bundle on the 5-cycle as sheaf.json, with field
    ``name`` of item ``index`` of list ``kind`` set to ``value`` for each
    ``(kind, index, name, value)`` of ``edits``."""
    data = sheaf_to_json_dict(trivial_bundle(5, 2))
    for kind, index, name, value in edits:
        data[kind][index][name] = value
    return data


_SKEWED = {"shape": [2, 2], "data": [2, 0, 0, 1]}


@pytest.mark.parametrize("edits, message", [
    # the later item fails an earlier test of the stacked pass (cells are
    # tested before bases), yet the earlier item is named
    ((("stalks", 3, "basis", _SKEWED), ("stalks", 5, "cell", [True])),
     "stalk item 3 field 'basis': stalk basis is not orthonormal"),
    ((("stalks", 5, "basis", _SKEWED), ("stalks", 3, "cell", [True])),
     "stalk item 3 field 'cell' is not a list of integers"),
    # within one item, the cell before the basis
    ((("stalks", 4, "basis", _SKEWED), ("stalks", 4, "cell", [-1])),
     "stalk item 4 field 'cell' has a negative entry -1"),
    # every stalk before any restriction
    ((("restrictions", 0, "face", [True]), ("stalks", 9, "basis", _SKEWED)),
     "stalk item 9 field 'basis': stalk basis is not orthonormal"),
    ((("restrictions", 6, "matrix", {"shape": [2, 2], "data": [1, 0, 0]}),
      ("restrictions", 8, "matrix", {"shape": [2, 2], "data": [1, 0, "0", 1]})),
     "restriction item 6 field 'matrix': cannot reshape array of size 3 into shape (2,2)"),
    # a negative entry alone, which no later test of the stacked pass would name
    ((("stalks", 2, "cell", [-1]),), "stalk item 2 field 'cell' has a negative entry -1"),
    ((("restrictions", 3, "coface", [0, -2]),),
     "restriction item 3 field 'coface' has a negative entry -2"),
], ids=["basis-before-later-cell", "cell-before-later-basis", "cell-before-basis",
        "stalks-before-restrictions", "first-restriction", "negative-cell", "negative-coface"])
def test_sheaf_json_reader_names_the_first_failing_item(edits, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sheaf_from_json_dict(_edit_items(*edits))

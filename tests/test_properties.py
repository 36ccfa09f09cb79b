"""Hypothesis properties on functorial sheaves: constant sheaves on random
G(n, p) clique complexes and the trivial and Mobius cycle bundles.

* d1 d0 vanishes and dim ker L_j equals the Betti number b_j, j = 0, 1, 2;
* relabelling the vertices leaves every kernel dimension unchanged and
  permutes the local witness maps;
* under every named grounding, each gap-weight local map is non-zero iff
  its channel's global witness is positive. The same holds on a feature
  sheaf whose L1 spectrum has no gap at the zero cutoff.

The JSON round trip is bit-exact on the four cycle-bundle generators and on
seeded feature sheaves, and so are the Laplacians and spectra a sheaf keeps:
read-only, and equal to a fresh decomposition of the round-tripped copy.

The geometric cone of a constant sheaf under a random constant grounding
is the translated algebraic cone entry for entry, in degrees 0, 1 and 2.

A sheaf's ``validated`` is what ``validate_sheaf`` finds, on generator and
feature sheaves, noisy constant sheaves with triangles, JSON files whose
``validated`` key says otherwise and geometric cones.

Restriction noise equals the copy-then-compose reference bit for bit on
cycles whose edge stalks mix dimensions 1, 2 and 3 and on feature sheaves,
where the angles and the plane entries interleave in one stream.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import copy_then_compose
from sheafgauge.complexes import Graph, build_clique_complex, cycle_graph
from sheafgauge.diagnostics import (
    GROUNDING_NAMES,
    DiagnosticsConfig,
    make_grounding,
    run_diagnostics,
)
from sheafgauge.operators import (
    algebraic_cone,
    betti_numbers,
    coboundary,
    constant_grounding,
    geometric_cone_sheaf,
    grounding_from_padding,
    laplacian,
    laplacian_spectrum,
    verify_cone_equivalence,
)
from sheafgauge.sheaves import (
    CellSheaf,
    Stalk,
    add_restriction_noise,
    build_sheaf_from_features,
    constant_sheaf,
    hidden_twist_bundle,
    mobius_bundle,
    noisy_trivial_bundle,
    sheaf_from_json,
    sheaf_from_json_dict,
    sheaf_to_json,
    sheaf_to_json_dict,
    trivial_bundle,
    validate_sheaf,
)
from sheafgauge.spectral import (
    WitnessConfig,
    coface_energy_map,
    eigendecompose,
    kernel_dim,
    local_witness,
)


@st.composite
def constant_sheaves(draw):
    n = draw(st.integers(2, 9))
    p = draw(st.sampled_from([0.3, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return constant_sheaf(build_clique_complex(Graph(n, edges)), draw(st.integers(1, 2)))


@st.composite
def cycle_bundles(draw):
    make = draw(st.sampled_from([trivial_bundle, mobius_bundle]))
    return make(draw(st.integers(4, 9)), draw(st.integers(1, 3)))


functorial_sheaves = st.one_of(constant_sheaves(), cycle_bundles())


def _kernel_dims(sheaf):
    return [kernel_dim(eigendecompose(laplacian(sheaf, j))) for j in (0, 1, 2)]


@given(functorial_sheaves)
def test_complex_and_hodge_correspondence(sheaf):
    d0 = coboundary(sheaf, 0).matrix
    d1 = coboundary(sheaf, 1).matrix
    assert np.linalg.norm(d1 @ d0) <= 1e-12
    assert _kernel_dims(sheaf) == list(betti_numbers(sheaf))


@given(constant_sheaves(), st.integers(1, 3), st.integers(0, 2**16))
def test_cone_equivalence_is_exact_in_every_degree(sheaf, rows, seed):
    grounding = constant_grounding(sheaf, target_dim=rows, seed=seed)
    report = verify_cone_equivalence(algebraic_cone(sheaf, grounding))
    assert report.status == "pass"
    assert report.residual_by_degree == {0: 0.0, 1: 0.0, 2: 0.0}


def _relabel(sheaf, perm):
    """The same sheaf on the complex with vertex v renamed perm[v], and the
    cell map old -> new."""
    old = sheaf.complex
    graph = Graph(len(old.cells(0)), [(int(perm[u]), int(perm[v])) for u, v in old.cells(1)])
    cells = {cell: tuple(sorted(int(perm[v]) for v in cell))
             for j in (0, 1, 2) for cell in old.cells(j)}
    stalks = {cells[c]: stalk for c, stalk in sheaf.stalks.items()}
    restrictions = {(cells[f], cells[c]): m for (f, c), m in sheaf.restrictions.items()}
    relabelled = CellSheaf(build_clique_complex(graph), stalks, restrictions)
    return relabelled, cells


def _assert_permuted(before, after, cells):
    assert before.degree == after.degree
    assert len(before.scores) == len(after.scores)
    position = {cell: i for i, cell in enumerate(after.cells)}
    old = before.scores
    new = after.scores[[position[cells[c]] for c in before.cells]]
    scale = max(float(np.max(np.abs(old), initial=0.0)), float(np.max(np.abs(new), initial=0.0)))
    assert np.all(np.abs(old - new) <= 1e-9 * scale)


@given(functorial_sheaves, st.integers(0, 2**16))
def test_relabelling_permutes_witness_maps(sheaf, seed):
    perm = np.random.default_rng(seed).permutation(len(sheaf.complex.cells(0)))
    relabelled, cells = _relabel(sheaf, perm)
    assert _kernel_dims(relabelled) == _kernel_dims(sheaf)
    cfg = WitnessConfig()
    for j in (0, 1, 2):
        if sheaf.cochain_dim(j):
            _assert_permuted(local_witness(sheaf, j, cfg),
                             local_witness(relabelled, j, cfg), cells)
    if sheaf.cochain_dim(1):
        _assert_permuted(coface_energy_map(sheaf, 0, cfg),
                         coface_energy_map(relabelled, 0, cfg), cells)


def _assert_gap_maps_agree(sheaf, grounding_name):
    """Each gap-weight local map is non-zero iff its channel's global witness
    is positive: both read the same split of the same spectrum."""
    report = run_diagnostics(sheaf, make_grounding(sheaf, grounding_name),
                             DiagnosticsConfig(with_local=True))
    for local, channel in (("base_j0", "local_feasibility"),
                           ("base_j1", "intrinsic_obstruction"),
                           ("relative_cone", "relative_cone")):
        witness = report.channels[channel].global_witness
        assert (report.local_maps[local].argmax() is None) == (witness == 0.0), channel


@given(functorial_sheaves, st.sampled_from(GROUNDING_NAMES))
def test_gap_map_nonzero_iff_global_witness_positive(sheaf, grounding_name):
    _assert_gap_maps_agree(sheaf, grounding_name)


def test_gap_map_agrees_on_gapless_feature_sheaf():
    # seed 0 of the feature family G(60, 0.15), ambient dimension 6, rank 3,
    # noise 0.05: eigenvalues of L1 from 1e-9 to 1e-5 straddle the cutoff
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    features = {v: basis + 0.05 * rng.normal(size=(6, 3)) for v in range(60)}
    upper = np.triu_indices(60, 1)
    keep = rng.random(upper[0].size) < 0.15
    graph = Graph(60, [(int(u), int(v)) for u, v in zip(upper[0][keep], upper[1][keep])])
    _assert_gap_maps_agree(build_sheaf_from_features(graph, features), "padding")


@st.composite
def feature_sheaves(draw):
    """A seeded G(7, 0.6) feature sheaf, one vertex orthogonal to the rest."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.6]
    frame, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    features = {v: frame[:, :3] + 0.05 * rng.normal(size=(5, 3)) for v in range(6)}
    features[6] = frame[:, 3:]
    return build_sheaf_from_features(Graph(7, edges), features)


@st.composite
def mixed_feature_sheaves(draw):
    """A seeded feature sheaf like the CLI matrix's G(8, 0.6) and G(24, 0.35)
    inputs: features of rank 1, 2 and 3 near one frame, a quarter of them
    with 4 of the 6 ambient rows, and one vertex orthogonal to the rest, so
    stalks of several dimensions, zero among them, share each degree."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n, p = draw(st.integers(4, 12)), draw(st.sampled_from([0.35, 0.6]))
    frame, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    features = {n - 1: frame[:, 3:]}
    for v in range(n - 1):
        rows, width = (4 if v % 4 == 3 else 6), v % 3 + 1
        features[v] = frame[:rows, :width] + 0.05 * rng.normal(size=(rows, width))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_sheaf_from_features(Graph(n, edges), features)


generator_sheaves = st.one_of(
    cycle_bundles(),
    st.builds(hidden_twist_bundle, st.integers(4, 9),
              st.floats(-4.0, 4.0, allow_nan=False), st.integers(2, 3)),
    st.builds(noisy_trivial_bundle, st.integers(4, 9), st.floats(0.0, 1.0),
              st.integers(0, 2**16), st.integers(1, 3)),
)


def _assert_bit_equal(a, b):
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@given(st.one_of(generator_sheaves, feature_sheaves(), mixed_feature_sheaves()))
def test_json_round_trip_is_bit_exact(sheaf):
    text = sheaf_to_json(sheaf)
    restored = sheaf_from_json(text)
    # serialization sorts the cells, so the key order may change, not the key sets
    assert set(restored.stalks) == set(sheaf.stalks)
    assert set(restored.restrictions) == set(sheaf.restrictions)
    # each read array is a read-only view of the stack of its shape
    for cell, stalk in sheaf.stalks.items():
        _assert_bit_equal(restored.stalks[cell].basis, stalk.basis)
        assert not restored.stalks[cell].basis.flags.writeable
    for key, m in sheaf.restrictions.items():
        _assert_bit_equal(restored.restrictions[key], m)
        assert not restored.restrictions[key].flags.writeable
    assert restored.validated == sheaf.validated
    for j in (0, 1):
        assert coboundary(restored, j).matrix.tobytes() == coboundary(sheaf, j).matrix.tobytes()
    assert sheaf_to_json(restored) == text


@given(st.one_of(generator_sheaves, feature_sheaves(), constant_sheaves()))
def test_kept_laplacians_and_spectra_are_read_only_and_fresh(sheaf):
    # full reports under a vertex-level and a cochain grounding read them first
    for name in ("padding", "deficient"):
        run_diagnostics(sheaf, make_grounding(sheaf, name), DiagnosticsConfig(with_local=True))
    copy = sheaf_from_json(sheaf_to_json(sheaf))
    for j in (0, 1, 2):
        lap, spectrum = laplacian(sheaf, j), laplacian_spectrum(sheaf, j)
        assert lap is laplacian(sheaf, j) and spectrum is laplacian_spectrum(sheaf, j)
        for array in (lap.matrix, spectrum.eigenvalues, spectrum.columns(0, spectrum.dim),
                      spectrum.vectors()):
            assert not array.flags.writeable
        fresh = eigendecompose(laplacian(copy, j))
        _assert_bit_equal(lap.matrix, laplacian(copy, j).matrix)
        _assert_bit_equal(spectrum.eigenvalues, fresh.eigenvalues)
        _assert_bit_equal(spectrum.vectors(), fresh.vectors())
        assert spectrum.threshold == fresh.threshold


@st.composite
def noisy_constant_sheaves(draw):
    """Restriction noise on a constant sheaf on a dense clique complex: the
    rotated edge maps no longer commute around the triangles."""
    n = draw(st.integers(4, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.8]
    base = constant_sheaf(build_clique_complex(Graph(n, edges)), draw(st.integers(2, 3)))
    return add_restriction_noise(base, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**16)))


@st.composite
def flipped_json_sheaves(draw):
    """A JSON round trip whose ``validated`` key is flipped before loading."""
    data = sheaf_to_json_dict(draw(st.one_of(generator_sheaves, feature_sheaves())))
    data["validated"] = not data["validated"]
    return sheaf_from_json_dict(data)


geometric_cones = st.one_of(constant_sheaves(), cycle_bundles()).map(
    lambda sheaf: geometric_cone_sheaf(sheaf, grounding_from_padding(sheaf)))


@given(st.one_of(generator_sheaves, feature_sheaves(), noisy_constant_sheaves(),
                 flipped_json_sheaves(), geometric_cones))
def test_validated_is_what_validation_finds(sheaf):
    assert sheaf.validated == (validate_sheaf(sheaf) == [])


@st.composite
def mixed_stalk_cycles(draw):
    """A cycle whose edge stalks have dimension 1, 2 or 3 and vertex stalks
    0 to 3, with random restrictions (the noise needs no functoriality)."""
    n = draw(st.integers(4, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    complex_ = build_clique_complex(cycle_graph(n))
    dims = {cell: int(rng.integers(0, 4)) for cell in complex_.cells(0)}
    dims.update({cell: int(rng.integers(1, 4)) for cell in complex_.cells(1)})
    stalks = {cell: Stalk(np.eye(3)[:, :d]) for cell, d in dims.items()}
    restrictions = {(face, coface): rng.normal(size=(dims[coface], dims[face]))
                    for coface, face in complex_.incidences}
    return CellSheaf(complex_, stalks, restrictions)


@given(st.one_of(mixed_stalk_cycles(), feature_sheaves()), st.floats(0.0, 1.0),
       st.integers(0, 2**16))
def test_restriction_noise_equals_copy_then_compose_on_mixed_stalks(sheaf, sigma, seed):
    noisy = add_restriction_noise(sheaf, sigma, seed)
    expected = copy_then_compose(sheaf, sigma, seed)
    assert list(noisy.restrictions) == list(expected)
    for key, m in expected.items():
        _assert_bit_equal(noisy.restrictions[key], m)

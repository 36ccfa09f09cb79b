import math

import numpy as np
import pytest

from sheafgauge.complexes import Graph, build_clique_complex, complete_graph
from sheafgauge.operators import (
    SheafLaplacian,
    algebraic_cone,
    channel_set,
    coboundary,
    grounding_from_padding,
    grounding_identity_c1,
    laplacian,
    zero_threshold,
)
from sheafgauge.sheaves import (
    constant_sheaf,
    hidden_twist_bundle,
    mobius_bundle,
    noisy_trivial_bundle,
    trivial_bundle,
)
from sheafgauge.spectral import (
    AsymmetricOperatorError,
    ConeReductionSide,
    LocalWitnessMap,
    PsdViolationError,
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


def diag_operator(values):
    return SheafLaplacian(np.diag(np.asarray(values, dtype=float)), 0)


def spectrum_of(values):
    return eigendecompose(diag_operator(values))


def single_edge_spectrum():
    sheaf = constant_sheaf(build_clique_complex(Graph(2, [(0, 1)])), 1)
    return eigendecompose(laplacian(sheaf, 0))


# ---------------------------------------------------------------------------
# Eigendecomposition and filtration
# ---------------------------------------------------------------------------


def test_eigendecompose_single_edge():
    s = single_edge_spectrum()
    assert np.allclose(s.eigenvalues, [0.0, 2.0])
    assert kernel_dim(s) == 1
    assert abs(spectral_gap(s) - 2.0) < 1e-12


def test_eigendecompose_mobius_gap_value():
    s = eigendecompose(laplacian(mobius_bundle(10), 0))
    assert abs(spectral_gap(s) - 0.097887) < 1e-5
    assert kernel_dim(s) == 0


def test_eigendecompose_k3_identity():
    from sheafgauge.complexes import complete_graph

    sheaf = constant_sheaf(build_clique_complex(complete_graph(3)), 1)
    s = eigendecompose(laplacian(sheaf, 0))
    assert np.allclose(s.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(AsymmetricOperatorError):
        eigendecompose(SheafLaplacian(np.array([[0.0, 1.0], [0.0, 0.0]]), 0))


def test_eigendecompose_rejects_indefinite():
    with pytest.raises(PsdViolationError):
        eigendecompose(diag_operator([-1.0, 2.0]))


def test_spectrum_residual_invariant():
    lap = laplacian(mobius_bundle(8, 2), 0)
    s = eigendecompose(lap)
    residual = lap.matrix @ s.eigenvectors - s.eigenvectors * s.eigenvalues
    assert np.max(np.abs(residual)) < 1e-8 * max(s.lambda_max, 1.0)
    gram = s.eigenvectors.T @ s.eigenvectors
    assert np.max(np.abs(gram - np.eye(s.dim))) < 1e-8


def test_harmonic_space_kernel_and_full():
    s = single_edge_spectrum()
    assert harmonic_space(s, 0.0).shape[1] == 1
    assert harmonic_space(s, 2.0).shape[1] == 2
    with pytest.raises(ValueError):
        harmonic_space(s, -0.5)


def test_harmonic_space_circulant_count():
    # oracle: closed-form circulant eigenvalues of the trivial cycle
    s = eigendecompose(laplacian(trivial_bundle(10), 0))
    expected = 1 + sum(
        1 for k in range(1, 10) if 2 - 2 * math.cos(2 * math.pi * k / 10) <= 0.5
    )
    assert harmonic_space(s, 0.5).shape[1] == expected


def test_monotone_nesting_projectors():
    s = eigendecompose(laplacian(mobius_bundle(9, 2), 0))
    grid = np.linspace(0.0, s.lambda_max, 10)
    for d1, d2 in zip(grid, grid[1:]):
        small = harmonic_space(s, d1)
        big = harmonic_space(s, d2)
        if small.shape[1] == 0:
            continue
        residual = small - big @ (big.T @ small)
        assert np.linalg.norm(residual, 2) < 1e-8


def test_kernel_dim_gap_zero_operator():
    s = spectrum_of([0.0, 0.0, 0.0])
    assert kernel_dim(s) == 3
    assert spectral_gap(s) == math.inf


RESCALING_FIXTURES = {
    "trivial": lambda: trivial_bundle(10),
    "mobius": lambda: mobius_bundle(10),
    "hidden-twist": lambda: hidden_twist_bundle(10, 0.3),
    "noisy-trivial": lambda: noisy_trivial_bundle(10, 0.25, seed=0),
}


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("name", sorted(RESCALING_FIXTURES))
def test_kernel_dim_invariant_under_rescaling(name, degree):
    # Documented range: s * L reports the kernel of L whenever its smallest
    # positive eigenvalue stays a decade above the cutoff at that scale.
    lap = laplacian(RESCALING_FIXTURES[name](), degree)
    spectrum = eigendecompose(lap)
    lambda_plus, lambda_max = spectral_gap(spectrum), spectrum.lambda_max
    covered = []
    for k in range(-12, 7):
        s = 10.0**k
        if s * lambda_plus <= 10 * zero_threshold(s * lambda_max):
            continue
        scaled = eigendecompose(SheafLaplacian(s * lap.matrix, degree))
        assert kernel_dim(scaled) == kernel_dim(spectrum), f"scale 1e{k}"
        covered.append(k)
    # every fixture's range reaches at least 1e-4 .. 1e6
    assert covered == list(range(covered[0], 7)) and covered[0] <= -4


def test_kernel_dim_below_rescaling_range():
    # Out of range: every eigenvalue of 1e-12 * L0 is below the absolute
    # floor, so the whole trivial 10-cycle counts as kernel.
    lap = laplacian(trivial_bundle(10), 0)
    assert kernel_dim(eigendecompose(lap)) == 1
    assert kernel_dim(eigendecompose(SheafLaplacian(1e-12 * lap.matrix, 0))) == 10


def test_is_almost_non_exact_mobius():
    s = eigendecompose(laplacian(mobius_bundle(10), 0))
    assert is_almost_non_exact(s, 0.1)
    assert not is_almost_non_exact(s, 0.01)
    trivial = eigendecompose(laplacian(trivial_bundle(10), 0))
    assert not is_almost_non_exact(trivial, 0.1)


def test_indicator_profile():
    s = single_edge_spectrum()
    assert indicator_profile(s, [0.0, 1.0, 2.0, 3.0]) == [1, 1, 2, 2]
    with pytest.raises(ValueError):
        indicator_profile(s, [1.0, 0.5])


def test_indicator_profile_monotone_and_jump_locations():
    s = eigendecompose(laplacian(trivial_bundle(10), 0))
    grid = sorted(set(np.round(s.eigenvalues, 12)) | {0.05, 1.7, 3.1})
    grid = [max(g, 0.0) for g in grid]
    profile = indicator_profile(s, grid)
    assert all(b >= a for a, b in zip(profile, profile[1:]))
    jumps = np.unique(s.eigenvalues)
    closed_form = sorted(2 - 2 * math.cos(2 * math.pi * k / 10) for k in range(10))
    assert np.allclose(sorted(set(np.round(jumps, 9))), sorted(set(np.round(closed_form, 9))),
                       atol=1e-8)


def test_counted_dims_match_harmonic_space_basis():
    # oracle: the eigenvalue count equals the column count of the basis copy
    rng = np.random.default_rng(7)
    for trial in range(30):
        clusters = rng.uniform(0.0, 5.0, size=rng.integers(1, 8))
        values = np.sort(np.concatenate([
            np.zeros(rng.integers(0, 3)),
            np.repeat(clusters, rng.integers(1, 4, size=clusters.size)),
            rng.uniform(0.0, 1e-4, size=rng.integers(0, 3)),
        ]))
        if values.size == 0:
            continue
        threshold = float(rng.choice([1e-10, 1e-4, 0.5]))
        s = Spectrum(values, np.eye(values.size), threshold)
        below = rng.uniform(0.0, threshold, size=3)
        grid = sorted(set(values.tolist()) | set(below.tolist())
                      | {0.0, threshold, float(values[-1]) + 1.0})
        expected = [harmonic_space(s, d).shape[1] for d in grid]
        assert indicator_profile(s, grid) == expected, trial
        assert [indicator_profile(s, [d])[0] for d in grid] == expected, trial
        for d in grid[1:]:
            basis_count = harmonic_space(s, d).shape[1]
            assert is_almost_non_exact(s, d) == (kernel_dim(s) == 0 and basis_count > 0)
    with pytest.raises(ValueError, match="non-negative"):
        indicator_profile(single_edge_spectrum(), [-1.0, 0.0])
    with pytest.raises(ValueError, match="non-negative"):
        indicator_profile(single_edge_spectrum(), [-0.5])


# ---------------------------------------------------------------------------
# Global witness
# ---------------------------------------------------------------------------


def test_global_witness_uniform_examples():
    s = spectrum_of([0.0, 0.5, 2.0])
    assert abs(global_witness(s, WitnessConfig(0.0, 1.0, "uniform")) - 0.5) < 1e-12
    s2 = spectrum_of([0.0, 3.0, 4.0])
    assert global_witness(s2, WitnessConfig(0.0, 1.0, "uniform")) == 0.0
    s3 = spectrum_of([0.0, 0.5, 0.8])
    assert abs(global_witness(s3, WitnessConfig(0.6, 1.0, "uniform")) - 0.6) < 1e-12


def test_global_witness_rejects_bad_interval():
    s = spectrum_of([0.0, 1.0])
    with pytest.raises(ValueError):
        global_witness(s, WitnessConfig(1.0, 0.5, "uniform"))


@pytest.mark.parametrize("kwargs", [
    {"delta0": math.nan}, {"delta0": math.inf}, {"delta1": math.nan}, {"delta1": math.inf},
    {"delta1": -math.inf},
])
def test_witness_config_rejects_non_finite_slack(kwargs):
    (name, value), = kwargs.items()
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        WitnessConfig(**kwargs)


def test_global_witness_gap_weight_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        values = np.sort(rng.uniform(0.0, 3.0, size=6))
        values[0] = 0.0
        s = spectrum_of(values)
        delta0 = float(rng.uniform(0.0, 1.0))
        delta1 = float(delta0 + rng.uniform(0.1, 2.0))
        got = global_witness(s, WitnessConfig(delta0, delta1, "gap"))
        gap = spectral_gap(s)
        expected = (delta1 - max(delta0, gap)) if gap <= delta1 else 0.0
        assert got == expected


def test_global_witness_monotone_in_interval():
    rng = np.random.default_rng(1)
    for _ in range(100):
        values = np.sort(rng.uniform(0.0, 4.0, size=8))
        s = spectrum_of(values)
        delta0 = float(rng.uniform(0.0, 0.5))
        delta1 = float(delta0 + rng.uniform(0.2, 2.0))
        weight = rng.choice(["uniform", "inverse", "heat"])
        base = global_witness(s, WitnessConfig(delta0, delta1, weight))
        wider = global_witness(s, WitnessConfig(delta0, delta1 + 0.3, weight))
        tighter = global_witness(s, WitnessConfig(delta0 + 0.1, delta1, weight))
        assert wider >= base - 1e-12
        assert tighter <= base + 1e-12


def test_heat_weight_default_time():
    s = spectrum_of([0.0, 0.5])
    got = global_witness(s, WitnessConfig(0.0, 1.0, "heat"))
    assert abs(got - (1.0 - 0.5) * math.exp(-0.5)) < 1e-12


# ---------------------------------------------------------------------------
# Local witness
# ---------------------------------------------------------------------------


def test_local_witness_zero_below_gap():
    sheaf = trivial_bundle(10)
    witness = local_witness(sheaf, 0, WitnessConfig(delta1=1e-6))
    assert not witness.scores.any()


def test_local_witness_mobius_rotation_symmetric():
    # the lowest positive eigenvalue is a degenerate pair; its block sum is
    # invariant under the cycle rotation, so all vertex scores agree
    sheaf = mobius_bundle(10)
    witness = local_witness(sheaf, 0, WitnessConfig())
    values = witness.scores
    assert max(values) > 0
    assert max(values) - min(values) < 1e-8 * max(values)


def test_local_witness_hidden_twist_argmax_at_defect():
    sheaf = hidden_twist_bundle(10, 0.3)
    edge_map = coface_energy_map(sheaf, 0, WitnessConfig())
    assert edge_map.argmax() == (0, 1)
    # the defect endpoints dominate the vertex aggregation too
    vertex_map = local_witness(sheaf, 0, WitnessConfig())
    assert vertex_map.argmax() in ((0,), (1,))


def test_witness_map_argmax_is_the_first_maximum_or_none():
    cells = ((0, 1), (1, 2), (2, 3), (0, 3))
    tied = LocalWitnessMap(0, 1.0, cells, np.array([0.5, 2.0, 1.0, 2.0]))
    assert tied.argmax() == (1, 2)
    assert LocalWitnessMap(0, 1.0, cells, np.zeros(4)).argmax() is None
    assert LocalWitnessMap(0, 1.0, (), np.zeros(0)).argmax() is None


def test_witness_maps_are_read_only_arrays_in_cell_order():
    sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    channels = channel_set(sheaf, grounding_from_padding(sheaf))
    cfg = WitnessConfig(delta1=3.0, weight="uniform")
    maps = [local_witness(sheaf, j, cfg) for j in (0, 1, 2)]
    maps += [coface_energy_map(sheaf, j, cfg) for j in (0, 1)]
    maps.append(local_witness_relative(channels, cfg))
    for witness_map in maps:
        assert witness_map.cells == sheaf.complex.cells(witness_map.degree)
        assert witness_map.scores.shape == (len(witness_map.cells),)
        with pytest.raises(ValueError):
            witness_map.scores[0] = 1.0


def test_local_witness_energy_accounting():
    # coface components, summed over cells, count once per face of the coface
    for sheaf in (mobius_bundle(8), hidden_twist_bundle(9, 0.2), trivial_bundle(7, 2)):
        cfg = WitnessConfig(delta1=3.0, weight="uniform")
        witness = local_witness(sheaf, 0, cfg)
        spectrum = eigendecompose(laplacian(sheaf, 0))
        d0 = coboundary(sheaf, 0)
        total = 0.0
        for index in range(spectrum.dim):
            lam = float(spectrum.eigenvalues[index])
            if lam <= spectrum.threshold or lam > 3.0:
                continue
            image = d0.matrix @ spectrum.eigenvectors[:, index]
            for edge in sheaf.complex.cells(1):
                faces = len(sheaf.complex.faces(edge))
                total += faces * float(np.sum(image[sheaf.cell_slices(1)[edge]] ** 2))
        assert abs(float(np.sum(witness.scores)) - total) < 1e-8


def test_local_witness_relative_channel():
    sheaf = hidden_twist_bundle(10, 0.3)
    grounding = grounding_from_padding(sheaf)
    witness = local_witness_relative(channel_set(sheaf, grounding), WitnessConfig())
    assert witness.cells == sheaf.complex.cells(1)
    assert witness.scores.shape == (len(sheaf.complex.cells(1)),)
    assert np.all(witness.scores >= 0)
    assert np.any(witness.scores > 0)


def test_clusters_match_loop_reference():
    from sheafgauge.spectral import _clusters

    def loop_clusters(eigenvalues, lam_max):
        gap_tol = 1e-8 * max(lam_max, 1.0)
        clusters, current = [], [0]
        for i in range(1, eigenvalues.size):
            if eigenvalues[i] - eigenvalues[i - 1] < gap_tol:
                current.append(i)
            else:
                clusters.append(current)
                current = [i]
        return clusters + [current] if eigenvalues.size else clusters

    rng = np.random.default_rng(3)
    cases = [np.array([0.0, 1e-8, 0.5])]  # a spacing exactly at the tolerance splits
    for _ in range(50):
        base = np.sort(rng.uniform(0.0, 4.0, size=rng.integers(0, 6)))
        jitter = rng.choice([0.0, 1e-12, 5e-9, 2e-8], size=(base.size, 3))
        cases.append(np.sort((base[:, None] + jitter).reshape(-1)))
    for values in cases:
        lam_max = float(values[-1]) if values.size else 0.0
        starts, ends = _clusters(values, lam_max)
        assert [list(range(a, b)) for a, b in zip(starts, ends)] == \
            loop_clusters(values, lam_max)


def _split_admitted_modes(spectrum, delta, cfg):
    """Reference: the modes above the kernel (k eigenvalues at or below the
    cutoff, counted one by one), split into clusters as np.split index
    arrays and admitted by a loop."""
    ev = spectrum.eigenvalues
    k = int(np.count_nonzero(ev <= spectrum.threshold))
    if ev.size == k:
        clusters = []
    else:
        breaks = np.flatnonzero(np.diff(ev[k:]) >= 1e-8 * max(spectrum.lambda_max, 1.0)) + 1
        clusters = np.split(np.arange(k, ev.size), breaks)
    admitted = []
    for cluster in clusters[:1] if cfg.weight == "gap" else clusters:
        if ev[cluster[0]] > delta:
            break
        admitted.extend(cluster.tolist())
    weights = [1.0 if cfg.weight == "gap" else cfg.weight_value(float(ev[i])) for i in admitted]
    return admitted, weights


def test_admitted_modes_equal_split_reference():
    from sheafgauge.spectral import WEIGHTS, _admitted_modes

    rng = np.random.default_rng(12)
    cases = [np.zeros(0), np.zeros(4), np.full(3, 1e-12),  # empty; kernel only
             np.array([0.0, 1e-8, 0.5]), np.array([0.0, 0.0, 0.3, 0.3, 0.3, 1.0])]
    for _ in range(60):
        lows = np.sort(rng.uniform(0.0, 4.0, size=rng.integers(1, 6)))
        kernel = np.zeros(rng.integers(0, 3))
        jitter = rng.choice([0.0, 1e-12, 5e-9, 2e-8], size=(lows.size, rng.integers(1, 4)))
        cases.append(np.sort(np.concatenate([kernel, (lows[:, None] + jitter).reshape(-1)])))
    cases.append(np.array([0.0, 5e-9, 8e-9, 1.2e-8, 0.7]))  # a cluster straddling the cutoff
    for values in cases:
        # the numerical-zero cutoff, and a cutoff landing exactly on an eigenvalue
        thresholds = [zero_threshold(float(values[-1]) if values.size else 0.0)]
        thresholds += [float(rng.choice(values))] if values.size else []
        for threshold in thresholds:
            spectrum = Spectrum(values, np.eye(values.size), threshold)
            deltas = [0.0, 1e-20, 0.3, 1.0, 5.0] + values.tolist()
            for weight in WEIGHTS:
                cfg = WitnessConfig(weight=weight)
                for delta in deltas + [cfg.resolve_delta1(spectrum)]:
                    indices, weights = _admitted_modes(spectrum, delta, cfg)
                    expected = _split_admitted_modes(spectrum, delta, cfg)
                    assert (list(indices), weights) == expected


def _loop_up_down(sheaf, j, spectrum, modes, scores):
    """Per-mode, per-cell reference for the coboundary terms of the witness."""
    up = coboundary(sheaf, j) if j <= 1 and sheaf.cochain_dim(j + 1) else None
    down = coboundary(sheaf, j - 1) if j >= 1 else None
    for index, weight in modes:
        v = spectrum.eigenvectors[:, index]
        if up is not None:
            image = up.matrix @ v
            for coface in sheaf.complex.cells(j + 1):
                component = float(np.sum(image[sheaf.cell_slices(j + 1)[coface]] ** 2))
                for face in sheaf.complex.faces(coface):
                    scores[face] += weight * component
        if down is not None:
            image = down.matrix.T @ v
            for cell in sheaf.complex.cells(j):
                for face in sheaf.complex.faces(cell):
                    component = float(np.sum(image[sheaf.cell_slices(j - 1)[face]] ** 2))
                    scores[cell] += weight * component
    return scores


def _loop_witnesses(sheaf, j, cfg):
    """Loop references of local_witness, coface_energy_map and, in degree 1,
    local_witness_relative under the padding grounding."""
    from sheafgauge.spectral import _admitted_modes

    spectrum = eigendecompose(laplacian(sheaf, j))
    delta = cfg.resolve_delta1(spectrum)
    modes = list(zip(*_admitted_modes(spectrum, delta, cfg)))
    witness = _loop_up_down(sheaf, j, spectrum, modes,
                            {cell: 0.0 for cell in sheaf.complex.cells(j)})
    coface = None
    if j <= 1:
        up = coboundary(sheaf, j)
        coface = {cell: 0.0 for cell in sheaf.complex.cells(j + 1)}
        for index, weight in modes:
            image = up.matrix @ spectrum.eigenvectors[:, index]
            for cell in coface:
                coface[cell] += weight * float(np.sum(image[sheaf.cell_slices(j + 1)[cell]] ** 2))
    relative = None
    if j == 1:
        channels = channel_set(sheaf, grounding_from_padding(sheaf))
        rel_spectrum = eigendecompose(channels.relative)
        rel_modes = list(zip(*_admitted_modes(rel_spectrum, cfg.resolve_delta1(rel_spectrum),
                                              cfg)))
        relative = _loop_up_down(sheaf, 1, rel_spectrum, rel_modes,
                                 {cell: 0.0 for cell in sheaf.complex.cells(1)})
        slices = sheaf.cell_slices(1)
        for index, weight in rel_modes:
            v = rel_spectrum.eigenvectors[:, index]
            for cell in sheaf.complex.cells(1):
                block = channels.eps[:, slices[cell]] @ v[slices[cell]]
                relative[cell] += weight * float(np.sum(block**2))
    return witness, coface, relative


def _assert_scores_close(witness_map, expected):
    assert witness_map.cells == tuple(expected)
    a = witness_map.scores
    e = np.array(list(expected.values()))
    scale = max(float(np.max(np.abs(e))), 1e-300) if e.size else 1.0
    assert np.all(np.abs(a - e) <= 1e-12 * scale)
    assert np.array_equal(a == 0.0, e == 0.0)


def _assert_maps_bit_equal(a, b):
    assert (a.degree, a.delta, a.cells) == (b.degree, b.delta, b.cells)
    assert a.scores.tobytes() == b.scores.tobytes()


def _feature_sheaf(seed):
    from sheafgauge.sheaves import build_sheaf_from_features

    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.6]
    frame, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    features = {v: frame[:, :3] + 0.05 * rng.normal(size=(5, 3)) for v in range(6)}
    features[6] = frame[:, 3:]  # orthogonal to the rest: zero-dim edge stalks
    return build_sheaf_from_features(Graph(7, edges), features)


@pytest.mark.parametrize("make", [
    lambda: mobius_bundle(9, 2),
    lambda: hidden_twist_bundle(11, 0.3),
    lambda: trivial_bundle(8),
    lambda: constant_sheaf(build_clique_complex(Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3),
                                                          (2, 3), (3, 4), (0, 4)])), 2),
    lambda: _feature_sheaf(3),
], ids=["mobius", "hidden-twist", "trivial", "clique-complex", "feature-sheaf"])
def test_vectorized_witnesses_match_loop_reference(make):
    sheaf = make()
    configs = [WitnessConfig(), WitnessConfig(delta1=3.0, weight="uniform"),
               WitnessConfig(weight="heat"), WitnessConfig(delta1=1e-9, weight="inverse")]
    degrees = (0, 1, 2) if sheaf.complex.cells(2) else (0, 1)
    for cfg in configs:
        for j in degrees:
            witness, coface, relative = _loop_witnesses(sheaf, j, cfg)
            _assert_scores_close(local_witness(sheaf, j, cfg), witness)
            if coface is not None:
                _assert_scores_close(coface_energy_map(sheaf, j, cfg), coface)
            if relative is not None:
                channels = channel_set(sheaf, grounding_from_padding(sheaf))
                _assert_scores_close(local_witness_relative(channels, cfg), relative)


@pytest.mark.parametrize("make", [
    lambda: hidden_twist_bundle(11, 0.3),
    lambda: constant_sheaf(build_clique_complex(Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3),
                                                          (2, 3), (3, 4), (0, 4)])), 2),
    lambda: _feature_sheaf(3),
], ids=["hidden-twist", "clique-complex", "feature-sheaf"])
def test_witnesses_from_channel_set_equal_standalone(make):
    # once a channel set and a run of diagnostics have read the sheaf's L_j and
    # their spectra, the maps still equal those a fresh copy builds alone, bit
    # for bit
    from sheafgauge.diagnostics import run_diagnostics

    sheaf = make()
    channels = channel_set(sheaf, grounding_from_padding(sheaf))
    run_diagnostics(sheaf, grounding_from_padding(sheaf))
    assert channels.sheaf is sheaf
    for cfg in (WitnessConfig(), WitnessConfig(delta1=3.0, weight="uniform")):
        for j in (0, 1):
            _assert_maps_bit_equal(local_witness(sheaf, j, cfg), local_witness(make(), j, cfg))
            _assert_maps_bit_equal(coface_energy_map(sheaf, j, cfg),
                                   coface_energy_map(make(), j, cfg))


@pytest.mark.parametrize("j", [-1, 3])
def test_local_witness_rejects_a_degree_without_laplacian(j):
    sheaf = trivial_bundle(6, 2)
    with pytest.raises(ValueError, match=f"laplacian degree must be 0, 1 or 2, got {j}"):
        local_witness(sheaf, j, WitnessConfig())


def test_local_witness_degenerate_cluster_block_rule():
    # delta cutting through a degenerate pair admits or excludes it whole
    sheaf = trivial_bundle(10)
    spectrum = eigendecompose(laplacian(sheaf, 0))
    pair = spectrum.eigenvalues[1]  # first positive value, multiplicity 2
    witness = local_witness(sheaf, 0, WitnessConfig(delta1=float(pair), weight="uniform"))
    direct = local_witness(sheaf, 0, WitnessConfig(delta1=float(pair) * 1.001,
                                                   weight="uniform"))
    assert np.allclose(witness.scores, direct.scores)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_trace_over_rank():
    result = normalize_spectrum(diag_operator([0.0, 2.0]), spectrum_of([0.0, 2.0]))
    assert not result.was_zero
    assert np.allclose(result.spectrum.eigenvalues, [0.0, 1.0])
    assert result.scale == 2.0


def test_normalize_preserves_kernel_and_order():
    for sheaf in (trivial_bundle(10), mobius_bundle(10), hidden_twist_bundle(10, 0.3)):
        lap = laplacian(sheaf, 0)
        before = eigendecompose(lap)
        result = normalize_spectrum(lap, before)
        scaled = SheafLaplacian(lap.matrix / result.scale, 0)
        after = eigendecompose(scaled)
        assert kernel_dim(before) == kernel_dim(after)
        assert np.allclose(after.eigenvalues * result.scale, before.eigenvalues,
                           atol=1e-10 * max(before.lambda_max, 1.0))
        mass = float(np.trace(scaled.matrix))
        rank = after.dim - kernel_dim(after)
        assert abs(mass / rank - 1.0) < 1e-10
        # the spectrum derived without a second eigh agrees with a fresh one
        derived = result.spectrum
        assert np.allclose(derived.eigenvalues, after.eigenvalues, rtol=0,
                           atol=1e-12 * after.lambda_max)
        assert derived.eigenvectors is before.eigenvectors
        # the raw cutoff, divided: the derived spectrum splits at the raw kernel_dim
        assert derived.threshold == before.threshold / result.scale
        assert kernel_dim(derived) == kernel_dim(before) == kernel_dim(after)


def test_normalize_zero_operator_flagged():
    result = normalize_spectrum(diag_operator([0.0, 0.0]), spectrum_of([0.0, 0.0]))
    assert result.was_zero
    assert result.scale == 1.0
    assert result.spectrum.eigenvalues.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# Interleaving
# ---------------------------------------------------------------------------


def test_interleaving_self_is_zero():
    s = eigendecompose(laplacian(trivial_bundle(8), 0))
    result = interleaving_shift(s, s)
    assert result.eta == 0.0
    assert result.mode == "subspace"


def test_interleaving_shift_by_s_exact():
    # dyadic spectrum keeps the shifted eigenvalues exactly representable
    s = spectrum_of([0.0, 0.25, 0.75, 1.5, 2.0])
    shift = 0.5
    shifted = Spectrum(s.eigenvalues + shift, s.eigenvectors, s.threshold)
    assert interleaving_shift(s, shifted).eta == shift
    assert interleaving_shift(shifted, s).eta == shift


def test_interleaving_symmetric_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(3, 7))
        q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
        q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
        a = SheafLaplacian(q1 @ np.diag(np.sort(rng.uniform(0, 3, d))) @ q1.T, 0)
        b = SheafLaplacian(q2 @ np.diag(np.sort(rng.uniform(0, 3, d))) @ q2.T, 0)
        sa, sb = eigendecompose(a), eigendecompose(b)
        assert interleaving_shift(sa, sb).eta == interleaving_shift(sb, sa).eta


def test_interleaving_profile_mode_brute_force():
    # oracle: brute force over candidate shifts on the dimension profiles
    s_t = eigendecompose(laplacian(trivial_bundle(10), 0))
    s_m = eigendecompose(laplacian(mobius_bundle(10), 0))
    result = interleaving_shift(s_t, s_m, mode="dimension-profile")
    ev_a, ev_b = np.sort(s_t.eigenvalues), np.sort(s_m.eigenvalues)

    def dominates(x, y, eta):
        # profile of x at delta never exceeds profile of y at delta + eta
        return all(y[k] <= x[k] + eta + 1e-12 for k in range(len(x)))

    candidates = sorted({0.0} | {abs(float(a - b)) for a in ev_a for b in ev_b})
    brute = next(c for c in candidates if dominates(ev_a, ev_b, c) and dominates(ev_b, ev_a, c))
    assert abs(result.eta - brute) < 1e-12
    assert result.mode == "dimension-profile"


def test_interleaving_profile_infinite_for_unequal_dims():
    a = spectrum_of([0.0, 1.0])
    b = spectrum_of([0.0, 1.0, 2.0])
    assert interleaving_shift(a, b).eta == math.inf


# ---------------------------------------------------------------------------
# Cone reduction
# ---------------------------------------------------------------------------


def test_cone_reduction_identical_sides():
    sheaf = trivial_bundle(8, 2)
    side = cone_reduction_side(algebraic_cone(sheaf, grounding_from_padding(sheaf)))
    report = verify_cone_reduction(side, side)
    assert report.status == "pass"
    assert report.eta == 0.0
    assert report.v_bound == 0.0
    assert report.measured == 0.0


def _side(base_f, gram_f, base_w, gram_w):
    """A side of four blocks, its base eigenvalues by ``eigvalsh`` as the
    synthetic side reads them."""
    return ConeReductionSide.from_blocks(
        base_f, gram_f, base_w, gram_w, 0.0,
        lambda: (np.linalg.eigvalsh(base_f), np.linalg.eigvalsh(base_w)))


def test_cone_reduction_decomposes_each_block_once(monkeypatch):
    sheaf = trivial_bundle(8, 2)
    cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
    solved = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(m) or original(m))
    side = cone_reduction_side(cone)
    # gram_f, gram_w and the two cone blocks; L_1(F) and L_0(W) are read
    # from the spectra their sheaves keep
    assert len(solved) == 4
    report = verify_cone_reduction(side, side)
    assert verify_cone_reduction(side, side) == report
    assert len(solved) == 4
    eps0, eps1 = cone.eps[0], cone.eps[1]
    blocks = np.sort(np.concatenate([
        original(laplacian(sheaf, 1).matrix + eps1.T @ eps1),
        original(laplacian(cone.w_sheaf, 0).matrix + eps0 @ eps0.T)]))
    assert side.spectra["cone"].tobytes() == blocks.tobytes()
    # a synthetic side decomposes its two bases as well
    synthetic = synthetic_commuting_side(0)
    assert len(solved) == 10
    # a hypothesis that fails computes no spectrum
    noise = np.random.default_rng(5).normal(size=(6, 6))
    broken = ConeReductionSide.from_blocks(
        np.diag(synthetic.spectra["base_f"]), noise + noise.T,
        np.diag(synthetic.spectra["base_w"]), np.diag(synthetic.spectra["gram_w"]), 0.0,
        lambda: pytest.fail("a side whose hypothesis fails read its base eigenvalues"))
    assert broken.spectra is None
    assert verify_cone_reduction(synthetic, broken).status == "hypothesis-not-met"
    assert len(solved) == 10


def test_cone_reduction_forms_each_commutator_once(monkeypatch):
    import sheafgauge.spectral as spectral

    sheaf = trivial_bundle(8, 2)
    cone = algebraic_cone(sheaf, grounding_from_padding(sheaf))
    formed = []
    original = spectral._max_abs
    monkeypatch.setattr(spectral, "_max_abs", lambda m: formed.append(m) or original(m))
    side = cone_reduction_side(cone)
    # the intertwining residual and the two commutators
    assert len(formed) == 3
    report = verify_cone_reduction(side, side)
    assert len(formed) == 3
    eps0, eps1 = cone.eps[0], cone.eps[1]
    base_f, gram_f = laplacian(sheaf, 1).matrix, eps1.T @ eps1
    base_w, gram_w = laplacian(cone.w_sheaf, 0).matrix, eps0 @ eps0.T
    c_f = base_f @ gram_f - gram_f @ base_f
    c_w = base_w @ gram_w - gram_w @ base_w
    assert (side.residuals["commutator_f"], side.residuals["commutator_w"]) == \
        (float(np.max(np.abs(c_f))), float(np.max(np.abs(c_w))))
    for side_name in ("a", "b"):
        assert {name: report.residuals[f"{name}_{side_name}"] for name in side.residuals} \
            == side.residuals


def test_cone_reduction_equal_gramians_theta_zero():
    a = synthetic_commuting_side(0)
    rng = np.random.default_rng(99)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    b_base_f = q @ np.diag(a.spectra["base_f"] + 0.05) @ q.T
    # share eigenvectors with the new base so the commutator stays zero
    b_gram_f = q @ np.diag(a.spectra["gram_f"]) @ q.T
    b = _side(b_base_f, b_gram_f, np.diag(a.spectra["base_w"]), np.diag(a.spectra["gram_w"]))
    report = verify_cone_reduction(a, b)
    assert report.status == "pass"
    assert report.theta < 1e-10
    assert report.measured <= report.eta + report.theta + 1e-8


def test_cone_reduction_twenty_commuting_seeds():
    for seed in range(20):
        a = synthetic_commuting_side(2 * seed)
        b = synthetic_commuting_side(2 * seed + 1)
        report = verify_cone_reduction(a, b)
        assert report.status == "pass"
        assert report.bound_v_holds
        assert report.bound_theta_holds
        assert report.theta <= report.v_bound + 1e-12


def test_cone_reduction_hypothesis_violation():
    a = synthetic_commuting_side(0)
    rng = np.random.default_rng(5)
    noise = rng.normal(size=(6, 6))
    broken = _side(np.diag(a.spectra["base_f"]),
                   np.diag(a.spectra["gram_f"]) + 0.1 * (noise + noise.T),
                   np.diag(a.spectra["base_w"]), np.diag(a.spectra["gram_w"]))
    assert broken.residuals["commutator_f"] > 1e-8
    assert broken.spectra is None
    report = verify_cone_reduction(a, broken)
    assert report.status == "hypothesis-not-met"
    assert report.eta is None

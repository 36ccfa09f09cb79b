"""The values-only spectrum, ``decompose(lap, vectors=False)``, against the
full ``eigh`` path as its oracle: the same checks, kernel dimensions and
eigenvalues to rounding, no eigenvector to read, and the experiments that
take it unchanged to rounding."""

import dataclasses

import numpy as np
import pytest

from sheafgauge import diagnostics, operators
from sheafgauge.complexes import Graph
from sheafgauge.operators import (
    AsymmetricOperatorError,
    PsdViolationError,
    SheafLaplacian,
    decompose,
    kernel_dim,
    laplacian,
)
from sheafgauge.sheaves import (
    build_sheaf_from_features,
    hidden_twist_bundle,
    mobius_bundle,
    noisy_trivial_bundle,
    trivial_bundle,
)
from sheafgauge.spectral import (
    WitnessConfig,
    _degree_modes,
    global_witness,
    harmonic_space,
    indicator_profile,
    interleaving_shift,
    normalize_spectrum,
    spectral_gap,
)

EPS = np.finfo(float).eps
NO_VECTORS = "the spectrum has no eigenvectors"


def _generators(n):
    yield f"trivial-{n}", trivial_bundle(n)
    yield f"mobius-{n}", mobius_bundle(n)
    yield f"hidden-twist-{n}", hidden_twist_bundle(n, 0.3)
    for seed in range(5):
        yield f"noisy-trivial-{n}-{seed}", noisy_trivial_bundle(n, 0.25, seed)


def _feature_sheaf(seed):
    """A seeded G(30, 0.2) graph with noisy rank-3 features in R^6."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    features = {v: basis + 0.05 * rng.normal(size=(6, 3)) for v in range(30)}
    upper = np.triu_indices(30, 1)
    keep = rng.random(upper[0].size) < 0.2
    edges = [(int(u), int(v)) for u, v in zip(upper[0][keep], upper[1][keep])]
    return build_sheaf_from_features(Graph(30, edges), features)


def _operators():
    sheaves = [*_generators(10), *_generators(50),
               *((f"features-{seed}", _feature_sheaf(seed)) for seed in (0, 1))]
    return [pytest.param(sheaf, j, id=f"{name}-L{j}") for name, sheaf in sheaves for j in (0, 1)]


OPERATORS = _operators()


@pytest.mark.parametrize("sheaf, j", OPERATORS)
def test_values_only_spectrum_matches_the_full_one(sheaf, j):
    lap = laplacian(sheaf, j)
    full, values = decompose(lap), decompose(lap, vectors=False)
    assert kernel_dim(values) == kernel_dim(full)
    assert values.eigenvectors is None
    assert not values.eigenvalues.flags.writeable
    assert values.threshold == operators.zero_threshold(values.lambda_max)
    # the two LAPACK drivers agree to a few eps lambda_max, a spread that grows
    # as sqrt(n): 5.5 at n = 100, 15 on a feature L1 of n = 249
    scale = max(10.0, 2.0 * np.sqrt(lap.dim))
    assert np.max(np.abs(values.eigenvalues - full.eigenvalues)) <= scale * EPS * full.lambda_max
    # the readers of eigenvalues alone take it as they take the full spectrum
    assert spectral_gap(values) == pytest.approx(spectral_gap(full), rel=1e-10, abs=1e-14)
    normalized = normalize_spectrum(lap, values)
    assert normalized.spectrum.eigenvectors is None
    grid = [0.0, 1e-3, 1e-1, 1.0]
    assert indicator_profile(values, grid) == indicator_profile(full, grid)


@pytest.mark.parametrize("sheaf, j", OPERATORS[:4] + OPERATORS[-2:])
def test_reading_vectors_of_a_values_only_spectrum_is_named(sheaf, j):
    values = decompose(laplacian(sheaf, j), vectors=False)
    full = decompose(laplacian(sheaf, j))
    readers = [
        lambda: values.vectors(),
        lambda: values.kernel,
        lambda: harmonic_space(values, 0.0),
        lambda: _degree_modes(WitnessConfig(), values),
        lambda: interleaving_shift(values, full),
        lambda: interleaving_shift(full, values, mode="subspace"),
    ]
    for read in readers:
        with pytest.raises(ValueError, match=NO_VECTORS):
            read()
    # a profile interleaving reads eigenvalues alone
    assert interleaving_shift(values, full, mode="dimension-profile").certified


def test_values_only_empty_operator():
    values = decompose(SheafLaplacian(np.zeros((0, 0)), 1), vectors=False)
    assert values.dim == 0 and kernel_dim(values) == 0 and values.eigenvectors is None
    assert spectral_gap(values) == float("inf")
    assert global_witness(values, WitnessConfig(delta1=1.0)) == 0.0


@pytest.mark.parametrize("vectors", [True, False])
def test_empty_operator_on_both_paths(vectors):
    # eigh and eigvalsh return empty results for a 0 x 0 matrix themselves
    spectrum = decompose(SheafLaplacian(np.zeros((0, 0)), 1), vectors=vectors)
    assert spectrum.eigenvalues.shape == (0,) and spectrum.threshold == operators.ZERO_ABS
    if vectors:
        assert spectrum.vectors().shape == (0, 0)
    else:
        assert spectrum.eigenvectors is None


@pytest.mark.parametrize("vectors", [True, False])
def test_kernel_rows_read_zero_on_both_paths(monkeypatch, vectors):
    # a kernel's smallest eigenvalue is rounding, which eigh and eigvalsh
    # round differently: every row reports it as 0.0
    monkeypatch.setattr(diagnostics, "decompose",
                        lambda lap, vectors=True, route=vectors: decompose(lap, vectors=route))
    existence = diagnostics.experiment_existence(50)
    assert existence.rows[0]["kernel_dim"] == 1 and existence.rows[0]["lambda_min"] == 0.0
    assert existence.rows[1]["kernel_dim"] == 0 and existence.rows[1]["lambda_min"] > 0.0
    relativity = diagnostics.experiment_relativity(50)
    assert relativity.rows[1]["kernel_dim_relative"] >= 1
    assert relativity.rows[1]["lambda_min_relative"] == 0.0


@pytest.mark.parametrize("vectors", [True, False])
def test_both_paths_raise_the_same_operator_errors(vectors):
    asymmetric = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(AsymmetricOperatorError, match="not symmetric"):
        decompose(SheafLaplacian(asymmetric, 0), vectors=vectors)
    indefinite = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(PsdViolationError, match="negative eigenvalue -1.000e\\+00"):
        decompose(SheafLaplacian(indefinite, 0), vectors=vectors)


def _eigh_route(monkeypatch):
    """Make the experiments decompose with eigenvectors, as before the
    values-only path: the oracle of their rows."""
    monkeypatch.setattr(diagnostics, "decompose", lambda lap, vectors=True: decompose(lap))


def _assert_rows_agree(rows, oracle_rows):
    # kernel eigenvalues are rounding noise: they agree to 10 eps lambda_max,
    # with lambda_max <= 4 on every fixture here
    assert len(rows) == len(oracle_rows)
    for row, expected in zip(rows, oracle_rows):
        assert row.keys() == expected.keys()
        for key, value in row.items():
            if isinstance(value, float):
                assert value == pytest.approx(expected[key], rel=1e-10, abs=40 * EPS), key
            else:
                assert value == expected[key], key


@pytest.mark.parametrize("run", [
    lambda: diagnostics.experiment_magnitude(n=50, seed=40),
    lambda: diagnostics.experiment_existence(50),
    lambda: diagnostics.experiment_existence(12, stalk_dim=2),
    lambda: diagnostics.experiment_relativity(50),
    lambda: diagnostics.experiment_relativity(12, stalk_dim=3),
], ids=["magnitude", "existence", "existence-stalk-2", "relativity", "relativity-stalk-3"])
def test_experiments_match_the_eigh_route(monkeypatch, run):
    result = run()
    with monkeypatch.context() as patch:
        _eigh_route(patch)
        oracle = run()
    assert dataclasses.replace(result, rows=()) == dataclasses.replace(oracle, rows=())
    _assert_rows_agree(result.rows, oracle.rows)


def test_experiments_decompose_eigenvalues_only(monkeypatch):
    # magnitude sends its twist and every seed's L0 through eigvalsh; the
    # relativity experiment's one eigh call is the deficient grounding's L1
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def call(m):
            calls[name] += 1
            return original(m)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    diagnostics.experiment_magnitude(n=12, num_seeds=4)
    assert calls == {"eigh": 0, "eigvalsh": 5}
    diagnostics.experiment_existence(12)
    assert calls == {"eigh": 0, "eigvalsh": 7}
    diagnostics.experiment_relativity(12)
    assert calls == {"eigh": 1, "eigvalsh": 9}

"""The values-only spectrum, ``decompose(lap, vectors=False)``, against the
full ``eigh`` path as its oracle: the same checks, kernel dimensions and
eigenvalues to rounding, no eigenvector to read, and the experiments that
take it unchanged to rounding."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import sheafgauge
from conftest import count_solvers, feature_sheaf
from sheafgauge import diagnostics, operators
from sheafgauge.complexes import build_clique_complex, complete_graph
from sheafgauge.operators import (
    AsymmetricOperatorError,
    GroundingMorphism,
    PsdViolationError,
    SheafLaplacian,
    algebraic_cone,
    coboundary,
    decompose,
    grounding_from_padding,
    kernel_dim,
    laplacian,
    verify_block_decomposition,
)
from sheafgauge.sheaves import (
    constant_sheaf,
    hidden_twist_bundle,
    mobius_bundle,
    noisy_trivial_bundle,
    trivial_bundle,
)
from sheafgauge.spectral import (
    ConeReductionSide,
    WitnessConfig,
    _degree_modes,
    cone_reduction_side,
    global_witness,
    harmonic_space,
    indicator_profile,
    interleaving_shift,
    normalize_spectrum,
    spectral_gap,
    synthetic_commuting_side,
)

EPS = np.finfo(float).eps
NO_VECTORS = "the spectrum has no eigenvectors"


def _generators(n):
    yield f"trivial-{n}", trivial_bundle(n)
    yield f"mobius-{n}", mobius_bundle(n)
    yield f"hidden-twist-{n}", hidden_twist_bundle(n, 0.3)
    for seed in range(5):
        yield f"noisy-trivial-{n}-{seed}", noisy_trivial_bundle(n, 0.25, seed)


def _operators():
    sheaves = [*_generators(10), *_generators(50),
               *((f"features-{seed}", feature_sheaf(seed)) for seed in (0, 1))]
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
    # relativity experiment's one decomposition with eigenvectors is the
    # deficient grounding's L1, factored through the bundled LAPACK
    calls, _ = count_solvers(monkeypatch)
    none = dict.fromkeys(calls, 0)
    diagnostics.experiment_magnitude(n=12, num_seeds=4)
    assert calls == {**none, "eigvalsh": 5}
    diagnostics.experiment_existence(12)
    assert calls == {**none, "eigvalsh": 7}
    diagnostics.experiment_relativity(12)
    assert calls == {**none, "dsytrd": 1, "eigvalsh": 9}


def _solver_scopes(node, scope, solvers):
    """The enclosing function, qualified by its classes and functions, of
    every reference to one of ``solvers`` under ``node``: an attribute such
    as ``np.linalg.eigh``, an imported or a loaded name, or a string naming
    a LAPACK routine."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and child.attr in solvers
                or isinstance(child, ast.alias) and child.name.split(".")[-1] in solvers
                or isinstance(child, ast.Name) and child.id in solvers
                or isinstance(child, ast.Constant) and child.value in solvers):
            yield scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        yield from _solver_scopes(child, inner, solvers)


def test_only_decompose_and_the_triangle_bases_reach_the_eigensolvers():
    # every operator spectrum goes through decompose's checks; the feature
    # pipeline's stacked per-cell eigh is the one other caller. The one
    # factorization is the certificate of an empty cone kernel. Only those
    # two load the bundled LAPACK, and the overlap decision, which reads the
    # library's thread count: the stages of eigh run in the factored basis
    # that decompose builds, dpotrf in the certificate, and the loader names
    # every routine it binds.
    package = Path(sheafgauge.__file__).parent
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]

    def scopes(*solvers):
        return {(name, scope) for name, tree in trees
                for scope in _solver_scopes(tree, "<module>", solvers)}

    assert scopes("eigh", "eigvalsh") == {("operators.py", "decompose"),
                                          ("sheaves.py", "_triangle_bases")}
    assert scopes("cholesky") == {("operators.py", "_proves_empty_kernel")}
    assert scopes("_lapack") == {("operators.py", "decompose"),
                                 ("operators.py", "_proves_empty_kernel"),
                                 ("operators.py", "_overlaps")}
    assert scopes("_Eigenbasis") == {("operators.py", "decompose"),
                                     ("operators.py", "Spectrum"),
                                     ("operators.py", "Spectrum.vectors"),
                                     ("operators.py", "Spectrum.columns")}
    assert scopes("dsyevd", "dsytrd", "dstedc", "dormtr") == {
        ("operators.py", "_lapack"), ("operators.py", "_Eigenbasis.solve"),
        ("operators.py", "_Eigenbasis._back_transform")}
    assert scopes("dpotrf") == {("operators.py", "_lapack"),
                                ("operators.py", "_proves_empty_kernel")}


def test_certificate_blocks_are_decomposed_by_decompose(monkeypatch):
    seen = []
    original = operators.decompose
    monkeypatch.setattr(operators, "decompose",
                        lambda lap, vectors=True: seen.append(vectors) or original(lap, vectors))
    sheaf = trivial_bundle(8, 2)
    cone_reduction_side(algebraic_cone(sheaf, grounding_from_padding(sheaf)))
    # the four other blocks, then L_1(F) and L_0(W), kept by their sheaves
    assert seen == [False] * 4 + [True, True]
    synthetic_commuting_side(0)
    assert seen == [False] * 4 + [True, True] + [False] * 6
    k4 = constant_sheaf(build_clique_complex(complete_graph(4)), 1)
    d1 = coboundary(k4, 1).matrix
    _, _, vt = np.linalg.svd(d1)
    assert verify_block_decomposition(
        k4, GroundingMorphism(c1_matrix=vt[np.linalg.matrix_rank(d1):])).asserted
    assert seen == [False] * 4 + [True, True] + [False] * 8


def test_certificate_blocks_pass_the_symmetry_and_psd_checks():
    # commuting blocks, so the hypotheses hold and every block is decomposed
    base = np.diag([0.0, 1.0])
    with pytest.raises(PsdViolationError):
        ConeReductionSide.from_blocks(base, -np.eye(2), base, np.eye(2), 0.0,
                                      lambda: (np.zeros(2), np.zeros(2)))
    asymmetric = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(AsymmetricOperatorError):
        ConeReductionSide.from_blocks(np.eye(2), asymmetric, base, np.eye(2), 0.0,
                                      lambda: (np.ones(2), np.zeros(2)))

"""The factored spectrum of ``decompose``: numpy's ``eigh`` routine
(LAPACK ``dsyevd``) run stage by stage on the LAPACK that numpy bundles,
with the back-transform left to the readers. Its eigenvalues and its whole
basis are ``np.linalg.eigh``'s bit for bit, the columns it forms alone
agree with ``eigh``'s to rounding, and where ``dsyevd`` would take another
path, or numpy bundles no LAPACK, ``np.linalg.eigh`` gives the spectrum."""

import numpy as np
import pytest
from conftest import count_solvers, feature_sheaf
from hypothesis import given
from hypothesis import strategies as st

from sheafgauge import diagnostics, operators
from sheafgauge.operators import (
    SheafLaplacian,
    _gram_sum,
    _proves_empty_kernel,
    channel_set,
    decompose,
    kernel_dim,
    laplacian,
)
from sheafgauge.sheaves import (
    hidden_twist_bundle,
    mobius_bundle,
    noisy_trivial_bundle,
    trivial_bundle,
)

EPS = np.finfo(float).eps

#: Sizes at which LAPACK's blocking and divide-and-conquer switch paths
SWITCH_POINTS = (1, 2, 13, 14, 15, 24, 25, 26, 31, 32, 33, 60, 61, 62, 63, 64, 128, 129)

pytestmark = pytest.mark.skipif(operators._lapack() is None,
                                reason="numpy bundles no LAPACK to factor with")


@st.composite
def gram_matrices(draw):
    """An exactly symmetric PSD Gram matrix X X^T of any rank, at a switch
    point or another size, scaled by a power of ten."""
    n = draw(st.one_of(st.sampled_from(SWITCH_POINTS), st.integers(2, 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = 10.0 ** draw(st.integers(-3, 3)) * rng.normal(size=(n, draw(st.integers(0, n + 2))))
    return _gram_sum(x, np.zeros((0, n)))


def _assert_eighs(spectrum, values, vectors):
    assert spectrum.eigenvalues.tobytes() == values.tobytes()
    assert spectrum.vectors().tobytes() == vectors.tobytes()
    assert spectrum.vectors().flags.c_contiguous and not spectrum.vectors().flags.writeable


@given(gram_matrices(), st.data())
def test_the_factored_spectrum_is_eighs_bit_for_bit(m, data):
    spectrum = decompose(SheafLaplacian(m, 0))
    values, vectors = np.linalg.eigh(m)
    n = m.shape[0]
    # a 1 x 1 or zero matrix goes to np.linalg.eigh, every other one is factored
    assert isinstance(spectrum.basis, operators._Eigenbasis) == (n > 1 and m.any())
    assert spectrum.eigenvalues.tobytes() == values.tobytes()
    # columns formed alone differ from eigh's by how the GEMM kernel splits them
    for _ in range(3):
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        columns, expected = spectrum.columns(start, stop), vectors[:, start:stop]
        assert columns.shape == expected.shape and not columns.flags.writeable
        bound = 8 * EPS * np.maximum(1.0, np.linalg.norm(expected, axis=0))
        assert np.all(np.abs(columns - expected) <= bound)
    _assert_eighs(spectrum, values, vectors)
    # once formed, the whole basis serves every column
    start = data.draw(st.integers(0, n))
    assert spectrum.columns(start, n).tobytes() == vectors[:, start:].tobytes()


def _sheaves():
    yield "trivial", trivial_bundle(12)
    yield "mobius", mobius_bundle(12)
    yield "hidden-twist", hidden_twist_bundle(12, diagnostics.TAU_DEFAULT)
    yield "noisy-trivial", noisy_trivial_bundle(12, diagnostics.SIGMA_DEFAULT,
                                                diagnostics.SEED_DEFAULT)
    yield "features", feature_sheaf(0)


def _operators(sheaf):
    """L_j in every degree of the complex, and R = L_1 + eps^T eps under
    every grounding of the command line."""
    laps = [laplacian(sheaf, j) for j in sheaf.complex.degrees]
    return laps + [channel_set(sheaf, diagnostics.make_grounding(sheaf, name)).relative
                   for name in diagnostics.GROUNDING_NAMES]


@pytest.mark.parametrize("sheaf", [pytest.param(s, id=name) for name, s in _sheaves()])
def test_every_operator_spectrum_is_eighs_bit_for_bit(sheaf):
    for lap in _operators(sheaf):
        _assert_eighs(decompose(lap), *np.linalg.eigh(lap.matrix))


def test_edge_cases_and_what_dsyevd_would_rescale_go_to_eigh(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    asymmetric = _gram_sum(x, np.zeros((0, 6)))
    asymmetric[0, 1] += 1e-14  # within decompose's tolerance, not exactly symmetric
    # entries of order 1e-150 and 1e150 lie outside the range dsyevd keeps
    matrices = [np.eye(1), np.zeros((3, 3)), asymmetric,
                _gram_sum(1e-75 * x, np.zeros((0, 6))), _gram_sum(1e75 * x, np.zeros((0, 6)))]
    counts, _ = count_solvers(monkeypatch)
    for m in matrices:
        spectrum = decompose(SheafLaplacian(m, 0))
        assert isinstance(spectrum.basis, np.ndarray)
        _assert_eighs(spectrum, *np.linalg.eigh(m))
    assert counts["dsytrd"] == 0
    decompose(SheafLaplacian(_gram_sum(x, np.zeros((0, 6))), 0))
    assert counts["dsytrd"] == 1


def test_without_the_bundled_lapack_eigh_and_cholesky_give_the_same_results(monkeypatch):
    sheaf = feature_sheaf(1)
    laps = _operators(sheaf)
    factored = [decompose(lap) for lap in laps]
    x = np.random.default_rng(4).normal(size=(20, 24))
    grams = [_gram_sum(x[:, :k], np.zeros((0, 20))) for k in (24, 14)]  # rank 20 and 14
    proofs = [_proves_empty_kernel(m) for m in grams]
    assert proofs == [True, False]

    monkeypatch.setattr(operators, "_lapack", lambda: None)
    counts, _ = count_solvers(monkeypatch)
    for lap, spectrum in zip(laps, factored):
        plain = decompose(lap)
        assert isinstance(plain.basis, np.ndarray)
        assert plain.eigenvalues.tobytes() == spectrum.eigenvalues.tobytes()
        assert kernel_dim(plain) == kernel_dim(spectrum)
        assert plain.kernel.shape == spectrum.kernel.shape
        assert plain.vectors().tobytes() == spectrum.vectors().tobytes()
    for m, proved in zip(grams, proofs):
        assembled = m.tobytes()
        assert _proves_empty_kernel(m) == proved and m.tobytes() == assembled
    assert counts == {"eigh": len(laps), "dsytrd": 0, "eigvalsh": 0, "cholesky": 2, "dpotrf": 0}

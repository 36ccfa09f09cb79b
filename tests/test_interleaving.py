"""Subspace interleaving against the candidate-list bisection it replaced.

``_reference_interleaving`` re-projects onto the b-modes at every jump of a
for each probed shift, exactly as ``interleaving_shift`` did before it read
the containment residuals off one overlap matrix. Both must agree with
``==`` on eta and ``certified``.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sheafgauge.operators import SheafLaplacian, laplacian
from sheafgauge.sheaves import mobius_bundle, noisy_trivial_bundle, trivial_bundle
from sheafgauge.spectral import (
    _CONTAIN_TOL,
    _EDGE_SLACK,
    InterleavingResult,
    Spectrum,
    _contained,
    eigendecompose,
    interleaving_shift,
)


def _subspace_contained(spec_a, spec_b, eta):
    """H_delta(a) inside H_{delta+eta}(b) at every jump of a."""
    for lam in np.unique(spec_a.eigenvalues):
        cut_a = max(float(lam), spec_a.threshold)
        va = spec_a.eigenvectors[:, spec_a.eigenvalues <= cut_a]
        if va.shape[1] == 0:
            continue
        cut_b = max(cut_a + eta + _EDGE_SLACK, spec_b.threshold)
        qb = spec_b.eigenvectors[:, spec_b.eigenvalues <= cut_b]
        residual = va - qb @ (qb.T @ va) if qb.shape[1] else va
        if float(np.linalg.norm(residual, 2)) > _CONTAIN_TOL:
            return False
    return True


def _candidates(spec_a, spec_b):
    candidates = {0.0}
    for la in spec_a.eigenvalues:
        for lb in spec_b.eigenvalues:
            candidates.add(abs(float(la) - float(lb)))
    return sorted(candidates)


def _reference_interleaving(spec_a, spec_b):
    ordered = _candidates(spec_a, spec_b)

    def works(eta):
        return _subspace_contained(spec_a, spec_b, eta) and _subspace_contained(
            spec_b, spec_a, eta
        )

    # containment is monotone in eta: bisect over the candidate list
    lo, hi = 0, len(ordered) - 1
    if not works(ordered[hi]):
        return InterleavingResult(math.inf, "subspace", False)
    while lo < hi:
        mid = (lo + hi) // 2
        if works(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return InterleavingResult(ordered[lo], "subspace", True)


def _orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


def _spectrum(q, values):
    values = np.asarray(values, dtype=float)
    return eigendecompose(SheafLaplacian(q @ np.diag(values) @ q.T, 0))


def _dyadic(rng, d):
    """Eigenvalues on a quarter grid, so clusters are exactly degenerate."""
    return rng.integers(0, 9, size=d) / 4.0


def _permuted_eigenvalues(rng, d):
    q = _orthogonal(rng, d)
    values = _dyadic(rng, d)
    return _spectrum(q, values), _spectrum(q, rng.permutation(values))


def _shared_leading_block(rng, d):
    q = _orthogonal(rng, d)
    r = int(rng.integers(0, d + 1))
    rotated = q.copy()
    rotated[:, r:] = q[:, r:] @ _orthogonal(rng, d - r)
    values = np.sort(_dyadic(rng, d))
    return _spectrum(q, values), _spectrum(rotated, rng.permutation(values))


def _forced_kernels(rng, d):
    q = _orthogonal(rng, d)
    values = rng.uniform(0.5, 3.0, size=d)
    a_values, b_values = values.copy(), rng.permutation(values)
    a_values[: int(rng.integers(1, d + 1))] = 0.0
    b_values[rng.permutation(d)[: int(rng.integers(1, d + 1))]] = 0.0
    return _spectrum(q, a_values), _spectrum(q, b_values)


def _shifted_copy(rng, d):
    base = _spectrum(_orthogonal(rng, d), _dyadic(rng, d))
    shift = float(rng.integers(1, 5)) / 8.0
    return base, Spectrum(base.eigenvalues + shift, base.eigenvectors, base.threshold)


def _dyadic_clusters(rng, d):
    q = _orthogonal(rng, d)
    rotated = q @ np.kron(np.eye(d // 2), _orthogonal(rng, 2)) if d % 2 == 0 else q
    values = np.repeat(rng.integers(0, 5, size=(d + 1) // 2) / 2.0, 2)[:d]
    return _spectrum(q, values), _spectrum(rotated, rng.permutation(values))


def _generic_pair(rng, d):
    return (_spectrum(_orthogonal(rng, d), np.sort(rng.uniform(0, 3, d))),
            _spectrum(_orthogonal(rng, d), np.sort(rng.uniform(0, 3, d))))


FAMILIES = (_permuted_eigenvalues, _shared_leading_block, _forced_kernels, _shifted_copy,
            _dyadic_clusters, _generic_pair)


def _assert_matches_reference(a, b):
    for x, y in ((a, b), (b, a)):
        result = interleaving_shift(x, y, mode="subspace")
        expected = _reference_interleaving(x, y)
        assert result == expected
        assert type(result.eta) is float


def test_matches_reference_on_seeded_families():
    rng = np.random.default_rng(2026)
    decided_by_containment = 0
    for family in FAMILIES:
        for d in (2, 3, 5, 8, 13, 21, 40):
            a, b = family(rng, d)
            _assert_matches_reference(a, b)
            eta = interleaving_shift(a, b).eta
            decided_by_containment += eta < max(a.lambda_max, b.lambda_max)
    # most pairs are not settled by the range of the spectra alone
    assert decided_by_containment >= 30


def test_matches_reference_on_cycle_bundles():
    for n in (6, 20):
        spectra = [eigendecompose(laplacian(sheaf, 0)) for sheaf in (
            trivial_bundle(n, 2), mobius_bundle(n, 2),
            noisy_trivial_bundle(n, 0.05, 1), noisy_trivial_bundle(n, 0.3, 2),
        )]
        for i, a in enumerate(spectra):
            for b in spectra[i:]:
                _assert_matches_reference(a, b)


def test_matches_reference_on_dimension_zero_and_one():
    empty = Spectrum(np.zeros(0), np.zeros((0, 0)), 1e-10)
    assert interleaving_shift(empty, empty) == InterleavingResult(0.0, "subspace", True)
    _assert_matches_reference(empty, empty)
    for x, y in ((0.0, 0.0), (0.0, 1.5), (2.0, 0.25)):
        _assert_matches_reference(_spectrum(np.eye(1), [x]), _spectrum(np.eye(1), [y]))


def test_containment_sets_eta_below_the_spectral_range():
    # one eigenbasis: a = diag(0, 1, 2), b = diag(0, 2, 1). H_1(a) needs the
    # third basis vector, which enters b at 2, so eta = 1 while both spectra
    # span [0, 2].
    a = _spectrum(np.eye(3), [0.0, 1.0, 2.0])
    b = _spectrum(np.eye(3), [0.0, 2.0, 1.0])
    assert interleaving_shift(a, b).eta == 1.0
    assert interleaving_shift(b, a).eta == 1.0


def test_uncertified_when_rounding_leaves_the_largest_gap_short():
    # b's modes both lean at 45 degrees to a's, so every jump needs all of b.
    # The largest gap 1000000.1 - 131666.7 added back to 131666.7 rounds
    # below 1000000.1 by more than _EDGE_SLACK: no candidate reaches it.
    r = math.sqrt(0.5)
    a = Spectrum(np.array([131666.7, 500000.0]), np.eye(2), 1e-10)
    b = Spectrum(np.array([300000.0, 1000000.1]), np.array([[r, -r], [r, r]]), 1e-10)
    assert interleaving_shift(a, b) == InterleavingResult(math.inf, "subspace", False)
    _assert_matches_reference(a, b)


# ---------------------------------------------------------------------------
# Properties on random shared-basis pairs
# ---------------------------------------------------------------------------

_QUARTERS = st.integers(0, 12).map(lambda k: k / 4.0)


@st.composite
def shared_basis_pairs(draw):
    d = draw(st.integers(1, 8))
    a_values = draw(st.lists(_QUARTERS, min_size=d, max_size=d))
    b_values = draw(st.lists(_QUARTERS, min_size=d, max_size=d))
    q = _orthogonal(np.random.default_rng(draw(st.integers(0, 2**16))), d)
    return _spectrum(q, a_values), _spectrum(q, b_values)


@given(shared_basis_pairs())
def test_interleaving_properties_on_shared_bases(pair):
    a, b = pair
    result = interleaving_shift(a, b)
    assert result == interleaving_shift(b, a)
    assert interleaving_shift(a, a).eta == 0.0
    assert result == _reference_interleaving(a, b)
    assert result.eta in _candidates(a, b)


# ---------------------------------------------------------------------------
# The exact norm behind the cheap bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("second, inside", [((0.0, 0.8), True), ((0.8, 0.0), False)],
                         ids=["orthogonal", "parallel"])
def test_contained_settles_between_the_bounds_by_the_exact_norm(monkeypatch, second, inside):
    # rows 1-2 of both columns have norm 0.8 tol: the widest column is within
    # tol and the Frobenius norm is not, so only the exact 2-norm decides,
    # 0.8 tol for orthogonal columns and 0.8 sqrt(2) tol = 1.13 tol for parallel ones
    overlap = np.zeros((3, 2))
    overlap[1:, 0] = (0.8 * _CONTAIN_TOL, 0.0)
    overlap[1:, 1] = np.array(second) * _CONTAIN_TOL
    tail = np.cumsum((overlap * overlap)[::-1], axis=0)[::-1]
    widest, total = np.maximum.accumulate(tail, axis=1), np.cumsum(tail, axis=1)
    assert widest[1, 1] <= _CONTAIN_TOL**2 < total[1, 1]
    norms = []

    def norm(m, *args, norm=np.linalg.norm):
        norms.append(args)
        return norm(m, *args)

    monkeypatch.setattr(np.linalg, "norm", norm)
    assert _contained(overlap, widest, total, 1, 2) is inside
    assert norms == [(2,)]

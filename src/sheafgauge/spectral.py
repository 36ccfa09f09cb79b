"""Spectra, harmonic filtrations, spectral witnesses and interleavings.

All eigendecompositions are dense symmetric. Numerically degenerate
clusters (spread below 1e-8 * lambda_max) are admitted or excluded from
witness computations as a block, so per-cell scores depend only on spectral
projectors and not on the arbitrary basis inside a degenerate eigenspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    ChannelSet,
    GroundingMorphism,
    SheafLaplacian,
    channel_set,
    coboundary,
    laplacian,
    zero_threshold,
)
from .sheaves import CellSheaf, constant_sheaf

ZERO_PSD_REL = 1e-8

#: Cone reduction: largest intertwining or commutator residual for which
#: the hypotheses hold, and the slack allowed in the two bounds.
COMMUTATION_TOL = 1e-8
BOUND_SLACK = 1e-8


class AsymmetricOperatorError(ValueError):
    pass


class PsdViolationError(ValueError):
    pass


@dataclass(frozen=True)
class Spectrum:
    """Full ascending eigensystem of a PSD operator plus its zero cutoff."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    threshold: float
    provenance: str = "base"

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self):
        return float(self.eigenvalues[-1]) if self.dim else 0.0


def eigendecompose(lap: SheafLaplacian) -> Spectrum:
    m = lap.matrix
    if m.size:
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
            raise AsymmetricOperatorError("operator is not symmetric within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(m) if m.size else (np.zeros(0), np.zeros((0, 0)))
    lam_max = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    if eigenvalues.size and eigenvalues[0] < -ZERO_PSD_REL * max(lam_max, 1.0):
        raise PsdViolationError(f"negative eigenvalue {eigenvalues[0]:.3e}")
    return Spectrum(eigenvalues, eigenvectors, zero_threshold(lam_max), lap.provenance)


def kernel_dim(spectrum: Spectrum) -> int:
    return int(np.count_nonzero(spectrum.eigenvalues <= spectrum.threshold))


def spectral_gap(spectrum: Spectrum) -> float:
    """Smallest eigenvalue above the zero cutoff; +inf if none."""
    positive = spectrum.eigenvalues[spectrum.eigenvalues > spectrum.threshold]
    return float(positive[0]) if positive.size else math.inf


def harmonic_space(spectrum: Spectrum, delta: float) -> np.ndarray:
    """Basis of span{v : lambda <= delta}; at delta = 0 the numerical kernel."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    cut = max(delta, spectrum.threshold)
    return spectrum.eigenvectors[:, spectrum.eigenvalues <= cut]


def _harmonic_dims(spectrum: Spectrum, deltas) -> np.ndarray:
    """dim H_delta for each delta, counted on the ascending eigenvalues alone."""
    deltas = np.asarray(deltas, dtype=float)
    if np.any(deltas < 0):
        raise ValueError("delta must be non-negative")
    cuts = np.maximum(deltas, spectrum.threshold)
    return np.searchsorted(spectrum.eigenvalues, cuts, side="right")


def is_almost_non_exact(spectrum: Spectrum, probe_delta: float) -> bool:
    """Trivial kernel, yet nonzero delta-harmonic space at the probe."""
    if probe_delta <= 0:
        raise ValueError("probe_delta must be positive")
    if kernel_dim(spectrum) > 0:
        return False
    return bool(_harmonic_dims(spectrum, probe_delta) > 0)


def indicator_profile(spectrum: Spectrum, grid) -> list[int]:
    """dim H_delta over an ascending grid of thresholds."""
    grid = list(grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be ascending")
    return _harmonic_dims(spectrum, grid).tolist()


class HarmonicFiltration:
    """delta -> span{v : lambda <= delta}, a right-continuous step function."""

    def __init__(self, spectrum: Spectrum):
        self.spectrum = spectrum

    def dim_at(self, delta: float) -> int:
        return int(_harmonic_dims(self.spectrum, delta))

    def basis_at(self, delta: float) -> np.ndarray:
        return harmonic_space(self.spectrum, delta)

    @property
    def jumps(self) -> np.ndarray:
        return np.unique(self.spectrum.eigenvalues)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

WEIGHTS = ("uniform", "inverse", "heat", "gap")


@dataclass(frozen=True)
class WitnessConfig:
    delta0: float = 0.0
    delta1: float | None = None  # None: 2 * spectral gap of the operator at hand
    weight: str = "gap"
    heat_t: float = 1.0

    def __post_init__(self):
        if self.weight not in WEIGHTS:
            raise ValueError(f"weight must be one of {WEIGHTS}")
        if self.delta0 < 0:
            raise ValueError("delta0 must be non-negative")
        if self.heat_t <= 0:
            raise ValueError("heat time must be positive")

    def resolve_delta1(self, spectrum: Spectrum) -> float:
        if self.delta1 is not None:
            if self.delta0 >= self.delta1:
                raise ValueError("need delta0 < delta1")
            return self.delta1
        gap = spectral_gap(spectrum)
        delta1 = 2.0 * gap if math.isfinite(gap) else self.delta0 + 1.0
        if self.delta0 >= delta1:
            raise ValueError("need delta0 < delta1")
        return delta1

    def weight_value(self, lam: float) -> float:
        if self.weight == "uniform":
            return 1.0
        if self.weight == "inverse":
            return 1.0 / lam
        if self.weight == "heat":
            return math.exp(-self.heat_t * lam)
        raise ValueError("gap weight has no per-eigenvalue value")


def global_witness(spectrum: Spectrum, cfg: WitnessConfig) -> float:
    """Integrated low-lying spectral mass over the slack interval (delta0, delta1].

    Sum over strictly positive eigenvalues lambda <= delta1 of
    (delta1 - max(delta0, lambda)) * w(lambda). The gap weight keeps only the
    single smallest positive eigenvalue, recovering the gap-based witness.
    """
    delta1 = cfg.resolve_delta1(spectrum)
    if cfg.weight == "gap":
        lam = spectral_gap(spectrum)
        if lam > delta1:
            return 0.0
        return delta1 - max(cfg.delta0, lam)
    total = 0.0
    for lam in spectrum.eigenvalues:
        lam = float(lam)
        if lam <= spectrum.threshold or lam > delta1:
            continue
        total += (delta1 - max(cfg.delta0, lam)) * cfg.weight_value(lam)
    return total


def _clusters(eigenvalues: np.ndarray, lam_max: float):
    """Index arrays of the numerically degenerate clusters of ascending eigenvalues."""
    if eigenvalues.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(eigenvalues) >= 1e-8 * max(lam_max, 1.0)) + 1
    return np.split(np.arange(eigenvalues.size), breaks)


def _admitted_modes(spectrum: Spectrum, delta: float, cfg: WitnessConfig):
    """Indices and weights of the modes admitted at threshold delta, kernel excluded.

    Clusters enter or leave as a block: a cluster is kernel iff its smallest
    member is, and admitted iff its smallest member is <= delta. The gap
    weight admits the first positive cluster only, with unit weights.
    """
    ev = spectrum.eigenvalues
    positive = [c for c in _clusters(ev, spectrum.lambda_max) if ev[c[0]] > spectrum.threshold]
    admitted = []
    for cluster in positive[:1] if cfg.weight == "gap" else positive:
        if ev[cluster[0]] > delta:
            break
        admitted.extend(cluster.tolist())
    weights = [1.0 if cfg.weight == "gap" else cfg.weight_value(float(ev[i])) for i in admitted]
    return admitted, weights


@dataclass(frozen=True)
class LocalWitnessMap:
    degree: int
    delta: float
    channel: str
    scores: dict

    def argmax(self):
        if not self.scores or all(v == 0.0 for v in self.scores.values()):
            return None
        return max(self.scores, key=lambda c: self.scores[c])

    def as_array(self) -> np.ndarray:
        return np.array(list(self.scores.values()))


def _block_energy(sheaf: CellSheaf, j: int, image: np.ndarray, weights: np.ndarray):
    """Weighted squared norm of each degree-j cell block of the rows of ``image``.

    Rows are summed by owning cell, so a zero-dimensional stalk scores 0.
    """
    sizes = [sheaf.stalk_dim(cell) for cell in sheaf.complex.cells(j)]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return np.bincount(owner, weights=(image**2) @ weights, minlength=len(sizes))


def _incidence_index(sheaf: CellSheaf, j: int):
    """Index arrays (coface, face) over the incidences of degree j + 1 on degree j."""
    face_index = {cell: i for i, cell in enumerate(sheaf.complex.cells(j))}
    pairs = [(k, face_index[face])
             for k, coface in enumerate(sheaf.complex.cells(j + 1))
             for face in sheaf.complex.faces(coface)]
    return np.array(pairs, dtype=int).reshape(-1, 2).T


def _witness_scores(sheaf: CellSheaf, j: int, vectors: np.ndarray, weights: np.ndarray,
                    eps: np.ndarray | None = None) -> dict:
    """Per-cell witness scores of the weighted mode columns in degree j.

    Every cell receives the block energy of d_j V at each of its cofaces and
    of d_{j-1}^T V at each of its faces; with ``eps``, each cell also
    receives the energy of its own column block of eps.
    """
    cells = sheaf.complex.cells(j)
    scores = np.zeros(len(cells))
    if j <= 1:
        energy = _block_energy(sheaf, j + 1, coboundary(sheaf, j).matrix @ vectors, weights)
        coface, face = _incidence_index(sheaf, j)
        scores += np.bincount(face, weights=energy[coface], minlength=len(cells))
    if j >= 1:
        energy = _block_energy(sheaf, j - 1, coboundary(sheaf, j - 1).matrix.T @ vectors, weights)
        cell, face = _incidence_index(sheaf, j - 1)
        scores += np.bincount(cell, weights=energy[face], minlength=len(cells))
    if eps is not None:
        # every column block of eps spans all rows of W: one product per cell
        for k, block in enumerate(sheaf.cell_slices(j).values()):
            scores[k] += float(np.sum((eps[:, block] @ vectors[block]) ** 2, axis=0) @ weights)
    return dict(zip(cells, scores.tolist()))


def _degree_modes(sheaf, j, cfg, operator, spectrum):
    """Operator, delta1, admitted eigenvector columns V and their weights w;
    the degree-j Laplacian and its spectrum are built when not given."""
    cfg = cfg or WitnessConfig()
    operator = operator if operator is not None else laplacian(sheaf, j)
    spectrum = spectrum if spectrum is not None else eigendecompose(operator)
    delta = cfg.resolve_delta1(spectrum)
    indices, weights = _admitted_modes(spectrum, delta, cfg)
    return operator, delta, spectrum.eigenvectors[:, indices], np.array(weights, dtype=float)


def local_witness(sheaf: CellSheaf, j: int, cfg: WitnessConfig | None = None,
                  operator: SheafLaplacian | None = None,
                  spectrum: Spectrum | None = None) -> LocalWitnessMap:
    """Per-cell attribution of admitted low-energy mode energy in degree j.

    Each admitted eigenvector v contributes, to every cell e of degree j,
    the full squared component of d_j v at each coface of e plus the full
    squared component of d_{j-1}^T v at each face of e.
    """
    operator, delta, vectors, weights = _degree_modes(sheaf, j, cfg, operator, spectrum)
    scores = _witness_scores(sheaf, j, vectors, weights)
    return LocalWitnessMap(j, delta, operator.provenance, scores)


def coface_energy_map(sheaf: CellSheaf, j: int, cfg: WitnessConfig | None = None,
                      operator: SheafLaplacian | None = None,
                      spectrum: Spectrum | None = None) -> LocalWitnessMap:
    """Per-coface energy of the admitted degree-j modes, before aggregation.

    The degree-j witness attributes ||(d_j v)[c]||^2 to every face of c;
    this map reports the components on the (j+1)-cells themselves. For
    j = 0 it localizes inconsistency to edges, which the vertex-level
    witness then aggregates to nodes.
    """
    _, delta, vectors, weights = _degree_modes(sheaf, j, cfg, operator, spectrum)
    energy = _block_energy(sheaf, j + 1, coboundary(sheaf, j).matrix @ vectors, weights)
    scores = dict(zip(sheaf.complex.cells(j + 1), energy.tolist()))
    return LocalWitnessMap(j + 1, delta, "coface-energy", scores)


def local_witness_relative(sheaf: CellSheaf, grounding: GroundingMorphism,
                           cfg: WitnessConfig | None = None,
                           channels: ChannelSet | None = None,
                           spectrum: Spectrum | None = None) -> LocalWitnessMap:
    """Edge-level witness of the relative cone channel L_1 + eps^T eps.

    The grounding energy of a mode decomposes over the cone triangles of the
    grounded complex, one per base edge, so each edge e additionally
    receives ||eps_e x_e||^2 from its own column block of eps. ``channels``
    and ``spectrum`` take the prebuilt channel set of (sheaf, grounding) and
    the spectrum of its relative operator.
    """
    channels = channels if channels is not None else channel_set(sheaf, grounding)
    _, delta, vectors, weights = _degree_modes(sheaf, 1, cfg, channels.relative, spectrum)
    scores = _witness_scores(sheaf, 1, vectors, weights, eps=channels.eps)
    return LocalWitnessMap(1, delta, "relative-cone", scores)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationResult:
    operator: SheafLaplacian
    scale: float
    was_zero: bool
    spectrum: Spectrum


def normalize_spectrum(lap: SheafLaplacian,
                       spectrum: Spectrum | None = None) -> NormalizationResult:
    """Rescale so trace/rank = 1; kernel, eigenvectors and ordering unchanged.

    ``spectrum``, when given, is the spectrum of ``lap``; the normalized
    spectrum is derived from it as (lambda / scale, same eigenvectors), so
    no second eigendecomposition runs. The zero operator is returned
    untouched with a flag.
    """
    if spectrum is None:
        spectrum = eigendecompose(lap)
    rank = spectrum.dim - kernel_dim(spectrum)
    if rank == 0:
        return NormalizationResult(lap, 1.0, True, spectrum)
    scale = float(np.trace(lap.matrix)) / rank
    scaled = SheafLaplacian(lap.matrix / scale, lap.degree, lap.provenance)
    eigenvalues = spectrum.eigenvalues / scale
    normalized = Spectrum(eigenvalues, spectrum.eigenvectors,
                          zero_threshold(float(eigenvalues[-1])), spectrum.provenance)
    return NormalizationResult(scaled, scale, False, normalized)


# ---------------------------------------------------------------------------
# Interleaving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterleavingResult:
    eta: float
    mode: str  # subspace | dimension-profile
    certified: bool


_CONTAIN_TOL = 1e-8
_EDGE_SLACK = 1e-12


def _subspace_contained(spec_a: Spectrum, spec_b: Spectrum, eta: float) -> bool:
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


def _profile_eta(ev_a: np.ndarray, ev_b: np.ndarray) -> float:
    if ev_a.size != ev_b.size:
        return math.inf
    if ev_a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.sort(ev_a) - np.sort(ev_b))))


def interleaving_shift(a, b, mode: str | None = None) -> InterleavingResult:
    """Minimal eta with H_delta(a) in H_{delta+eta}(b) and vice versa.

    Accepts Spectrum or HarmonicFiltration arguments. Subspace containment
    is used when both filtrations live on the same space; otherwise only
    dimension profiles are compared (an honest weakening: the minimal eta
    such that each profile dominates the other after shifting, infinite if
    the total dimensions differ). Pass ``mode`` to force ``"subspace"`` or
    ``"dimension-profile"``.
    """
    spec_a = a.spectrum if isinstance(a, HarmonicFiltration) else a
    spec_b = b.spectrum if isinstance(b, HarmonicFiltration) else b
    same_space = spec_a.eigenvectors.shape[0] == spec_b.eigenvectors.shape[0]
    if mode is None:
        mode = "subspace" if same_space and spec_a.dim == spec_b.dim else "dimension-profile"
    if mode == "dimension-profile":
        return InterleavingResult(_profile_eta(spec_a.eigenvalues, spec_b.eigenvalues),
                                  "dimension-profile", True)
    if mode != "subspace":
        raise ValueError(f"unknown interleaving mode {mode!r}")
    if not same_space:
        raise ValueError("subspace interleaving needs a common ambient space")
    candidates = {0.0}
    for la in spec_a.eigenvalues:
        for lb in spec_b.eigenvalues:
            candidates.add(abs(float(la) - float(lb)))
    ordered = sorted(candidates)

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


# ---------------------------------------------------------------------------
# Cone reduction (commuting regime)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeReductionSide:
    """One grounded object, reduced to the operators entering the cone blocks.

    ``base_f`` and ``gram_f`` act on the model cochain space (cone block
    L_F + eps^T eps), ``base_w`` and ``gram_w`` on the grounding side
    (block L_W + eps eps^T). ``intertwine_residual`` is ||d_W^T eps - eps d_F^T||
    and the commutator norms cover the simultaneous-diagonalization
    hypothesis.
    """

    base_f: np.ndarray
    gram_f: np.ndarray
    base_w: np.ndarray
    gram_w: np.ndarray
    intertwine_residual: float

    def commutator_norms(self):
        c_f = self.base_f @ self.gram_f - self.gram_f @ self.base_f
        c_w = self.base_w @ self.gram_w - self.gram_w @ self.base_w
        return float(np.max(np.abs(c_f))) if c_f.size else 0.0, \
            float(np.max(np.abs(c_w))) if c_w.size else 0.0

    def cone_spectrum(self) -> np.ndarray:
        parts = [np.linalg.eigvalsh(self.base_f + self.gram_f)]
        if self.base_w.size:
            parts.append(np.linalg.eigvalsh(self.base_w + self.gram_w))
        return np.sort(np.concatenate(parts))


def cone_reduction_side(sheaf: CellSheaf, grounding: GroundingMorphism) -> ConeReductionSide:
    """Cone-degree-0 blocks of a grounded sheaf with constant target."""
    eps0 = grounding.cochain_block(sheaf, 0)
    eps1 = grounding.cochain_block(sheaf, 1)
    wsheaf = constant_sheaf(sheaf.complex, grounding.target_dim)
    base_f = laplacian(sheaf, 1).matrix
    base_w = laplacian(wsheaf, 0).matrix
    d_f0 = coboundary(sheaf, 0).matrix
    d_w0 = coboundary(wsheaf, 0).matrix
    residual = float(np.max(np.abs(d_w0.T @ eps1 - eps0 @ d_f0.T))) if eps1.size else 0.0
    return ConeReductionSide(base_f, eps1.T @ eps1, base_w, eps0 @ eps0.T, residual)


def synthetic_commuting_side(seed: int, dim_f: int = 6, dim_w: int = 4,
                             scale: float = 2.0) -> ConeReductionSide:
    """Simultaneously diagonalized fixture: random orthogonal frames, sorted
    nonnegative spectra co-monotone with their grounding penalties."""
    rng = np.random.default_rng(seed)

    def frame(d):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return q

    def pair(d):
        base = np.sort(rng.uniform(0.0, scale, size=d))
        gram = np.sort(rng.uniform(0.0, scale, size=d))
        q = frame(d)
        return q @ np.diag(base) @ q.T, q @ np.diag(gram) @ q.T

    base_f, gram_f = pair(dim_f)
    base_w, gram_w = pair(dim_w)
    return ConeReductionSide(base_f, gram_f, base_w, gram_w, 0.0)


@dataclass(frozen=True)
class ConeReductionReport:
    status: str  # pass | fail | hypothesis-not-met
    residuals: dict
    eta: float | None = None
    v_bound: float | None = None
    theta: float | None = None
    measured: float | None = None
    bound_v_holds: bool | None = None
    bound_theta_holds: bool | None = None


def _pairwise_spread(ev_a, ev_b):
    if ev_a.size == 0 or ev_b.size == 0:
        return 0.0
    return float(max(np.max(ev_a) - np.min(ev_b), np.max(ev_b) - np.min(ev_a), 0.0))


def verify_cone_reduction(side_a: ConeReductionSide,
                          side_b: ConeReductionSide) -> ConeReductionReport:
    """Check the interleaving bound eta + v (and eta + theta) for cone spectra.

    eta is the measured interleaving of the base filtrations, v the largest
    pairwise gap between corresponding grounding-penalty spectra, theta their
    profile interleaving. Hypothesis residuals above tolerance yield a
    hypothesis-not-met report with no bound asserted.
    """
    comm_a = side_a.commutator_norms()
    comm_b = side_b.commutator_norms()
    residuals = {
        "intertwine_a": side_a.intertwine_residual,
        "intertwine_b": side_b.intertwine_residual,
        "commutator_f_a": comm_a[0],
        "commutator_w_a": comm_a[1],
        "commutator_f_b": comm_b[0],
        "commutator_w_b": comm_b[1],
    }
    if max(residuals.values()) > COMMUTATION_TOL:
        return ConeReductionReport("hypothesis-not-met", residuals)

    def spec(m):
        return np.linalg.eigvalsh(m) if m.size else np.zeros(0)

    eta = max(
        _profile_eta(spec(side_a.base_f), spec(side_b.base_f)),
        _profile_eta(spec(side_a.base_w), spec(side_b.base_w)),
    )
    gram_f_a, gram_f_b = spec(side_a.gram_f), spec(side_b.gram_f)
    gram_w_a, gram_w_b = spec(side_a.gram_w), spec(side_b.gram_w)
    v_bound = max(_pairwise_spread(gram_f_a, gram_f_b), _pairwise_spread(gram_w_a, gram_w_b))
    theta = max(_profile_eta(gram_f_a, gram_f_b), _profile_eta(gram_w_a, gram_w_b))
    measured = _profile_eta(side_a.cone_spectrum(), side_b.cone_spectrum())
    bound_v = measured <= eta + v_bound + BOUND_SLACK
    bound_theta = measured <= eta + theta + BOUND_SLACK if math.isfinite(theta) else None
    status = "pass" if bound_v and (bound_theta is not False) else "fail"
    return ConeReductionReport(status, residuals, eta, v_bound, theta, measured,
                               bound_v, bound_theta)

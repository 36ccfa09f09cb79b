"""Harmonic profiles, spectral witnesses and interleavings of the dense
spectra that sheaves and channel sets keep. ``kernel_dim`` alone decides
numerical zero; the gap and the witnesses split the spectrum at its index.
Above it, numerically degenerate clusters (spread below 1e-8 * lambda_max)
are admitted or excluded from witness computations as a block, so per-cell
scores depend only on spectral projectors, not on the basis inside a cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complexes import _require_degree
from .operators import (  # noqa: F401  (the two errors are re-exported)
    AsymmetricOperatorError,
    ChannelSet,
    MappingCone,
    PsdViolationError,
    SheafLaplacian,
    Spectrum,
    _eigenvalues,
    coboundary,
    decompose,
    kernel_dim,
    laplacian,
    laplacian_spectrum,
)
from .sheaves import CellSheaf

#: Cone reduction: largest intertwining or commutator residual for which
#: the hypotheses hold, and the slack allowed in the two bounds.
COMMUTATION_TOL = 1e-8
BOUND_SLACK = 1e-8


def eigendecompose(lap: SheafLaplacian) -> Spectrum:
    """Spectrum of a symmetric PSD operator (``operators.decompose``). A
    sheaf's own L_j is read with ``laplacian_spectrum``, which keeps it."""
    return decompose(lap)


def spectral_gap(spectrum: Spectrum) -> float:
    """Smallest eigenvalue above the zero cutoff; +inf if none."""
    k = kernel_dim(spectrum)
    return float(spectrum.eigenvalues[k]) if k < spectrum.dim else math.inf


def harmonic_space(spectrum: Spectrum, delta: float) -> np.ndarray:
    """Read-only basis of span{v : lambda <= delta}, the first eigenvector
    columns (``Spectrum.columns``); at delta = 0 the kernel."""
    return spectrum.columns(0, int(_harmonic_dims(spectrum, delta)))


def _harmonic_dims(spectrum: Spectrum, deltas) -> np.ndarray:
    """dim H_delta for each delta, counted on the ascending eigenvalues alone;
    below the zero cutoff, the kernel."""
    deltas = np.asarray(deltas, dtype=float)
    if np.any(deltas < 0):
        raise ValueError("delta must be non-negative")
    dims = np.searchsorted(spectrum.eigenvalues, deltas, side="right")
    return np.maximum(dims, kernel_dim(spectrum))


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


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

WEIGHTS = ("uniform", "inverse", "heat", "gap")


@dataclass(frozen=True)
class WitnessConfig:
    """Slack interval (delta0, delta1] and eigenvalue weight of the witnesses.

    The heat weight is exp(-lambda), the heat kernel at time 1.
    """

    delta0: float = 0.0
    delta1: float | None = None  # None: 2 * spectral gap of the operator at hand
    weight: str = "gap"

    def __post_init__(self):
        if self.weight not in WEIGHTS:
            raise ValueError(f"weight must be one of {WEIGHTS}")
        if not math.isfinite(self.delta0):
            raise ValueError(f"delta0 must be finite, got {self.delta0}")
        if self.delta1 is not None and not math.isfinite(self.delta1):
            raise ValueError(f"delta1 must be finite, got {self.delta1}")
        if self.delta0 < 0:
            raise ValueError("delta0 must be non-negative")
        if self.delta1 is not None and self.delta0 >= self.delta1:
            raise ValueError("need delta0 < delta1")

    def resolve_delta1(self, spectrum: Spectrum) -> float:
        if self.delta1 is not None:
            return self.delta1
        gap = spectral_gap(spectrum)
        delta1 = 2.0 * gap if math.isfinite(gap) else self.delta0 + 1.0
        if self.delta0 >= delta1:
            raise ValueError(f"need delta0 < delta1, but delta0 is {self.delta0!r} and delta1 "
                             f"is {delta1!r}, twice the spectral gap {gap!r} (the default when "
                             f"no delta1 is given)")
        return delta1

    def weight_value(self, lam: float) -> float:
        """w(lambda): 1 / lambda, exp(-lambda), else 1 (uniform and gap)."""
        if self.weight == "inverse":
            return 1.0 / lam
        if self.weight == "heat":
            return math.exp(-lam)
        return 1.0


def global_witness(spectrum: Spectrum, cfg: WitnessConfig) -> float:
    """Integrated low-lying spectral mass over the slack interval (delta0, delta1].

    Sum over strictly positive eigenvalues lambda <= delta1 of
    (delta1 - max(delta0, lambda)) * w(lambda). The gap weight, 1, keeps only
    the single smallest positive eigenvalue, recovering the gap-based witness.
    """
    delta1 = cfg.resolve_delta1(spectrum)
    k = kernel_dim(spectrum)
    total = 0.0
    for lam in spectrum.eigenvalues[k : k + 1 if cfg.weight == "gap" else None].tolist():
        if lam > delta1:
            break
        total += (delta1 - max(cfg.delta0, lam)) * cfg.weight_value(lam)
    return total


def _clusters(eigenvalues: np.ndarray, lam_max: float):
    """Start and end indices of the numerically degenerate clusters of ascending
    eigenvalues: cluster k is ``range(starts[k], ends[k])``."""
    if eigenvalues.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    breaks = np.flatnonzero(np.diff(eigenvalues) >= 1e-8 * max(lam_max, 1.0)) + 1
    return np.r_[0, breaks], np.r_[breaks, eigenvalues.size]


def _admitted_modes(spectrum: Spectrum, delta: float, cfg: WitnessConfig):
    """The range of the modes admitted at threshold delta, kernel excluded,
    and their weights.

    Only the modes above the kernel, from ``kernel_dim`` on, are clustered,
    so the first cluster starts at the spectral gap. Clusters enter as a
    block: a cluster is admitted iff its smallest member is <= delta. The
    gap weight admits the first cluster only, with unit weights. The
    smallest members ascend, so the admitted clusters are one run of them.
    """
    k = kernel_dim(spectrum)
    ev = spectrum.eigenvalues[k:]
    starts, ends = _clusters(ev, spectrum.lambda_max)
    stop = int(np.searchsorted(ev[starts], delta, side="right"))
    if cfg.weight == "gap":
        stop = min(stop, 1)
    if stop == 0:
        return range(k, k), []
    admitted = range(k, k + int(ends[stop - 1]))
    lams = spectrum.eigenvalues[k:admitted.stop].tolist()
    return admitted, [cfg.weight_value(lam) for lam in lams]


@dataclass(frozen=True)
class LocalWitnessMap:
    """One score per degree-``degree`` cell: ``scores`` is a read-only array
    in the order of ``cells``, the complex's ``cells(degree)``."""

    degree: int
    delta: float
    cells: tuple
    scores: np.ndarray

    def __post_init__(self):
        self.scores.flags.writeable = False

    def argmax(self):
        """The cell of the first largest score; None when every score is 0."""
        return self.cells[int(np.argmax(self.scores))] if self.scores.any() else None


def _block_energy(sheaf: CellSheaf, j: int, image: np.ndarray, weights: np.ndarray):
    """Weighted squared norm of each degree-j cell block of the rows of ``image``.

    Rows are summed by owning cell, so a zero-dimensional stalk scores 0.
    """
    return np.bincount(sheaf.cochain_owner(j), weights=(image**2) @ weights,
                       minlength=len(sheaf.complex.cells(j)))


def _witness_scores(sheaf: CellSheaf, j: int, vectors: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """Per-cell witness scores of the weighted mode columns in degree j.

    Every cell receives the block energy of d_j V at each of its cofaces and
    of d_{j-1}^T V at each of its faces, with the sheaf's coboundaries (an
    empty end map adds nothing).
    """
    cells = sheaf.complex.cells(j)
    scores = np.zeros(len(cells))  # a float array even when a bincount below is empty
    energy = _block_energy(sheaf, j + 1, sheaf.coboundary(j) @ vectors, weights)
    coface, face = sheaf.incidence_cells(j)
    scores += np.bincount(face, weights=energy[coface], minlength=len(cells))
    energy = _block_energy(sheaf, j - 1, sheaf.coboundary(j - 1).T @ vectors, weights)
    cell, face = sheaf.incidence_cells(j - 1)
    scores += np.bincount(cell, weights=energy[face], minlength=len(cells))
    return scores


def _degree_modes(cfg, spectrum):
    """delta1, admitted eigenvector columns V and their weights w of a
    spectrum; only the admitted columns are formed (``Spectrum.columns``)."""
    delta = cfg.resolve_delta1(spectrum)
    admitted, weights = _admitted_modes(spectrum, delta, cfg)
    return delta, spectrum.columns(admitted.start, admitted.stop), np.array(weights, dtype=float)


def local_witness(sheaf: CellSheaf, j: int,
                  cfg: WitnessConfig = WitnessConfig()) -> LocalWitnessMap:
    """Per-cell attribution of admitted low-energy mode energy in degree j.

    Each admitted eigenvector v contributes, to every cell e of degree j,
    the full squared component of d_j v at each coface of e plus the full
    squared component of d_{j-1}^T v at each face of e. The spectrum of L_j
    and the coboundaries are the sheaf's own, each computed once per sheaf.
    """
    delta, vectors, weights = _degree_modes(cfg, laplacian_spectrum(sheaf, j))
    scores = _witness_scores(sheaf, j, vectors, weights)
    return LocalWitnessMap(j, delta, sheaf.complex.cells(j), scores)


def coface_energy_map(sheaf: CellSheaf, j: int,
                      cfg: WitnessConfig = WitnessConfig()) -> LocalWitnessMap:
    """Per-coface energy of the admitted degree-j modes, before aggregation.

    The degree-j witness attributes ||(d_j v)[c]||^2 to every face of c;
    this map reports the components on the (j+1)-cells themselves, for
    every degree j below the top of the complex. For j = 0 it localizes inconsistency to edges, which the
    vertex-level witness then aggregates to nodes. The spectrum and the
    coboundary are the sheaf's own, as in :func:`local_witness`.
    """
    _require_degree(j, sheaf.complex.degrees[:-1], "coface energy needs degree")
    delta, vectors, weights = _degree_modes(cfg, laplacian_spectrum(sheaf, j))
    energy = _block_energy(sheaf, j + 1, coboundary(sheaf, j).matrix @ vectors, weights)
    return LocalWitnessMap(j + 1, delta, sheaf.complex.cells(j + 1), energy)


def local_witness_relative(channels: ChannelSet,
                           cfg: WitnessConfig = WitnessConfig()) -> LocalWitnessMap:
    """Edge-level witness of the relative cone channel L_1 + eps^T eps.

    Each edge e additionally receives ||eps_e x_e||^2 from its own column
    block eps_e of ``channels.eps``. Summed over the edges, these terms are
    the grounding energy of the cone's block-diagonal eps_1, one W per edge;
    they are not ||eps x||^2 for a vertex-level grounding, whose ``c1_map``
    sets the edge maps side by side into one W, so the cross terms between
    edges are left out. The modes come from the channel set's
    ``relative_spectrum`` (one W), the coboundaries from ``channels.sheaf``.
    """
    sheaf, eps = channels.sheaf, channels.eps
    delta, vectors, weights = _degree_modes(cfg, channels.relative_spectrum)
    scores = _witness_scores(sheaf, 1, vectors, weights)
    # every column block of eps spans all rows of W: one product per edge
    for k, block in enumerate(sheaf.cell_slices(1).values()):
        scores[k] += float(np.sum((eps[:, block] @ vectors[block]) ** 2, axis=0) @ weights)
    return LocalWitnessMap(1, delta, sheaf.complex.cells(1), scores)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationResult:
    scale: float
    was_zero: bool
    spectrum: Spectrum


def normalize_spectrum(lap: SheafLaplacian, spectrum: Spectrum) -> NormalizationResult:
    """Spectrum of ``lap / scale`` with trace/rank = 1; kernel, eigenvectors
    and ordering unchanged.

    ``spectrum`` is the spectrum of ``lap``; the normalized spectrum is
    derived from it as (lambda / scale, same eigenvectors or none), so no
    eigendecomposition runs here. Its cutoff is the raw cutoff divided
    by the scale; one computed from the divided lambda_max would leave its
    absolute term unscaled. Division by a positive scale is monotone, so the
    normalized spectrum splits at the raw ``kernel_dim`` (unless an
    eigenvalue above the cutoff rounds onto it), and its gap, witnesses and
    profiles read the raw kernel. The zero operator keeps its spectrum and
    scale 1, with a flag.
    """
    rank = spectrum.dim - kernel_dim(spectrum)
    if rank == 0:
        return NormalizationResult(1.0, True, spectrum)
    scale = float(np.trace(lap.matrix)) / rank
    normalized = Spectrum(spectrum.eigenvalues / scale, spectrum.basis,
                          spectrum.threshold / scale)
    return NormalizationResult(scale, False, normalized)


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


def _contained(overlap: np.ndarray, widest: np.ndarray, total: np.ndarray,
               k: int, m: int) -> bool:
    """||overlap[k:, :m]||_2 <= _CONTAIN_TOL, settled by cheap bounds when possible.

    The squared spectral norm lies between the largest squared column norm
    (``widest``) and the squared Frobenius norm (``total``).
    """
    tol2 = _CONTAIN_TOL * _CONTAIN_TOL
    if widest[k, m - 1] > tol2:
        return False
    if total[k, m - 1] <= tol2:
        return True
    return float(np.linalg.norm(overlap[k:, :m], 2)) <= _CONTAIN_TOL


def _containment_requirements(spec_a: Spectrum, spec_b: Spectrum, overlap: np.ndarray):
    """Per jump of a: cut_a and the eigenvalue of b up to which H(a) must reach.

    ``overlap`` is V_b^T V_a. With V_b orthonormal, the residual of the
    first m a-modes against the first k b-modes is ||overlap[k:, :m]||_2,
    which never rises with k and never falls with m, so one sweep finds the
    fewest admissible b-modes k(m) for every jump. The jump then requires
    lambda_b[k(m) - 1] <= max(cut_a + eta + _EDGE_SLACK, threshold_b).
    """
    ev_a, ev_b = spec_a.eigenvalues, spec_b.eigenvalues
    cuts = np.maximum(np.unique(ev_a), spec_a.threshold)
    modes = np.searchsorted(ev_a, cuts, side="right")
    # tail[k, j] = sum_{i >= k} overlap[i, j]^2, summed from the small end
    tail = np.cumsum((overlap * overlap)[::-1], axis=0)[::-1]
    widest = np.maximum.accumulate(tail, axis=1)
    total = np.cumsum(tail, axis=1)
    n = ev_b.shape[0]
    needs = np.empty(cuts.shape[0])
    k = 0
    for i, m in enumerate(modes.tolist()):
        while k < n and not _contained(overlap, widest, total, k, m):
            k += 1
        needs[i] = ev_b[k - 1]  # k >= 1: all of overlap[:, :m] has norm 1
    return cuts, needs


def _profile_eta(ev_a: np.ndarray, ev_b: np.ndarray) -> float:
    if ev_a.size != ev_b.size:
        return math.inf
    return float(np.max(np.abs(np.sort(ev_a) - np.sort(ev_b)), initial=0.0))


def interleaving_shift(a: Spectrum, b: Spectrum, mode: str | None = None) -> InterleavingResult:
    """Minimal eta with H_delta(a) in H_{delta+eta}(b) and vice versa.

    H_delta is span{v : lambda <= delta} of each spectrum. Subspace
    containment is used when the two spectra have the same dimension; otherwise
    only dimension profiles are compared (an honest weakening: the minimal
    eta such that each profile dominates the other after shifting, infinite
    if the total dimensions differ). Pass ``mode`` to force ``"subspace"``
    or ``"dimension-profile"``.

    Subspace mode needs ascending eigenvalues with square orthonormal
    eigenvector matrices, as ``eigendecompose`` returns them; a values-only
    spectrum (``decompose(lap, vectors=False)``) is a ValueError. With
    M = V_b^T V_a, the first m modes of a lie in the first k modes of b
    within ``_CONTAIN_TOL`` iff ||M[k:, :m]||_2 <= ``_CONTAIN_TOL``. One
    sweep over the jumps of a finds the fewest such k for each, and M^T
    does the same for b in a. eta is the smallest of 0 and the pairwise
    eigenvalue gaps |lambda_a - lambda_b| at which every jump's k-th
    b-eigenvalue is at most max(cut_a + eta + ``_EDGE_SLACK``, threshold_b).
    The cost is one n x n product, O(n^2) running sums and a few small
    norms. The whole of b contains every a-mode, so ``certified`` is False
    (eta infinite) only when rounding leaves even the largest gap short of
    the top eigenvalue: that needs eigenvalues of order 1e4 or more, where
    the float spacing exceeds ``_EDGE_SLACK``.
    """
    if mode is None:
        mode = "subspace" if a.dim == b.dim else "dimension-profile"
    if mode == "dimension-profile":
        return InterleavingResult(_profile_eta(a.eigenvalues, b.eigenvalues),
                                  "dimension-profile", True)
    if mode != "subspace":
        raise ValueError(f"unknown interleaving mode {mode!r}")
    vectors_a, vectors_b = a.vectors(), b.vectors()
    if vectors_a.shape[0] != vectors_b.shape[0]:
        raise ValueError("subspace interleaving needs a common ambient space")
    ev_a, ev_b = a.eigenvalues, b.eigenvalues
    overlap = vectors_b.T @ vectors_a
    requirements = [
        (*_containment_requirements(a, b, overlap), b.threshold),
        (*_containment_requirements(b, a, overlap.T), a.threshold),
    ]
    candidates = np.unique(np.append(0.0, np.abs(np.subtract.outer(ev_a, ev_b))))

    def works(eta):
        return all(bool(np.all(needs <= np.maximum(cuts + eta + _EDGE_SLACK, threshold)))
                   for cuts, needs, threshold in requirements)

    # every requirement is monotone in eta: bisect over the candidates
    lo, hi = 0, candidates.shape[0] - 1
    if not works(candidates[hi]):
        return InterleavingResult(math.inf, "subspace", False)
    while lo < hi:
        mid = (lo + hi) // 2
        if works(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return InterleavingResult(float(candidates[lo]), "subspace", True)


# ---------------------------------------------------------------------------
# Cone reduction (commuting regime)
# ---------------------------------------------------------------------------


def _max_abs(m: np.ndarray) -> float:
    """The largest absolute entry of ``m``, a temporary: the absolute values
    are taken in its storage."""
    return float(np.max(np.abs(m, out=m), initial=0.0))


def _max_abs_difference(a: np.ndarray, b: np.ndarray) -> float:
    """``_max_abs`` of a - b, formed in the storage of ``a``, a temporary, so
    neither the difference nor its absolute values take an array of their own."""
    a -= b
    return _max_abs(a)


@dataclass(frozen=True)
class ConeReductionSide:
    """One grounded object, reduced to what the cone-reduction bound reads:
    the hypothesis ``residuals`` (``intertwine`` = ||d_W^T eps - eps d_F^T||
    and the commutator norms ``commutator_f`` and ``commutator_w``) and, when
    all are within COMMUTATION_TOL, ``spectra``: the ascending eigenvalues of
    ``base_f``, ``gram_f`` (model side), ``base_w``, ``gram_w`` (grounding
    side) and ``cone``, those of L_F + eps^T eps and L_W + eps eps^T together.
    """

    residuals: dict
    spectra: dict | None

    @classmethod
    def from_blocks(cls, base_f, gram_f, base_w, gram_w, intertwine: float,
                    base_eigenvalues: Callable[[], tuple]) -> ConeReductionSide:
        """Each commutator formed once, and no block kept. ``base_eigenvalues``
        returns the eigenvalues of ``base_f`` and ``base_w``; it is a function
        so that a side whose hypotheses fail decomposes nothing: only when
        they hold are the other blocks decomposed, and then it is called."""
        return cls._without_bases(base_f, gram_f, base_w, gram_w, intertwine)._with_bases(
            base_eigenvalues)

    @classmethod
    def _without_bases(cls, base_f, gram_f, base_w, gram_w, intertwine: float):
        """The residuals and, when they hold, the spectra of ``gram_f``,
        ``gram_w`` and the cone blocks: every spectrum but the two bases'."""
        residuals = {"intertwine": intertwine,
                     "commutator_f": _max_abs_difference(base_f @ gram_f, gram_f @ base_f),
                     "commutator_w": _max_abs_difference(base_w @ gram_w, gram_w @ base_w)}
        if max(residuals.values()) > COMMUTATION_TOL:
            return cls(residuals, None)
        cone = np.concatenate([_eigenvalues(base_f + gram_f), _eigenvalues(base_w + gram_w)])
        return cls(residuals, {"gram_f": _eigenvalues(gram_f), "gram_w": _eigenvalues(gram_w),
                               "cone": np.sort(cone)})

    def _with_bases(self, base_eigenvalues: Callable[[], tuple]) -> ConeReductionSide:
        """This side with the base eigenvalues ``base_eigenvalues`` returns;
        a side whose hypotheses failed does not call it."""
        if self.spectra is None:
            return self
        ev_base_f, ev_base_w = base_eigenvalues()
        return ConeReductionSide(self.residuals,
                                 {"base_f": ev_base_f, "base_w": ev_base_w, **self.spectra})


def cone_reduction_side(cone: MappingCone) -> ConeReductionSide:
    """Cone-degree-0 blocks of a grounded sheaf with constant target, read
    from the cone: L_1(F) and L_0(W), with the spectra, that ``cone.sheaf``
    and ``cone.w_sheaf`` keep; the grounding penalties and the intertwining
    residual from its ``eps`` and the degree-0 coboundaries. The spectra of
    L_1(F) and L_0(W) are read last (``_cone_reduction_steps``).
    """
    return _cone_reduction_steps(cone)()


def _cone_reduction_steps(cone: MappingCone) -> Callable[[], ConeReductionSide]:
    """The first step of ``cone_reduction_side``: the residuals and, when
    they hold, the spectra of the four other blocks. Returns the last step,
    which reads the eigenvalues of L_1(F) and L_0(W) from the spectra their
    sheaves keep, so that these can be decomposed in between."""
    f, w = cone.sheaf, cone.w_sheaf
    eps0, eps1 = cone.eps[0], cone.eps[1]
    d_f0, d_w0 = coboundary(f, 0).matrix, coboundary(w, 0).matrix
    side = ConeReductionSide._without_bases(
        laplacian(f, 1).matrix, eps1.T @ eps1, laplacian(w, 0).matrix, eps0 @ eps0.T,
        _max_abs_difference(d_w0.T @ eps1, eps0 @ d_f0.T))
    return lambda: side._with_bases(
        lambda: (laplacian_spectrum(f, 1).eigenvalues, laplacian_spectrum(w, 0).eigenvalues))


def synthetic_commuting_side(seed: int) -> ConeReductionSide:
    """Simultaneously diagonalized fixture: random orthogonal frames, sorted
    spectra in [0, 2) co-monotone with their grounding penalties, of
    dimension 6 on the model side and 4 on the grounding side."""
    rng = np.random.default_rng(seed)

    def frame(d):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return q

    def pair(d):
        base = np.sort(rng.uniform(0.0, 2.0, size=d))
        gram = np.sort(rng.uniform(0.0, 2.0, size=d))
        q = frame(d)
        return q @ np.diag(base) @ q.T, q @ np.diag(gram) @ q.T

    base_f, gram_f = pair(6)
    base_w, gram_w = pair(4)
    return ConeReductionSide.from_blocks(
        base_f, gram_f, base_w, gram_w, 0.0,
        lambda: (_eigenvalues(base_f), _eigenvalues(base_w)))


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
    profile interleaving. A side whose hypotheses failed has no ``spectra``
    (``ConeReductionSide.from_blocks``): the report is then hypothesis-not-met.
    """
    residuals = {f"{name}_{label}": value
                 for label, side in (("a", side_a), ("b", side_b))
                 for name, value in side.residuals.items()}
    a, b = side_a.spectra, side_b.spectra
    if a is None or b is None:
        return ConeReductionReport("hypothesis-not-met", residuals)
    eta = max(_profile_eta(a["base_f"], b["base_f"]), _profile_eta(a["base_w"], b["base_w"]))
    v_bound = max(_pairwise_spread(a["gram_f"], b["gram_f"]),
                  _pairwise_spread(a["gram_w"], b["gram_w"]))
    theta = max(_profile_eta(a["gram_f"], b["gram_f"]), _profile_eta(a["gram_w"], b["gram_w"]))
    measured = _profile_eta(a["cone"], b["cone"])
    bound_v = measured <= eta + v_bound + BOUND_SLACK
    bound_theta = measured <= eta + theta + BOUND_SLACK if math.isfinite(theta) else None
    status = "pass" if bound_v and (bound_theta is not False) else "fail"
    return ConeReductionReport(status, residuals, eta, v_bound, theta, measured,
                               bound_v, bound_theta)

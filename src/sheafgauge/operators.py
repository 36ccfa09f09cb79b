"""Coboundaries, sheaf Laplacians and spectra, groundings, mapping cones and
their checks.

Everything is assembled densely: the intended scale is a few thousand total
stalk dimensions, where exactness of the verification matters more than
sparsity. A sheaf assembles and decomposes each of its operators once, and
so does a channel set; every check here reads those.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .complexes import _require_degree, cone_complex
from .sheaves import CellSheaf, Stalk, _per_shape, _read_only, constant_sheaf, validate_sheaf

ZERO_ABS = 1e-10
ZERO_REL = 1e-8
ZERO_PSD_REL = 1e-8

#: Incidence defect up to which a grounding counts as a sheaf morphism, the
#: hypothesis of the cone equivalence and the long exact sequence.
COMPATIBILITY_TOL = 1e-8

VERTEX_LEVEL = "vertex-level"
COCHAIN_C1 = "cochain-on-c1"


def zero_threshold(scale: float) -> float:
    """Numerical-zero cutoff: lambda counts as zero iff lambda <= this.

    With ``scale = lambda_max`` the rule is lambda <= 1e-10 + 1e-8 * lambda_max.
    Kernel dimensions are invariant under rescaling L -> s * L as long as
    s * lambda_plus_min stays above 10 * zero_threshold(s * lambda_max)
    (lambda_plus_min: the smallest positive eigenvalue). Below that range
    the absolute term dominates: the trivial 10-cycle L_0 scaled by 1e-12
    reports kernel dimension 10 instead of 1.
    """
    return ZERO_ABS + ZERO_REL * max(float(scale), 0.0)


def numerical_rank(matrix) -> int:
    s = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    return int(np.count_nonzero(s > zero_threshold(np.max(s, initial=0.0))))


class AsymmetricOperatorError(ValueError):
    pass


class PsdViolationError(ValueError):
    pass


class _Lapack:
    """The LAPACK of the OpenBLAS that numpy's wheel bundles, through ctypes:
    each routine by name, with 64-bit integers (``scipy_<routine>_64_``)."""

    def __init__(self, functions: dict):
        self._functions = functions

    def __call__(self, routine: str, *args) -> int:
        """Run ``routine`` on every argument but INFO and return INFO. A
        bytes argument is a character flag, an array its data and an int a
        64-bit integer; the hidden lengths of the flags follow INFO."""
        info = ctypes.c_int64()
        pointers = [arg if isinstance(arg, bytes)
                    else arg.ctypes.data if isinstance(arg, np.ndarray)
                    else ctypes.byref(ctypes.c_int64(arg)) for arg in args]
        lengths = [len(arg) for arg in args if isinstance(arg, bytes)]
        self._functions[routine](*pointers, ctypes.byref(info), *lengths)
        return info.value


@cache
def _lapack() -> _Lapack | None:
    """numpy's bundled LAPACK, loaded on first use; None when numpy bundles
    none (a numpy that is not a wheel) or it lacks a routine called here."""
    libraries = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    if len(libraries) != 1:
        return None
    # each routine called here: its pointer arguments, INFO included, and its character flags
    signatures = {"dsyevd": (11, 2), "dsytrd": (10, 1), "dstedc": (11, 1), "dormtr": (13, 3),
                  "dpotrf": (5, 1)}
    try:
        library = ctypes.CDLL(str(libraries[0]))
        functions = {routine: getattr(library, f"scipy_{routine}_64_") for routine in signatures}
    except (OSError, AttributeError):
        return None
    for routine, (pointers, flags) in signatures.items():
        functions[routine].argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * flags
        functions[routine].restype = None
    return _Lapack(functions)


#: The range of the largest absolute entry in which LAPACK's ``dsyevd``
#: does not rescale a matrix: sqrt(safmin / eps) to its inverse.
_UNSCALED = (math.sqrt(np.finfo(float).tiny / np.finfo(float).eps),
             math.sqrt(np.finfo(float).eps / np.finfo(float).tiny))


class _Eigenbasis:
    """The eigenvectors of a symmetric n x n matrix as the first two stages
    of ``np.linalg.eigh`` (LAPACK ``dsyevd('V', 'L')``) leave them: the
    Householder reflectors of the reduction to tridiagonal form (``dsytrd``,
    with their scales ``tau``) and the eigenvectors Z of the tridiagonal
    matrix (``dstedc``), in one 2 n^2 block. The third stage, the
    back-transform Q Z (``dormtr``), runs on request: ``columns`` transforms
    only the columns it is asked for, once per range (a kernel is read by
    several checks), and they agree with ``eigh``'s to a few ulps; ``full``
    transforms all of Z with ``dsyevd``'s own workspace, so the basis is
    ``eigh``'s bit for bit, and keeps it in place of the block.
    """

    def __init__(self, binding: _Lapack, block: np.ndarray, tau: np.ndarray, lwork: int):
        self._binding, self._block, self._tau, self._lwork = binding, block, tau, lwork
        self._full, self._columns = None, {}

    @classmethod
    def solve(cls, binding: _Lapack, m: np.ndarray):
        """The eigenvalues of ``m``, ``eigh``'s bit for bit, and its factored
        basis. ``m`` is exactly symmetric, n > 1, and its largest entry lies
        in the ``_UNSCALED`` range; a non-zero INFO is numpy's LinAlgError."""
        n = m.shape[0]
        query, iquery = np.zeros(1), np.zeros(1, dtype=np.int64)
        binding("dsyevd", b"V", b"L", n, query, n, query, query, -1, iquery, -1)
        # dsyevd hands dstedc and dormtr its workspace past E, TAU and Z
        lwork, iwork = int(query[0]) - 2 * n - n * n, np.empty(int(iquery[0]), dtype=np.int64)
        block = np.empty((2, n, n))  # Fortran order: the reflectors, then Z
        block[0] = m.T
        eigenvalues, e, tau = np.empty(n), np.empty(n), np.empty(n)
        binding("dsytrd", b"L", n, block[0], n, eigenvalues, e, tau, query, -1)
        info = binding("dsytrd", b"L", n, block[0], n, eigenvalues, e, tau,
                       np.empty(int(query[0])), int(query[0]))
        info = info or binding("dstedc", b"I", n, eigenvalues, e, block[1], n,
                               np.empty(lwork), lwork, iwork, iwork.size)
        if info:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigenvalues, cls(binding, block, tau, lwork)

    def _back_transform(self, z: np.ndarray, count: int, work: np.ndarray, lwork: int) -> None:
        """Q z in place, for the ``count`` Fortran-ordered columns ``z``."""
        n = self._tau.shape[0]
        if self._binding("dormtr", b"L", b"L", b"N", n, count, self._block[0], n, self._tau,
                         z, n, work, lwork):
            raise np.linalg.LinAlgError("the back-transform of the eigenvectors failed")

    def columns(self, start: int, stop: int) -> np.ndarray:
        if self._full is not None:
            return self._full[:, start:stop]
        if (start, stop) not in self._columns:
            z = self._block[1, start:stop].copy()
            query = np.zeros(1)
            self._back_transform(z, z.shape[0], query, -1)
            self._back_transform(z, z.shape[0], np.empty(int(query[0])), int(query[0]))
            z.flags.writeable = False
            self._columns[start, stop] = z.T
        return self._columns[start, stop]

    def full(self) -> np.ndarray:
        if self._full is None:
            z = self._block[1]
            self._back_transform(z, z.shape[0], np.empty(self._lwork), self._lwork)
            self._full = np.ascontiguousarray(z.T)
            self._full.flags.writeable = False
            self._block = self._tau = self._columns = None
        return self._full


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of a PSD operator, its zero cutoff and, unless
    it was decomposed with ``vectors=False``, a basis of matching
    eigenvectors.

    The ``basis`` is an array, or ``decompose``'s factored one
    (``_Eigenbasis``), which forms eigenvectors on request: ``columns``
    the range that a reader reads (the kernel, the admitted modes of the
    witnesses), ``vectors`` and ``eigenvectors`` the whole basis, once. A
    values-only spectrum (``basis`` None) serves every reader of
    eigenvalues alone: ``kernel_dim``, the gap, the global witness, the
    profiles and normalization. ``columns`` and ``vectors`` raise a
    ValueError for it.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray | _Eigenbasis | None
    threshold: float

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self):
        return float(self.eigenvalues[-1]) if self.dim else 0.0

    def vectors(self) -> np.ndarray:
        """The eigenvector columns, in the order of the eigenvalues."""
        if self.basis is None:
            raise ValueError("the spectrum has no eigenvectors: it was decomposed with "
                             "vectors=False")
        return self.basis.full() if isinstance(self.basis, _Eigenbasis) else self.basis

    @property
    def eigenvectors(self) -> np.ndarray | None:
        """``vectors()``, or None for a values-only spectrum."""
        return None if self.basis is None else self.vectors()

    def columns(self, start: int, stop: int) -> np.ndarray:
        """The read-only eigenvector columns [start, stop); a factored basis
        back-transforms these alone."""
        if isinstance(self.basis, _Eigenbasis):
            return self.basis.columns(start, stop)
        return self.vectors()[:, start:stop]

    @property
    def kernel(self) -> np.ndarray:
        """Orthonormal basis of the numerical kernel: the first ``kernel_dim`` modes."""
        return self.columns(0, kernel_dim(self))


def kernel_dim(spectrum: Spectrum) -> int:
    """Number of eigenvalues at or below the zero cutoff: the kernel is the
    first ``kernel_dim`` of the ascending modes."""
    return int(np.searchsorted(spectrum.eigenvalues, spectrum.threshold, side="right"))


def decompose(lap: SheafLaplacian, vectors: bool = True) -> Spectrum:
    """Read-only spectrum of a symmetric PSD operator, both properties checked.

    With vectors, the eigenvalues are ``np.linalg.eigh``'s, bit for bit, and
    the basis is factored (``_Eigenbasis``): ``eigh``'s LAPACK routine
    ``dsyevd`` runs stage by stage on the LAPACK that numpy bundles
    (``_lapack``) and stops before the back-transform, which the readers
    run on the columns they read (``Spectrum.columns``). ``np.linalg.eigh`` itself decomposes an
    operator of dimension at most 1, one not exactly symmetric or not a
    matrix of doubles, one that ``dsyevd`` would rescale (``_UNSCALED``),
    and every operator when numpy bundles no such LAPACK. With
    ``vectors=False`` only the eigenvalues are computed (``eigvalsh``, about
    half the cost of ``eigh``), behind the same checks and cutoff; the
    spectrum then has no eigenvectors (``Spectrum.vectors``).
    """
    m = lap.matrix
    exact = _require_symmetric(m)
    staged = (vectors and exact and m.ndim == 2 and m.dtype == np.float64 and m.shape[0] > 1
              and _UNSCALED[0] <= max(m.max(), -m.min()) <= _UNSCALED[1])
    lapack = _lapack() if staged else None
    if not vectors:
        eigenvalues, basis = np.linalg.eigvalsh(m), None
    elif lapack is not None:
        eigenvalues, basis = _Eigenbasis.solve(lapack, m)
    else:
        eigenvalues, basis = np.linalg.eigh(m)
        basis.flags.writeable = False
    lam_max = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    if eigenvalues.size and eigenvalues[0] < -ZERO_PSD_REL * max(lam_max, 1.0):
        raise PsdViolationError(f"negative eigenvalue {eigenvalues[0]:.3e}")
    eigenvalues.flags.writeable = False
    return Spectrum(eigenvalues, basis, zero_threshold(lam_max))


def _require_symmetric(m: np.ndarray) -> bool:
    """Whether ``m`` is exactly symmetric; an AsymmetricOperatorError unless
    it is symmetric within 1e-10 of its largest entry (at least 1). Every
    operator the package assembles is exactly symmetric: the tolerance and
    its two temporaries are only needed when the exact test fails."""
    if np.array_equal(m, m.T):
        return True
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
        raise AsymmetricOperatorError("operator is not symmetric within tolerance")
    return False


def _eigenvalues(matrix) -> np.ndarray:
    """Read-only ascending eigenvalues of a symmetric PSD block, behind ``decompose``'s checks."""
    return decompose(SheafLaplacian(matrix, None), vectors=False).eigenvalues


def numerical_kernel(lap: SheafLaplacian) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of a symmetric PSD operator,
    read from ``decompose``; a copy, so no eigenbasis is held."""
    return decompose(lap).kernel.copy()


# ---------------------------------------------------------------------------
# Coboundaries and Laplacians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coboundary:
    degree: int
    matrix: np.ndarray


def coboundary(sheaf: CellSheaf, j: int) -> Coboundary:
    """Signed block matrix C^j -> C^{j+1}: block (c, f) = sign(c, f) * rho_{f->c}.

    The matrix is the sheaf's own, read-only and assembled once per sheaf;
    at the ends of the complex it is a zero map (``CellSheaf.coboundary``).
    """
    return Coboundary(j, sheaf.coboundary(j))


@dataclass(frozen=True)
class SheafLaplacian:
    matrix: np.ndarray
    degree: int

    @property
    def dim(self):
        return self.matrix.shape[0]


def _gram_sum(down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """down down^T + up^T up, writeable; numpy forms each Gram product by a
    symmetric rank-k update, so the sum is exactly symmetric. The sum is
    formed in place, so no third n x n array is held."""
    m = down @ down.T
    m += up.T @ up
    return m


def _hodge_laplacian(j: int, down: np.ndarray, up: np.ndarray) -> SheafLaplacian:
    """The read-only ``_gram_sum`` of ``down`` and ``up``, as the degree-j Laplacian."""
    m = _gram_sum(down, up)
    m.flags.writeable = False
    return SheafLaplacian(m, j)


def _assemble_laplacian(sheaf: CellSheaf, j: int) -> SheafLaplacian:
    return _hodge_laplacian(j, coboundary(sheaf, j - 1).matrix, coboundary(sheaf, j).matrix)


def laplacian(sheaf: CellSheaf, j: int) -> SheafLaplacian:
    """L_j = d^{j-1} (d^{j-1})^T + (d^j)^T d^j on C^j, for each degree j of
    the complex; at its ends, d^{j-1} or d^j is a zero map. The sheaf's
    own, read-only and assembled once per sheaf."""
    _require_degree(j, sheaf.complex.degrees, "laplacian degree must be")
    return sheaf.derived(("laplacian", j), lambda s: _assemble_laplacian(s, j))


def laplacian_spectrum(sheaf: CellSheaf, j: int) -> Spectrum:
    """Spectrum of ``laplacian(sheaf, j)``, decomposed once per sheaf."""
    return sheaf.derived(("spectrum", j), lambda s: decompose(laplacian(s, j)))


def consistency_energy(lap: SheafLaplacian, x) -> float:
    """Quadratic form <x, L x>; the budget spent by a cochain."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != lap.dim:
        raise ValueError(f"cochain has dim {x.shape[0]}, operator has dim {lap.dim}")
    return float(x @ lap.matrix @ x)


def is_delta_feasible(lap: SheafLaplacian, x, delta: float) -> bool:
    """E(x) <= delta, boundary inclusive."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return consistency_energy(lap, x) <= delta


def betti_numbers(sheaf: CellSheaf) -> tuple[int, ...]:
    """Cohomology dimensions by rank-nullity of the coboundaries:
    b_j = dim C^j - rank d_j - rank d_{j-1}. The formula equals cohomology
    only when d1·d0 = 0, so a sheaf with functoriality violations (not
    ``validated``) is a ValueError naming their count."""
    if not sheaf.validated:
        count = len(validate_sheaf(sheaf))
        raise ValueError(f"betti_numbers needs d1·d0 = 0, and the sheaf has {count} "
                         "functoriality violation(s)")
    degrees = sheaf.complex.degrees  # d_{-1} is an empty zero map, of rank 0
    ranks = {j: numerical_rank(coboundary(sheaf, j).matrix) for j in range(-1, degrees.stop)}
    return tuple(sheaf.cochain_dim(j) - ranks[j] - ranks[j - 1] for j in degrees)


# ---------------------------------------------------------------------------
# Grounding morphisms
# ---------------------------------------------------------------------------


class GroundingModeError(ValueError):
    pass


def _cell_maps(grounding, what: str):
    """The per-cell maps of a vertex-level grounding, which ``what`` needs;
    any other grounding is a GroundingModeError naming ``what``."""
    if grounding.cell_maps is None:
        raise GroundingModeError(f"{what} needs a vertex-level grounding")
    return grounding.cell_maps


@dataclass(frozen=True)
class GroundingMorphism:
    """Linear maps from stalks into an ambient reference space W, given by one
    of two payloads that also fixes ``mode`` and ``target_dim`` = dim W:
    ``cell_maps``, one map per cell with a common row count (``vertex-level``,
    as the padding construction gives; dim W is 0 without cells), kept as a
    read-only mapping, or ``c1_matrix``, one map on C^1 (``cochain-on-c1``,
    the regime of the separation check and of the diagnostic channels).
    Every payload array is kept read-only (``sheaves._read_only``: a
    writeable one is copied once, a read-only one is shared), so no map can
    change under the channels and cones built from it.
    """

    cell_maps: dict | None = None
    c1_matrix: np.ndarray | None = None
    mode: str = field(init=False)
    target_dim: int = field(init=False)

    def __post_init__(self):
        if (self.cell_maps is None) == (self.c1_matrix is None):
            raise GroundingModeError("a grounding takes exactly one of cell_maps and c1_matrix")
        if self.c1_matrix is not None:
            object.__setattr__(self, "c1_matrix", _read_only(self.c1_matrix))
            mode, rows = COCHAIN_C1, {self.c1_matrix.shape[0]}
        else:  # a read-only copy, so no map of another row count can be swapped in
            cell_maps = {cell: _read_only(m) for cell, m in self.cell_maps.items()}
            object.__setattr__(self, "cell_maps", MappingProxyType(cell_maps))
            mode, rows = VERTEX_LEVEL, {m.shape[0] for m in cell_maps.values()}
        if len(rows) > 1:
            raise GroundingModeError(f"cell maps have different row counts {sorted(rows)}")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "target_dim", rows.pop() if rows else 0)

    def cell_map(self, cell):
        return _cell_maps(self, "cell_map")[tuple(cell)]

    def cochain_block(self, sheaf: CellSheaf, j: int) -> np.ndarray:
        """Read-only block-diagonal epsilon_j: C^j(F) -> C^j(W) from the per-cell maps."""
        maps = _cell_maps(self, "cochain_block")
        cells = sheaf.complex.cells(j)
        cols = sheaf.cell_slices(j)
        w = self.target_dim
        matrix = np.zeros((w * len(cells), sheaf.cochain_dim(j)))
        for i, cell in enumerate(cells):
            matrix[i * w : (i + 1) * w, cols[cell]] = maps[cell]
        matrix.flags.writeable = False
        return matrix

    def c1_map(self, sheaf: CellSheaf) -> np.ndarray:
        """Read-only map C^1(F) -> W; vertex-level groundings set their edge maps side by side."""
        if self.mode == COCHAIN_C1:
            if self.c1_matrix.shape[1] != sheaf.cochain_dim(1):
                raise GroundingModeError(
                    f"c1 grounding has width {self.c1_matrix.shape[1]}, "
                    f"C^1 has dim {sheaf.cochain_dim(1)}"
                )
            return self.c1_matrix
        matrix = np.hstack([np.zeros((self.target_dim, 0))]
                           + [self.cell_maps[e] for e in sheaf.complex.cells(1)])
        matrix.flags.writeable = False
        return matrix


def grounding_from_padding(sheaf: CellSheaf) -> GroundingMorphism:
    """Embed every stalk into W = R^{d_max} by zero-padding its basis."""
    d_max = sheaf.max_ambient_dim
    cell_maps = {}
    for cell, stalk in sheaf.stalks.items():
        block = np.zeros((d_max, stalk.dim))
        block[: stalk.ambient_dim] = stalk.basis
        block.flags.writeable = False
        cell_maps[cell] = block
    return GroundingMorphism(cell_maps=cell_maps)


def grounding_identity_c1(sheaf: CellSheaf) -> GroundingMorphism:
    """Full-rank grounding: the identity on C^1."""
    eye = np.eye(sheaf.cochain_dim(1))
    eye.flags.writeable = False
    return GroundingMorphism(c1_matrix=eye)


def grounding_killing_kernel(sheaf: CellSheaf) -> GroundingMorphism:
    """Rank-deficient grounding annihilating the harmonic 1-cochains.

    epsilon = I - P where P projects onto ker L_1, so epsilon restricted to
    the intrinsic harmonic space has nontrivial kernel whenever ker L_1 != 0.
    The kernel is read from the whole basis of the sheaf's spectrum of L_1,
    which is ``eigh``'s bit for bit, so the spectra of the operators built
    on epsilon are too.
    """
    spectrum = laplacian_spectrum(sheaf, 1)
    kernel = spectrum.vectors()[:, :kernel_dim(spectrum)]
    eps = np.eye(sheaf.cochain_dim(1)) - kernel @ kernel.T
    eps.flags.writeable = False
    return GroundingMorphism(c1_matrix=eps)


def grounding_zero_c1(sheaf: CellSheaf) -> GroundingMorphism:
    n = sheaf.cochain_dim(1)
    zero = np.zeros((n, n))
    zero.flags.writeable = False
    return GroundingMorphism(c1_matrix=zero)


def constant_grounding(sheaf: CellSheaf, target_dim: int | None = None,
                       seed: int | None = None, matrix=None) -> GroundingMorphism:
    """One fixed map on every cell. A sheaf morphism whenever all restriction
    maps are identities (constant sheaves)."""
    dims = {s.dim for s in sheaf.stalks.values()}
    if len(dims) != 1:
        raise ValueError("constant grounding needs equal stalk dimensions")
    d = dims.pop()
    if matrix is not None:
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[1] != d:
            raise ValueError(f"constant grounding matrix has shape {a.shape}; its width "
                             f"must be the stalk dimension {d}")
    else:
        w = target_dim if target_dim is not None else d
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(w, d)) if seed is not None else np.eye(w, d)
    cell_maps = dict.fromkeys(sheaf.stalks, _read_only(a))
    return GroundingMorphism(cell_maps=cell_maps)


def propagate_cycle_grounding(sheaf: CellSheaf, seed: int,
                              target_dim: int | None = None) -> GroundingMorphism:
    """Compatible grounding on a cycle bundle, transported from vertex 0.

    Solves epsilon_e rho_{u->e} = epsilon_u along the cycle and sets
    epsilon_v = epsilon_e rho_{v->e}. The closing edge (0, n - 1) comes last:
    its transport agrees with epsilon_{n-1} iff the bundle holonomy is
    trivial, otherwise a ValueError is raised.
    """
    complex_ = sheaf.complex
    n = len(complex_.cells(0))
    if complex_.cells(2) or len(complex_.cells(1)) != n:
        raise ValueError("propagation expects a plain cycle complex")
    d = sheaf.stalk_dim((0,))
    w = target_dim if target_dim is not None else d
    rng = np.random.default_rng(seed)
    cell_maps = {(0,): rng.normal(size=(w, d))}
    for e in [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]:
        eps_e = cell_maps[e] = cell_maps[e[:1]] @ np.linalg.inv(sheaf.restriction(e[:1], e))
        transported = eps_e @ sheaf.restriction(e[1:], e)
        cell_maps.setdefault(e[1:], transported)
    last = cell_maps[(n - 1,)]
    closure = transported - last
    if np.max(np.abs(closure)) > 1e-8 * max(1.0, np.max(np.abs(last))):
        raise ValueError("cycle holonomy obstructs a compatible grounding")
    return GroundingMorphism(cell_maps=cell_maps)


# ---------------------------------------------------------------------------
# Incidence defect
# ---------------------------------------------------------------------------


def incidence_defect(sheaf: CellSheaf, grounding: GroundingMorphism) -> float:
    """Failure of a vertex-level grounding to commute with the restriction maps.

    The target is the constant sheaf W on the same complex, whose restrictions
    are identities, so the block of the incidence face < coface is
    eps_coface rho_{face->coface} - eps_face. The result is the Frobenius norm
    of all blocks together; the grounding is a sheaf morphism iff it vanishes.

    The incidences whose blocks share a shape are one stacked pass
    (``sheaves._per_shape``); each block's sum of squares is the pairwise sum
    ``np.sum`` makes of it alone, and the sums are added in incidence order.
    """
    maps, incidences = _cell_maps(grounding, "incidence defect"), sheaf.complex.incidences
    squares = _per_shape(_block_squares, (
        [maps[coface] for coface, _ in incidences],
        [sheaf.restrictions[(face, coface)] for coface, face in incidences],
        [maps[face] for _, face in incidences]))
    return math.sqrt(sum(squares))


def _block_squares(eps_coface, rho, eps_face):
    """Sum of squares of each stacked block eps_coface rho - eps_face; a
    zero-width block has no -1 reshape, so each is reshaped to its size."""
    b = np.matmul(eps_coface, rho) - eps_face
    return np.sum((b * b).reshape(len(b), b[0].size), axis=1)


# ---------------------------------------------------------------------------
# Mapping cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MappingCone:
    """Algebraic mapping cone of a vertex-level grounding F -> W.

    W is the constant sheaf with stalk R^w (w = ``grounding.target_dim``) on
    the complex of F, held as F itself when F's cochain complex already is
    W's (``w_sheaf``), and eps the grounding's block-diagonal cochain maps.
    Cone^n = C^{n+1}(F) + C^n(W) with d(a, b) = (-d_F a, -eps a + d_W b).
    The translated cone Cone[1]^n = Cone^{n-1} has differential
    -d^{n-1}: (x, y) -> (d_F x, eps x - d_W y).

    The cone holds its sheaf and grounding, and reads its ``degrees`` from
    the complex. Formed on first read and kept: ``w_sheaf``, the read-only
    mapping ``eps`` of cochain blocks (one degree past the cone's at each
    end, empty outside the complex's), the incidence defect
    ``defect_total`` and the read-only differentials, built from the
    coboundaries that ``sheaf`` and ``w_sheaf`` each assemble once, so every
    certificate reads the same matrices. d^2 = 0 holds when ``sheaf`` is
    functorial and the defect is 0.
    """

    sheaf: CellSheaf
    grounding: GroundingMorphism

    @property
    def degrees(self) -> range:
        """The degrees n of the non-zero Cone^n: from one below the complex's to its top."""
        degrees = self.sheaf.complex.degrees
        return range(degrees.start - 1, degrees.stop)

    @cached_property
    def w_sheaf(self) -> CellSheaf:
        """The constant sheaf W, or ``sheaf`` itself when its cochain complex
        already is W's: every stalk of dimension ``target_dim`` (so every
        cell map is square) and every restriction exactly the identity, bit
        for bit (a -0.0 entry is not 0.0). Only the restrictions enter W's
        operators, so the stalk bases do not matter, and W then shares F's
        coboundaries, Laplacians and spectra."""
        sheaf, w = self.sheaf, self.grounding.target_dim
        if all(stalk.dim == w for stalk in sheaf.stalks.values()):
            restrictions = sheaf.restrictions.values()
            entries = np.concatenate([np.zeros(0)] + [m.ravel() for m in restrictions])
            if entries.tobytes() == np.tile(np.eye(w).ravel(), len(restrictions)).tobytes():
                return sheaf
        return constant_sheaf(sheaf.complex, w)

    @cached_property
    def eps(self) -> MappingProxyType:
        return MappingProxyType({j: self.grounding.cochain_block(self.sheaf, j)
                                 for j in range(self.degrees.start, self.degrees.stop + 1)})

    @cached_property
    def defect_total(self) -> float:
        return incidence_defect(self.sheaf, self.grounding)

    @cached_property
    def _differentials(self) -> dict:
        """Read-only d^n = [[-d_F^{n+1}, 0], [-eps_{n+1}, d_W^n]] into and out
        of every cone degree, the maps the cone Laplacians read."""
        d = {}
        for n in range(self.degrees.start - 1, self.degrees.stop):
            d_f, d_w = coboundary(self.sheaf, n + 1).matrix, coboundary(self.w_sheaf, n).matrix
            # rows C^{n+2}(F) + C^{n+1}(W), columns C^{n+1}(F) + C^n(W)
            f_rows, f_cols = d_f.shape
            m = d[n] = np.zeros((f_rows + d_w.shape[0], f_cols + d_w.shape[1]))
            m[:f_rows, :f_cols] = -d_f
            m[f_rows:, :f_cols] = -self.eps[n + 1]
            m[f_rows:, f_cols:] = d_w
            m.flags.writeable = False
        return d

    def differential(self, n: int) -> np.ndarray:
        """d^n: Cone^n -> Cone^{n+1}, read-only, for n from one below the
        cone's degrees to its top (-2..2 on a clique complex)."""
        return self._differentials[n]

    def laplacian(self, n: int) -> SheafLaplacian:
        return _hodge_laplacian(n, self.differential(n - 1), self.differential(n))


def algebraic_cone(sheaf: CellSheaf, grounding: GroundingMorphism) -> MappingCone:
    """The mapping cone of a vertex-level grounding into constant W; its
    parts are formed on first read."""
    _cell_maps(grounding, "the algebraic cone")
    return MappingCone(sheaf, grounding)


def geometric_cone_sheaf(sheaf: CellSheaf, grounding: GroundingMorphism) -> CellSheaf:
    """Sheaf on the coned complex: apex stalk W, cone restrictions eps_sigma.

    The apex and the cone cell over each base cell carry W; the restriction
    from a base cell into its cone cell is the grounding map, and every
    cone-to-cone restriction is the identity on W.
    """
    maps = _cell_maps(grounding, "the geometric cone")
    base, coned = sheaf.complex, cone_complex(sheaf.complex)
    eye_w = np.eye(grounding.target_dim)
    eye_w.flags.writeable = False
    stalks = sheaf.stalks.copy()
    stalk_w = stalks[(coned.apex,)] = Stalk(eye_w)
    restrictions = sheaf.restrictions.copy()
    for cell in (c for j in base.degrees for c in base.cells(j)):
        cone = cell + (coned.apex,)
        stalks[cone] = stalk_w
        for face in coned.faces(cone):
            restrictions[(face, cone)] = maps[cell] if face == cell else eye_w
    return CellSheaf(coned, stalks, restrictions)


@dataclass(frozen=True)
class ConeEquivalenceReport:
    status: str  # pass | fail | hypothesis-not-met
    defect_norm: float
    max_residual: float | None
    residual_by_degree: dict | None


def verify_cone_equivalence(cone: MappingCone) -> ConeEquivalenceReport:
    """Check that the geometric cone realizes the translated mapping cone.

    Requires a compatible grounding (``cone.defect_total`` at most
    COMPATIBILITY_TOL); otherwise the hypothesis fails and the defect norm is
    reported instead. The coned complex lays its cells out as the translated
    cone, [C^j(F) | C^{j-1}(W)], so in every degree j of the base complex the
    geometric coboundary d_j is compared with the translated differential
    -d^{j-1} entry by entry. The geometric cone has an apex stalk W that the
    cone lacks, so its degree -1 differential is augmented here: one more
    column block, zero over C^1(F) and the identity on W for every vertex
    over C^0(W).
    """
    if cone.defect_total > COMPATIBILITY_TOL:
        return ConeEquivalenceReport("hypothesis-not-met", cone.defect_total, None, None)
    sheaf, grounding = cone.sheaf, cone.grounding
    geo = geometric_cone_sheaf(sheaf, grounding)
    w = grounding.target_dim
    untranslated = {j: cone.differential(j - 1) for j in sheaf.complex.degrees}
    untranslated[0] = np.hstack([untranslated[0], np.vstack(
        [np.zeros((sheaf.cochain_dim(1), w))] + [np.eye(w)] * len(sheaf.complex.cells(0)))])
    # d_j + d^{j-1} is d_j - (-d^{j-1}) to the bit, without the negated copy
    residuals = {j: float(np.max(np.abs(coboundary(geo, j).matrix + d), initial=0.0))
                 for j, d in untranslated.items()}
    worst = max(residuals.values())
    status = "pass" if worst < 1e-12 else "fail"
    return ConeEquivalenceReport(status, cone.defect_total, worst, residuals)


# ---------------------------------------------------------------------------
# Long exact sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LesNodeCheck:
    name: str
    dim: int
    rank_in: int
    rank_out: int
    composite_norm: float
    exact: bool


@dataclass(frozen=True)
class LesReport:
    status: str  # pass | fail | hypothesis-not-met
    defect_norm: float
    nodes: tuple
    betti_f: tuple
    betti_w: tuple
    betti_cone: tuple


def _proves_empty_kernel(m: np.ndarray) -> bool:
    """Whether a floating-point Cholesky factorization of m - sigma I runs
    to completion, with sigma = zero_threshold(tr m) + 2 (N + 2) eps tr m
    for an N x N matrix m (eps: the machine epsilon), C-ordered and exactly
    symmetric. ``m`` is shifted and factored in place by LAPACK's
    ``dpotrf('L')``, which overwrites its triangle above the diagonal
    (where numpy bundles no LAPACK, see ``_lapack``, ``np.linalg.cholesky``
    factors a copy). That triangle is then copied back from its mirror and
    the saved diagonal written back, so no copy or factor is held and ``m``
    is left as it was, bit for bit."""
    assert m.flags.c_contiguous and np.array_equal(m, m.T)
    n, trace = m.shape[0], float(np.trace(m))
    sigma = zero_threshold(trace) + 2 * (n + 2) * np.finfo(float).eps * trace
    diagonal = m.diagonal().copy()
    np.fill_diagonal(m, diagonal - sigma)
    lapack = _lapack()
    try:
        if lapack is not None:
            return lapack("dpotrf", b"L", n, m, max(n, 1)) == 0
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        for i in range(n - 1):
            m[i, i + 1:] = m[i + 1:, i]
        np.fill_diagonal(m, diagonal)


def _cone_kernel(cone: MappingCone, n: int) -> np.ndarray:
    """Harmonic basis of Cone^n, the kernel of its N x N Laplacian L.

    L is assembled once and passes ``decompose``'s symmetry test. When one
    shifted Cholesky factorization completes (``_proves_empty_kernel``),
    the kernel is empty: the ``(N, 0)`` basis, with no eigenvalue computed.
    Otherwise L, unchanged, is frozen and its kernel is ``numerical_kernel``'s,
    behind every check of ``decompose``.

    The rule is sound. A completed factorization of fl(L - sigma I) is an
    exact one of L - sigma I + E, ||E||_2 <= gamma tr L / (1 - gamma) with
    gamma = (N + 1) u / (1 - (N + 1) u) and u = eps / 2, besides the
    rounding of the shift, at most u |L_ii - sigma| per diagonal entry
    (S. M. Rump, "Verification of positive definiteness", BIT 46, 2006).
    So L is positive definite, lambda_max <= tr L, and lambda_min(L) >
    zero_threshold(tr L) + (N + 2) eps tr L: above ``decompose``'s cutoff
    zero_threshold(lambda_max) by more than the backward error of
    ``eigvalsh``, a modest multiple of eps lambda_max. Every kernel proved
    empty here is one that ``kernel_dim`` also counts as 0. A padded
    morphism with square maps is an isomorphism of cochain complexes, so
    its cone is acyclic and is proved empty in every degree.
    """
    m = _gram_sum(cone.differential(n - 1), cone.differential(n))
    _require_symmetric(m)
    if _proves_empty_kernel(m):
        return np.zeros((m.shape[0], 0))
    m.flags.writeable = False
    return numerical_kernel(SheafLaplacian(m, n))


def verify_long_exact_sequence(cone: MappingCone) -> LesReport:
    """Rank exactness of ... -> H^j(F) -> H^j(W) -> H^j(cone) -> H^{j+1}(F) -> ...

    Cohomology is represented by harmonic bases: the kernels of the
    Laplacians of ``cone.sheaf`` and ``cone.w_sheaf``, read from the spectra
    each sheaf keeps (``laplacian_spectrum``), and of the cone's own
    Laplacians. The maps are ``cone.eps``, the inclusion i(c) = (0, c) and
    the projection q(b, c) = -b, so i and q read the W and the F rows of a
    cone basis. Exactness at a node means rank(in) + rank(out) = dim and
    the composite vanishes. An empty zero map closes the chain at each end,
    so node k sits between ``maps[k]`` and ``maps[k + 1]``, and each map is
    ranked once. The hypothesis is a compatible grounding, read from
    ``cone.defect_total``.
    """
    if cone.defect_total > COMPATIBILITY_TOL:
        return LesReport("hypothesis-not-met", cone.defect_total, (), (), (), ())

    # the cone's decompositions are the largest: they run before the sheaves
    # keep their spectra, which lowers the peak memory
    degrees, low, top = cone.sheaf.complex.degrees, cone.degrees[0], cone.degrees[-1]
    harm_c = {n: _cone_kernel(cone, n) for n in cone.degrees}
    harm_f = {j: laplacian_spectrum(cone.sheaf, j).kernel for j in degrees}
    harm_w = {j: laplacian_spectrum(cone.w_sheaf, j).kernel for j in degrees}

    # 0 -> Hc^-1 -> H^0F -> H^0W -> Hc^0 -> H^1F -> ... -> H^top W -> Hc^top -> 0
    chain = [(f"cone^{low}", harm_c[low])]
    maps = [np.zeros((harm_c[low].shape[1], 0))]
    for j in degrees:
        maps.append(-(harm_f[j].T @ harm_c[j - 1][:cone.sheaf.cochain_dim(j)]))
        chain.append((f"F^{j}", harm_f[j]))
        maps.append(harm_w[j].T @ (cone.eps[j] @ harm_f[j]))
        chain.append((f"W^{j}", harm_w[j]))
        maps.append(harm_c[j][cone.sheaf.cochain_dim(j + 1):].T @ harm_w[j])
        chain.append((f"cone^{j}", harm_c[j]))
    maps.append(np.zeros((0, harm_c[top].shape[1])))

    ranks = [numerical_rank(m) for m in maps]
    nodes = []
    for k, (name, basis) in enumerate(chain):
        composite = float(np.max(np.abs(maps[k + 1] @ maps[k]), initial=0.0))
        dim = basis.shape[1]
        exact = ranks[k] + ranks[k + 1] == dim and composite <= 1e-8
        nodes.append(LesNodeCheck(name, dim, ranks[k], ranks[k + 1], composite, exact))

    return LesReport(
        "pass" if all(node.exact for node in nodes) else "fail",
        cone.defect_total,
        tuple(nodes),
        *(tuple(h.shape[1] for h in harm.values()) for harm in (harm_f, harm_w, harm_c)),
    )


# ---------------------------------------------------------------------------
# Diagnostic channel operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSet:
    """The grounded taxonomy operators of a sheaf and the read-only map
    ``eps``: C^1 -> W of its grounding; L_0 and L_1 are
    ``laplacian(channels.sheaf, j)``, kept by the sheaf.

    The rest is formed on first read and kept: the read-only ``relative`` =
    L_1 + eps^T eps, the cone-degree Hodge Laplacian of the grounded complex,
    and ``utilization`` = eps eps^T, an auxiliary Gram operator on W; their
    spectra; and ``coupling_norm`` = ||d_1 eps^T||, the failure of the block
    decomposition on complexes with triangles (0 on cycle complexes).
    """

    sheaf: CellSheaf
    eps: np.ndarray

    @cached_property
    def relative(self) -> SheafLaplacian:
        m = laplacian(self.sheaf, 1).matrix + self.eps.T @ self.eps
        m.flags.writeable = False
        return SheafLaplacian(m, 1)

    @cached_property
    def utilization(self) -> SheafLaplacian:
        m = self.eps @ self.eps.T
        m.flags.writeable = False
        return SheafLaplacian(m, 0)

    @cached_property
    def relative_spectrum(self) -> Spectrum:
        return decompose(self.relative)

    @cached_property
    def utilization_spectrum(self) -> Spectrum:
        return decompose(self.utilization)

    @cached_property
    def coupling_norm(self) -> float:
        return float(np.linalg.norm(coboundary(self.sheaf, 1).matrix @ self.eps.T))


def channel_set(sheaf: CellSheaf, grounding: GroundingMorphism) -> ChannelSet:
    return ChannelSet(sheaf, grounding.c1_map(sheaf))


@dataclass(frozen=True)
class BlockDecompositionReport:
    coupling_norm: float
    asserted: bool
    max_spectral_diff: float | None


def verify_block_decomposition(sheaf: CellSheaf, grounding: GroundingMorphism) -> BlockDecompositionReport:
    """Spectral check of the degree-0 common-ground block decomposition.

    The honest cone Laplacians of the grounded complex are L_1 + eps^T eps
    (on C^1) and [[L_2, d1 eps^T], [eps d1^T, eps eps^T]] (on C^2 + W). When
    the coupling d1 eps^T vanishes, the second must have the spectrum of its
    diagonal blocks L_2 and eps eps^T; the first is on both sides, so it is
    not formed. Otherwise only the coupling norm is reported, never a silent
    assertion, and no spectrum is computed.
    """
    channels = channel_set(sheaf, grounding)
    if channels.coupling_norm >= 1e-10:
        return BlockDecompositionReport(channels.coupling_norm, False, None)
    f2 = sheaf.cochain_dim(2)
    w = channels.eps.shape[0]
    blocks = np.zeros((f2 + w, f2 + w))  # the diagonal blocks L_2 and eps eps^T
    blocks[:f2, :f2] = laplacian(sheaf, 2).matrix
    blocks[f2:, f2:] = channels.utilization.matrix
    coupled = blocks.copy()
    coupled[:f2, f2:] = coboundary(sheaf, 1).matrix @ channels.eps.T
    coupled[f2:, :f2] = coupled[:f2, f2:].T
    diff = np.max(np.abs(_eigenvalues(coupled) - _eigenvalues(blocks)), initial=0.0)
    return BlockDecompositionReport(channels.coupling_norm, True, float(diff))

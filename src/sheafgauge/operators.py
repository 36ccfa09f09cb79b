"""Coboundaries, sheaf Laplacians, groundings, mapping cones and their checks.

Everything is assembled densely: the intended scale is a few thousand total
stalk dimensions, where exactness of the verification matters more than
sparsity. Operators are immutable after assembly and the verification
functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import CliqueComplex, cone_complex
from .sheaves import CellSheaf, Stalk, constant_sheaf

ZERO_ABS = 1e-10
ZERO_REL = 1e-8

#: Incidence defect up to which a grounding counts as a sheaf morphism, the
#: hypothesis of the cone equivalence and the long exact sequence.
COMPATIBILITY_TOL = 1e-8

VERTEX_LEVEL = "vertex-level"
COCHAIN_C1 = "cochain-on-c1"

TARGET_CONSTANT = "constant"
TARGET_CONCENTRATED = "concentrated"


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
    m = np.asarray(matrix, dtype=float)
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > zero_threshold(s[0])))


def numerical_kernel(symmetric_matrix) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of a symmetric PSD matrix."""
    m = np.asarray(symmetric_matrix, dtype=float)
    if m.shape[0] == 0:
        return np.zeros((0, 0))
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    cut = zero_threshold(eigenvalues[-1])
    return eigenvectors[:, eigenvalues <= cut]


# ---------------------------------------------------------------------------
# Coboundaries and Laplacians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coboundary:
    degree: int
    matrix: np.ndarray
    row_slices: dict
    col_slices: dict


def coboundary(sheaf: CellSheaf, j: int) -> Coboundary:
    """Signed block matrix C^j -> C^{j+1}: block (c, f) = sign(c, f) * rho_{f->c}."""
    if j not in (0, 1):
        raise ValueError(f"coboundary degree must be 0 or 1, got {j}")
    rows = sheaf.cell_slices(j + 1)
    cols = sheaf.cell_slices(j)
    matrix = np.zeros((sheaf.cochain_dim(j + 1), sheaf.cochain_dim(j)))
    for coface in sheaf.complex.cells(j + 1):
        for face in sheaf.complex.faces(coface):
            sign = sheaf.complex.incidence_sign(coface, face)
            matrix[rows[coface], cols[face]] = sign * sheaf.restriction(face, coface)
    return Coboundary(j, matrix, rows, cols)


@dataclass(frozen=True)
class SheafLaplacian:
    matrix: np.ndarray
    degree: int
    provenance: str = "base"

    @property
    def dim(self):
        return self.matrix.shape[0]


def laplacian(sheaf: CellSheaf, j: int) -> SheafLaplacian:
    """L_j = d^{j-1} (d^{j-1})^T + (d^j)^T d^j on C^j; down term absent for j = 0."""
    if j not in (0, 1, 2):
        raise ValueError(f"laplacian degree must be 0, 1 or 2, got {j}")
    n = sheaf.cochain_dim(j)
    m = np.zeros((n, n))
    if j >= 1:
        down = coboundary(sheaf, j - 1).matrix
        m += down @ down.T
    if j <= 1:
        up = coboundary(sheaf, j).matrix
        m += up.T @ up
    return SheafLaplacian(0.5 * (m + m.T), j)


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


def betti_numbers(sheaf: CellSheaf) -> tuple[int, int, int]:
    """Cohomology dimensions by rank-nullity of the coboundaries."""
    d0 = coboundary(sheaf, 0).matrix
    d1 = coboundary(sheaf, 1).matrix
    r0, r1 = numerical_rank(d0), numerical_rank(d1)
    b0 = sheaf.cochain_dim(0) - r0
    b1 = sheaf.cochain_dim(1) - r1 - r0
    b2 = sheaf.cochain_dim(2) - r1
    return b0, b1, b2


# ---------------------------------------------------------------------------
# Grounding morphisms
# ---------------------------------------------------------------------------


class GroundingModeError(ValueError):
    pass


@dataclass
class GroundingMorphism:
    """Linear maps from stalks into an ambient reference space W.

    Two modes: ``vertex-level`` stores one map per cell, as produced by the
    padding construction; ``cochain-on-c1`` stores a single map on C^1, the
    regime of the separation check and of the diagnostic channels.
    """

    target_dim: int
    mode: str
    cell_maps: dict | None = None
    c1_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in (VERTEX_LEVEL, COCHAIN_C1):
            raise GroundingModeError(f"unknown grounding mode {self.mode!r}")
        if self.mode == VERTEX_LEVEL and self.cell_maps is None:
            raise GroundingModeError("vertex-level grounding needs cell_maps")
        if self.mode == COCHAIN_C1 and self.c1_matrix is None:
            raise GroundingModeError("cochain-on-c1 grounding needs c1_matrix")

    def cell_map(self, cell):
        if self.cell_maps is None:
            raise GroundingModeError("grounding has no per-cell maps; convert first")
        return self.cell_maps[tuple(cell)]

    def cochain_block(self, sheaf: CellSheaf, j: int) -> np.ndarray:
        """Block-diagonal epsilon_j: C^j(F) -> C^j(W) from the per-cell maps."""
        if self.cell_maps is None:
            raise GroundingModeError("cochain_block needs a vertex-level grounding")
        cells = sheaf.complex.cells(j)
        cols = sheaf.cell_slices(j)
        w = self.target_dim
        matrix = np.zeros((w * len(cells), sheaf.cochain_dim(j)))
        for i, cell in enumerate(cells):
            matrix[i * w : (i + 1) * w, cols[cell]] = self.cell_maps[cell]
        return matrix

    def _stacked_cell_maps(self, sheaf: CellSheaf, j: int) -> np.ndarray:
        """C^j(F) -> W: the degree-j cell maps side by side."""
        cols = sheaf.cell_slices(j)
        matrix = np.zeros((self.target_dim, sheaf.cochain_dim(j)))
        for cell in sheaf.complex.cells(j):
            matrix[:, cols[cell]] = self.cell_maps[cell]
        return matrix

    def aggregated_vertex_map(self, sheaf: CellSheaf) -> np.ndarray:
        """epsilon_0 into a single copy of W: horizontal stack of vertex maps."""
        if self.cell_maps is None:
            raise GroundingModeError("aggregated map needs a vertex-level grounding")
        return self._stacked_cell_maps(sheaf, 0)

    def c1_map(self, sheaf: CellSheaf) -> np.ndarray:
        """Map C^1(F) -> W; vertex-level groundings convert via their edge blocks."""
        if self.mode == COCHAIN_C1:
            if self.c1_matrix.shape[1] != sheaf.cochain_dim(1):
                raise GroundingModeError(
                    f"c1 grounding has width {self.c1_matrix.shape[1]}, "
                    f"C^1 has dim {sheaf.cochain_dim(1)}"
                )
            return self.c1_matrix
        return self._stacked_cell_maps(sheaf, 1)


def grounding_from_padding(sheaf: CellSheaf) -> GroundingMorphism:
    """Embed every stalk into W = R^{d_max} by zero-padding its basis."""
    d_max = sheaf.max_ambient_dim
    cell_maps = {}
    for cell, stalk in sheaf.stalks.items():
        pad = np.zeros((d_max - stalk.ambient_dim, stalk.dim))
        cell_maps[cell] = np.vstack([stalk.basis, pad])
    return GroundingMorphism(d_max, VERTEX_LEVEL, cell_maps=cell_maps)


def grounding_identity_c1(sheaf: CellSheaf) -> GroundingMorphism:
    """Full-rank grounding: the identity on C^1."""
    n = sheaf.cochain_dim(1)
    return GroundingMorphism(n, COCHAIN_C1, c1_matrix=np.eye(n))


def grounding_killing_kernel(sheaf: CellSheaf) -> GroundingMorphism:
    """Rank-deficient grounding annihilating the harmonic 1-cochains.

    epsilon = I - P where P projects onto ker L_1, so epsilon restricted to
    the intrinsic harmonic space has nontrivial kernel whenever ker L_1 != 0.
    """
    kernel = numerical_kernel(laplacian(sheaf, 1).matrix)
    n = sheaf.cochain_dim(1)
    return GroundingMorphism(n, COCHAIN_C1, c1_matrix=np.eye(n) - kernel @ kernel.T)


def grounding_zero_c1(sheaf: CellSheaf) -> GroundingMorphism:
    n = sheaf.cochain_dim(1)
    return GroundingMorphism(n, COCHAIN_C1, c1_matrix=np.zeros((n, n)))


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
    else:
        w = target_dim if target_dim is not None else d
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(w, d)) if seed is not None else np.eye(w, d)
    cell_maps = {cell: a.copy() for cell in sheaf.stalks}
    return GroundingMorphism(a.shape[0], VERTEX_LEVEL, cell_maps=cell_maps)


def propagate_cycle_grounding(sheaf: CellSheaf, seed: int,
                              target_dim: int | None = None) -> GroundingMorphism:
    """Compatible grounding on a cycle bundle, transported from vertex 0.

    Solves epsilon_e rho_{u->e} = epsilon_u along the cycle; the closing
    edge is consistent iff the bundle holonomy is trivial, otherwise
    a ValueError is raised.
    """
    complex_ = sheaf.complex
    n = len(complex_.vertices)
    if complex_.triangles or len(complex_.edges) != n:
        raise ValueError("propagation expects a plain cycle complex")
    d = sheaf.stalk_dim((0,))
    w = target_dim if target_dim is not None else d
    rng = np.random.default_rng(seed)
    cell_maps = {(0,): rng.normal(size=(w, d))}
    chain = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    for u, v in chain[:-1]:
        e = (u, v)
        eps_e = cell_maps[(u,)] @ np.linalg.inv(sheaf.restriction((u,), e))
        cell_maps[e] = eps_e
        cell_maps[(v,)] = eps_e @ sheaf.restriction((v,), e)
    u, v = chain[-1]
    e = (u, v)
    eps_e = cell_maps[(u,)] @ np.linalg.inv(sheaf.restriction((u,), e))
    cell_maps[e] = eps_e
    closure = eps_e @ sheaf.restriction((v,), e) - cell_maps[(v,)]
    if np.max(np.abs(closure)) > 1e-8 * max(1.0, np.max(np.abs(cell_maps[(v,)]))):
        raise ValueError("cycle holonomy obstructs a compatible grounding")
    return GroundingMorphism(w, VERTEX_LEVEL, cell_maps=cell_maps)


# ---------------------------------------------------------------------------
# Incidence defect
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncidenceDefect:
    """Failure of the grounding to commute with the coboundary structure.

    For the constant target the blocks are keyed by (face, coface) and equal
    eps_coface rho - eps_face. For the degree-0 concentrated target (d_W = 0)
    the relevant residual is eps_0 d_0^T, keyed per edge; it is the coupling
    that obstructs the block decomposition of the cone Laplacian.
    """

    target: str
    blocks: dict
    total: float


def incidence_defect(sheaf: CellSheaf, grounding: GroundingMorphism,
                     target: str = TARGET_CONSTANT) -> IncidenceDefect:
    if grounding.mode != VERTEX_LEVEL:
        raise GroundingModeError("incidence defect needs a vertex-level grounding")
    blocks = {}
    if target == TARGET_CONSTANT:
        for (coface, face) in sheaf.complex.incidences:
            delta = grounding.cell_map(coface) @ sheaf.restriction(face, coface) \
                - grounding.cell_map(face)
            blocks[(face, coface)] = delta
    elif target == TARGET_CONCENTRATED:
        for e in sheaf.complex.edges:
            delta = np.zeros((grounding.target_dim, sheaf.stalk_dim(e)))
            for vcell in sheaf.complex.faces(e):
                sign = sheaf.complex.incidence_sign(e, vcell)
                delta += sign * grounding.cell_map(vcell) @ sheaf.restriction(vcell, e).T
            blocks[e] = delta
    else:
        raise ValueError(f"unknown grounding target {target!r}")
    total = math.sqrt(sum(float(np.sum(b * b)) for b in blocks.values()))
    return IncidenceDefect(target, blocks, total)


# ---------------------------------------------------------------------------
# Mapping cones
# ---------------------------------------------------------------------------


@dataclass
class MappingCone:
    """Algebraic mapping cone of a grounding morphism.

    Cone^n = C^{n+1}(F) + C^n(W) with d(a, b) = (-d_F a, -eps a + d_W b).
    The translated cone Cone[1]^n = Cone^{n-1} has differential
    -d^{n-1}: (x, y) -> (d_F x, eps x - d_W y). With an augmented grounding
    complex the translated cone is degreewise identical to the geometric
    cone.
    """

    target: str
    augmented: bool
    f_dims: dict
    w_dims: dict
    d_std: dict
    defect_total: float
    is_complex: bool
    d_squared_residual: float

    def dim(self, n: int) -> int:
        return self.f_dims.get(n + 1, 0) + self.w_dims.get(n, 0)

    def differential(self, n: int) -> np.ndarray:
        if n in self.d_std:
            return self.d_std[n]
        return np.zeros((self.dim(n + 1), self.dim(n)))

    def laplacian(self, n: int) -> SheafLaplacian:
        down = self.differential(n - 1)
        up = self.differential(n)
        m = down @ down.T + up.T @ up
        return SheafLaplacian(0.5 * (m + m.T), n, provenance="algebraic-cone")

    def betti(self, n: int) -> int:
        return (
            self.dim(n)
            - numerical_rank(self.differential(n))
            - numerical_rank(self.differential(n - 1))
        )


def _grounding_complex(sheaf, grounding, target, augmented):
    """Cochain data of the grounding target: dims, differentials, eps per degree."""
    w = grounding.target_dim
    f_dims = {j: sheaf.cochain_dim(j) for j in (0, 1, 2)}
    if target == TARGET_CONSTANT:
        wsheaf = constant_sheaf(sheaf.complex, w)
        w_dims = {j: wsheaf.cochain_dim(j) for j in (0, 1, 2)}
        d_w = {0: coboundary(wsheaf, 0).matrix, 1: coboundary(wsheaf, 1).matrix}
        eps = {j: grounding.cochain_block(sheaf, j) for j in (0, 1, 2)}
        if augmented:
            w_dims[-1] = w
            d_w[-1] = np.vstack([np.eye(w)] * len(sheaf.complex.vertices))
    elif target == TARGET_CONCENTRATED:
        if augmented:
            raise ValueError("augmentation only applies to the constant target")
        w_dims = {0: w}
        d_w = {}
        eps = {0: grounding.aggregated_vertex_map(sheaf)}
    else:
        raise ValueError(f"unknown grounding target {target!r}")
    return f_dims, w_dims, d_w, eps


def algebraic_cone(sheaf: CellSheaf, grounding: GroundingMorphism,
                   target: str = TARGET_CONSTANT, augmented: bool = False) -> MappingCone:
    """Assemble the mapping cone differentials.

    If the incidence defect is nonzero the cone is flagged non-complex and
    the d^2 residual is reported instead of asserted.
    """
    if grounding.mode != VERTEX_LEVEL:
        raise GroundingModeError("the algebraic cone needs a vertex-level grounding")
    f_dims, w_dims, d_w, eps = _grounding_complex(sheaf, grounding, target, augmented)
    d_f = {0: coboundary(sheaf, 0).matrix, 1: coboundary(sheaf, 1).matrix}

    def fd(j):
        return f_dims.get(j, 0)

    def wd(j):
        return w_dims.get(j, 0)

    def dfm(j):
        return d_f.get(j, np.zeros((fd(j + 1), fd(j))))

    def dwm(j):
        return d_w.get(j, np.zeros((wd(j + 1), wd(j))))

    def epsm(j):
        return eps.get(j, np.zeros((wd(j), fd(j))))

    d_std = {}
    for n in range(-2, 3):
        rows, cols = fd(n + 2) + wd(n + 1), fd(n + 1) + wd(n)
        if rows and cols:
            m = np.zeros((rows, cols))
            m[: fd(n + 2), : fd(n + 1)] = -dfm(n + 1)
            m[fd(n + 2) :, : fd(n + 1)] = -epsm(n + 1)
            m[fd(n + 2) :, fd(n + 1) :] = dwm(n)
            d_std[n] = m

    defect = incidence_defect(sheaf, grounding, target).total
    residual = 0.0
    for n in sorted(d_std):
        if n + 1 in d_std:
            residual = max(residual, float(np.max(np.abs(d_std[n + 1] @ d_std[n]))))
    scale = max([1.0] + [float(np.max(np.abs(m))) for m in d_std.values()])
    return MappingCone(
        target=target,
        augmented=augmented,
        f_dims=f_dims,
        w_dims=w_dims,
        d_std=d_std,
        defect_total=defect,
        is_complex=residual <= 1e-10 * scale,
        d_squared_residual=residual,
    )


def geometric_cone_sheaf(sheaf: CellSheaf, grounding: GroundingMorphism) -> CellSheaf:
    """Sheaf on the coned complex: apex stalk W, cone restrictions eps_sigma.

    Cone cells over base cells carry W; the restriction from a base cell into
    its cone cell is the grounding map, all cone-to-cone restrictions are the
    identity on W.
    """
    if grounding.mode != VERTEX_LEVEL:
        raise GroundingModeError("the geometric cone needs a vertex-level grounding")
    coned = cone_complex(sheaf.complex)
    apex = coned.apex
    w = grounding.target_dim
    eye_w = np.eye(w)
    stalks = dict(sheaf.stalks)
    stalks[(apex,)] = Stalk(eye_w)
    restrictions = {k: m.copy() for k, m in sheaf.restrictions.items()}
    for v in sheaf.complex.vertices:
        cone_edge = (v, apex)
        stalks[cone_edge] = Stalk(eye_w)
        restrictions[((v,), cone_edge)] = np.array(grounding.cell_map((v,)))
        restrictions[((apex,), cone_edge)] = eye_w.copy()
    for u, v in sheaf.complex.edges:
        cone_triangle = (u, v, apex)
        stalks[cone_triangle] = Stalk(eye_w)
        restrictions[((u, v), cone_triangle)] = np.array(grounding.cell_map((u, v)))
        restrictions[((v, apex), cone_triangle)] = eye_w.copy()
        restrictions[((u, apex), cone_triangle)] = eye_w.copy()
    return CellSheaf(coned, stalks, restrictions)


@dataclass(frozen=True)
class ConeEquivalenceReport:
    status: str  # pass | fail | hypothesis-not-met
    defect_norm: float
    max_residual: float | None
    residual_by_degree: dict | None


def _cone_layout_index(geo_sheaf, base_sheaf, w, degree):
    """Coordinate map from the geometric cone layout (cells sorted) to the
    translated-cone layout [C^degree(F) | C^{degree-1}(W)]."""
    apex = geo_sheaf.complex.apex
    f_offset = base_sheaf.cell_slices(degree)
    f_total = base_sheaf.cochain_dim(degree)
    base_cells = base_sheaf.complex.cells(degree - 1) if degree >= 1 else ()
    w_index = {cell: i for i, cell in enumerate(base_cells)}
    index = np.empty(geo_sheaf.cochain_dim(degree), dtype=int)
    position = 0
    for cell in geo_sheaf.complex.cells(degree):
        d = geo_sheaf.stalk_dim(cell)
        if apex in cell:
            base = tuple(x for x in cell if x != apex)
            slot = 0 if degree == 0 else w_index[base]
            start = f_total + w * slot
        else:
            start = f_offset[cell].start
        index[position : position + d] = np.arange(start, start + d)
        position += d
    return index


def verify_cone_equivalence(sheaf: CellSheaf, grounding: GroundingMorphism) -> ConeEquivalenceReport:
    """Check that the geometric cone realizes the translated mapping cone.

    Requires a compatible grounding (zero incidence defect); otherwise the
    hypotheses fail and the defect norm is reported instead. The algebraic
    side uses the augmented grounding complex, whose extra degree -1 slot is
    exactly the apex stalk.
    """
    defect = incidence_defect(sheaf, grounding, TARGET_CONSTANT)
    if defect.total > COMPATIBILITY_TOL:
        return ConeEquivalenceReport("hypothesis-not-met", defect.total, None, None)
    geo = geometric_cone_sheaf(sheaf, grounding)
    cone = algebraic_cone(sheaf, grounding, target=TARGET_CONSTANT, augmented=True)
    w = grounding.target_dim
    index = {j: _cone_layout_index(geo, sheaf, w, j) for j in (0, 1, 2)}
    residuals = {}
    for j in (0, 1):
        geometric = coboundary(geo, j).matrix
        translated = -cone.differential(j - 1)
        reordered = translated[np.ix_(index[j + 1], index[j])]
        residuals[j] = float(np.max(np.abs(geometric - reordered))) if geometric.size else 0.0
    worst = max(residuals.values())
    status = "pass" if worst < 1e-12 else "fail"
    return ConeEquivalenceReport(status, defect.total, worst, residuals)


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


def _induced(op, source_basis, target_basis):
    if source_basis.shape[1] == 0 or target_basis.shape[1] == 0:
        return np.zeros((target_basis.shape[1], source_basis.shape[1]))
    return target_basis.T @ (op @ source_basis)


def verify_long_exact_sequence(sheaf: CellSheaf, grounding: GroundingMorphism) -> LesReport:
    """Rank exactness of ... -> H^j(F) -> H^j(W) -> H^j(cone) -> H^{j+1}(F) -> ...

    Cohomology is represented by harmonic bases; the maps are eps, the
    inclusion i(c) = (0, c) and the projection q(b, c) = -b. Exactness at a
    node means rank(in) + rank(out) = dim and the composite vanishes.
    """
    defect = incidence_defect(sheaf, grounding, TARGET_CONSTANT)
    if defect.total > COMPATIBILITY_TOL:
        return LesReport("hypothesis-not-met", defect.total, (), (), (), ())
    w = grounding.target_dim
    wsheaf = constant_sheaf(sheaf.complex, w)
    cone = algebraic_cone(sheaf, grounding, target=TARGET_CONSTANT, augmented=False)

    harm_f = {j: numerical_kernel(laplacian(sheaf, j).matrix) for j in (0, 1, 2)}
    harm_w = {j: numerical_kernel(laplacian(wsheaf, j).matrix) for j in (0, 1, 2)}
    harm_c = {n: numerical_kernel(cone.laplacian(n).matrix) for n in (-1, 0, 1, 2)}

    def eps_map(j):
        return _induced(grounding.cochain_block(sheaf, j), harm_f[j], harm_w[j])

    def i_map(j):
        f_dim = cone.f_dims.get(j + 1, 0)
        w_dim = cone.w_dims.get(j, 0)
        op = np.vstack([np.zeros((f_dim, w_dim)), np.eye(w_dim)])
        return _induced(op, harm_w[j], harm_c[j])

    def q_map(n):
        f_dim = cone.f_dims.get(n + 1, 0)
        w_dim = cone.w_dims.get(n, 0)
        op = np.hstack([-np.eye(f_dim), np.zeros((f_dim, w_dim))])
        return _induced(op, harm_c[n], harm_f[n + 1])

    # 0 -> Hc^-1 -> H^0F -> H^0W -> Hc^0 -> H^1F -> ... -> Hc^2 -> 0
    chain = [("cone^-1", harm_c[-1])]
    maps = []
    for j in (0, 1, 2):
        maps.append(q_map(j - 1))
        chain.append((f"F^{j}", harm_f[j]))
        maps.append(eps_map(j))
        chain.append((f"W^{j}", harm_w[j]))
        maps.append(i_map(j))
        chain.append((f"cone^{j}", harm_c[j]))

    nodes = []
    all_exact = True
    for k, (name, basis) in enumerate(chain):
        incoming = maps[k - 1] if k > 0 else None
        outgoing = maps[k] if k < len(maps) else None
        rank_in = numerical_rank(incoming) if incoming is not None else 0
        rank_out = numerical_rank(outgoing) if outgoing is not None else 0
        if incoming is not None and outgoing is not None and incoming.size and outgoing.size:
            composite = float(np.max(np.abs(outgoing @ incoming)))
        else:
            composite = 0.0
        dim = basis.shape[1]
        exact = (rank_in + rank_out == dim) and composite <= 1e-8
        all_exact = all_exact and exact
        nodes.append(LesNodeCheck(name, dim, rank_in, rank_out, composite, exact))

    return LesReport(
        "pass" if all_exact else "fail",
        defect.total,
        tuple(nodes),
        tuple(harm_f[j].shape[1] for j in (0, 1, 2)),
        tuple(harm_w[j].shape[1] for j in (0, 1, 2)),
        tuple(harm_c[n].shape[1] for n in (-1, 0, 1, 2)),
    )


# ---------------------------------------------------------------------------
# Diagnostic channel operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSet:
    """The four taxonomy operators.

    ``relative`` = L_1 + eps^T eps is the cone-degree Hodge Laplacian of the
    grounded complex; ``utilization`` = eps eps^T is an auxiliary Gram
    operator on W, not a sheaf Laplacian. ``coupling_norm`` = ||d_1 eps^T||
    measures the failure of the block decomposition on complexes with
    triangles (it vanishes identically on cycle complexes).
    """

    l0: SheafLaplacian
    l1: SheafLaplacian
    relative: SheafLaplacian
    utilization: SheafLaplacian
    eps: np.ndarray
    coupling_norm: float


def channel_set(sheaf: CellSheaf, grounding: GroundingMorphism) -> ChannelSet:
    eps = grounding.c1_map(sheaf)
    l0 = laplacian(sheaf, 0)
    l1 = laplacian(sheaf, 1)
    relative = SheafLaplacian(l1.matrix + eps.T @ eps, 1, provenance="channel")
    utilization = SheafLaplacian(eps @ eps.T, 0, provenance="channel")
    d1 = coboundary(sheaf, 1).matrix
    coupling = float(np.linalg.norm(d1 @ eps.T)) if d1.size else 0.0
    return ChannelSet(l0, l1, relative, utilization, eps, coupling)


@dataclass(frozen=True)
class BlockDecompositionReport:
    coupling_norm: float
    asserted: bool
    max_spectral_diff: float | None
    cone_spectrum: np.ndarray
    block_spectrum: np.ndarray


def verify_block_decomposition(sheaf: CellSheaf, grounding: GroundingMorphism) -> BlockDecompositionReport:
    """Spectral check of the degree-0 common-ground block decomposition.

    The honest cone Laplacians of the grounded complex are L_1 + eps^T eps
    (on C^1) and [[d1 d1^T, d1 eps^T], [eps d1^T, eps eps^T]] (on C^2 + W).
    When the coupling d1 eps^T vanishes, their joint spectrum must equal the
    multiset union of the block spectra; otherwise only the coupling norm is
    reported, never a silent assertion.
    """
    channels = channel_set(sheaf, grounding)
    eps = channels.eps
    d1 = coboundary(sheaf, 1).matrix
    f2 = sheaf.cochain_dim(2)
    w = eps.shape[0]
    upper = np.zeros((f2 + w, f2 + w))
    upper[:f2, :f2] = d1 @ d1.T
    upper[:f2, f2:] = d1 @ eps.T
    upper[f2:, :f2] = eps @ d1.T
    upper[f2:, f2:] = eps @ eps.T
    relative = np.linalg.eigvalsh(channels.relative.matrix)
    cone_spectrum = np.sort(
        np.concatenate([relative, np.linalg.eigvalsh(0.5 * (upper + upper.T))])
    )
    block_parts = [relative, np.linalg.eigvalsh(channels.utilization.matrix)]
    if f2:
        block_parts.append(np.linalg.eigvalsh(d1 @ d1.T))
    block_spectrum = np.sort(np.concatenate(block_parts))
    if channels.coupling_norm < 1e-10:
        diff = float(np.max(np.abs(cone_spectrum - block_spectrum))) if cone_spectrum.size else 0.0
        return BlockDecompositionReport(channels.coupling_norm, True, diff,
                                        cone_spectrum, block_spectrum)
    return BlockDecompositionReport(channels.coupling_norm, False, None,
                                    cone_spectrum, block_spectrum)

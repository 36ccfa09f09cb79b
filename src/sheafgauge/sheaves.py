"""Cellular sheaves on 2-truncated clique complexes.

Two construction routes:

* a feature pipeline that extracts node stalks by SVD, edge stalks by
  near-intersection of node stalks, and triangle stalks by a symmetric
  soft intersection of edge stalks;
* synthetic cycle-bundle generators (trivial, Mobius, weak-bond hidden
  twist, noisy trivial) used by the diagnostic experiments.

Stalks store an orthonormal basis of a subspace of a common ambient space;
restriction maps act on stalk coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .complexes import CliqueComplex, Graph, build_clique_complex, cycle_graph

ORTHONORMALITY_TOL = 1e-10
FUNCTORIALITY_TOL = 1e-8

#: Bond weight of the hidden-twist defect edge. Small enough that the lowest
#: mode concentrates its mismatch on the defect instead of spreading the
#: phase around the cycle (concentration wins for weight^2 << 1/n).
HIDDEN_TWIST_WEIGHT = 0.1


class AmbientMismatchError(ValueError):
    """Stalks live in ambient spaces of different dimension."""


@dataclass(frozen=True)
class Stalk:
    """Orthonormal column basis of a subspace of R^ambient_dim."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError("stalk basis must be a 2d array")
        object.__setattr__(self, "basis", b)
        gram = b.T @ b
        if gram.size and np.max(np.abs(gram - np.eye(b.shape[1]))) > ORTHONORMALITY_TOL:
            raise ValueError("stalk basis is not orthonormal")

    @property
    def dim(self):
        return self.basis.shape[1]

    @property
    def ambient_dim(self):
        return self.basis.shape[0]


@dataclass(frozen=True)
class FeaturePipelineConfig:
    svd_tol: float = 1e-8
    edge_align_tol: float = 0.9
    tri_eig_tol: float = 0.5
    tri_exponent: float = 1.0

    def __post_init__(self):
        for name in ("svd_tol", "edge_align_tol", "tri_eig_tol"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.tri_exponent <= 0:
            raise ValueError("tri_exponent must be positive")


class CellSheaf:
    """Stalks per cell plus restriction maps per codimension-1 incidence.

    ``restrictions`` maps ``(face, coface)`` to a matrix of shape
    ``(stalk_dim(coface), stalk_dim(face))``. Immutable after construction.
    """

    def __init__(self, complex_: CliqueComplex, stalks, restrictions, validated=False):
        self.complex = complex_
        self.stalks = dict(stalks)
        self.restrictions = {k: np.asarray(m, dtype=float) for k, m in restrictions.items()}
        self.validated = validated
        for (coface, face) in complex_.incidences:
            if (face, coface) not in self.restrictions:
                raise ValueError(f"missing restriction for incidence {face} < {coface}")
            m = self.restrictions[(face, coface)]
            expected = (self.stalk_dim(coface), self.stalk_dim(face))
            if m.shape != expected:
                raise ValueError(
                    f"restriction {face} -> {coface} has shape {m.shape}, expected {expected}"
                )

    def stalk_dim(self, cell):
        return self.stalks[tuple(cell)].dim

    def restriction(self, face, coface):
        return self.restrictions[(tuple(face), tuple(coface))]

    def cochain_dim(self, j):
        return sum(self.stalk_dim(c) for c in self.complex.cells(j))

    def cell_slices(self, j):
        """Canonical-order slices of each degree-j cell inside C^j."""
        slices = {}
        offset = 0
        for cell in self.complex.cells(j):
            d = self.stalk_dim(cell)
            slices[cell] = slice(offset, offset + d)
            offset += d
        return slices

    @property
    def max_ambient_dim(self):
        return max((s.ambient_dim for s in self.stalks.values()), default=0)

    def copy(self):
        return CellSheaf(
            self.complex,
            dict(self.stalks),
            {k: m.copy() for k, m in self.restrictions.items()},
            validated=self.validated,
        )


@dataclass(frozen=True)
class FunctorialityViolation:
    triangle: tuple
    vertex: tuple
    defect: float


def validate_sheaf(sheaf: CellSheaf, tol: float = FUNCTORIALITY_TOL):
    """Report two-path composition mismatches through every (vertex, triangle) flag.

    For vertex v of triangle t with edges e1, e2 of t containing v, the
    defect is ||rho_{e1->t} rho_{v->e1} - rho_{e2->t} rho_{v->e2}||_F.
    Report-only: returns the list of violations above ``tol``.
    """
    violations = []
    for t in sheaf.complex.triangles:
        for v in t:
            e1, e2 = sorted(e for e in sheaf.complex.faces(t) if v in e)
            via1 = sheaf.restriction(e1, t) @ sheaf.restriction((v,), e1)
            via2 = sheaf.restriction(e2, t) @ sheaf.restriction((v,), e2)
            defect = float(np.linalg.norm(via1 - via2))
            if defect > tol:
                violations.append(FunctorialityViolation(t, (v,), defect))
    return violations


# ---------------------------------------------------------------------------
# Feature pipeline
# ---------------------------------------------------------------------------


def node_stalks_from_features(features, cfg: FeaturePipelineConfig | None = None):
    """Extract one stalk per vertex from its feature matrix by SVD.

    Feature matrices are zero-padded along rows to the common ambient
    dimension; left singular vectors with singular value strictly above
    ``svd_tol * sigma_max`` form the stalk basis.
    """
    cfg = cfg or FeaturePipelineConfig()
    arrays = {}
    for vertex, raw in features.items():
        f = np.asarray(raw, dtype=float)
        if f.ndim == 1:
            f = f[:, None]
        if f.size == 0:
            raise ValueError(f"feature matrix of vertex {vertex} is empty")
        if not np.isfinite(f).all():
            raise ValueError(f"feature matrix of vertex {vertex} contains NaN or inf")
        arrays[vertex] = f
    if not arrays:
        raise ValueError("no feature matrices given; the pipeline needs at least one vertex")
    ambient = max(f.shape[0] for f in arrays.values())
    stalks = {}
    for vertex in sorted(arrays):
        f = arrays[vertex]
        if f.shape[0] < ambient:
            f = np.vstack([f, np.zeros((ambient - f.shape[0], f.shape[1]))])
        u, s, _ = np.linalg.svd(f, full_matrices=False)
        keep = int(np.count_nonzero(s > cfg.svd_tol * s[0])) if s.size else 0
        stalks[vertex] = Stalk(u[:, :keep])
    return stalks


def _polar_orthonormalize(columns):
    u, _, vt = np.linalg.svd(columns, full_matrices=False)
    return u @ vt


def edge_stalk_intersection(bu: Stalk, bv: Stalk, cfg: FeaturePipelineConfig | None = None):
    """Near-intersection of two node stalks.

    Singular directions of Bu^T Bv with singular value above
    ``edge_align_tol`` are nearly aligned in both stalks; their mean
    directions span the edge stalk. Returns ``(stalk, rho_u, rho_v)``; the
    restriction matrices are coordinate projections onto that basis, so the
    construction is symmetric in (u, v) up to basis.
    """
    cfg = cfg or FeaturePipelineConfig()
    if bu.ambient_dim != bv.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dims differ: {bu.ambient_dim} vs {bv.ambient_dim}"
        )
    ambient = bu.ambient_dim
    m = bu.basis.T @ bv.basis
    if min(m.shape) == 0:
        stalk = Stalk(np.zeros((ambient, 0)))
    else:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        keep = s > cfg.edge_align_tol
        if not keep.any():
            stalk = Stalk(np.zeros((ambient, 0)))
        else:
            mean_directions = bu.basis @ u[:, keep] + bv.basis @ vt[keep, :].T
            stalk = Stalk(_polar_orthonormalize(mean_directions))
    return stalk, stalk.basis.T @ bu.basis, stalk.basis.T @ bv.basis


def triangle_stalk_soft_intersection(b_uv, b_vw, b_uw, cfg: FeaturePipelineConfig | None = None):
    """Symmetric soft intersection of the three edge stalks of a triangle.

    Builds T = (P_uv P_vw P_uw)^T (P_uv P_vw P_uw) from the edge-stalk
    projectors and keeps eigenvectors whose eigenvalue, raised to
    ``tri_exponent``, exceeds ``tri_eig_tol``. Returns the stalk and the
    three restriction matrices from the edge stalks, in argument order.
    """
    cfg = cfg or FeaturePipelineConfig()
    dims = {b_uv.ambient_dim, b_vw.ambient_dim, b_uw.ambient_dim}
    if len(dims) != 1:
        raise AmbientMismatchError(f"ambient dims differ: {sorted(dims)}")
    ambient = b_uv.ambient_dim
    product = (
        (b_uv.basis @ b_uv.basis.T)
        @ (b_vw.basis @ b_vw.basis.T)
        @ (b_uw.basis @ b_uw.basis.T)
    )
    alignment = product.T @ product
    eigenvalues, eigenvectors = np.linalg.eigh(alignment)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    keep = np.flatnonzero(eigenvalues**cfg.tri_exponent > cfg.tri_eig_tol)
    keep = keep[np.argsort(-eigenvalues[keep])]
    basis = eigenvectors[:, keep] if keep.size else np.zeros((ambient, 0))
    stalk = Stalk(basis)
    rhos = tuple(stalk.basis.T @ b.basis for b in (b_uv, b_vw, b_uw))
    return (stalk,) + rhos


def build_sheaf_from_features(g: Graph, features, cfg: FeaturePipelineConfig | None = None):
    """Run the full feature pipeline over the clique complex of ``g``."""
    cfg = cfg or FeaturePipelineConfig()
    missing = [v for v in range(g.vertex_count) if v not in features]
    if missing:
        raise ValueError(f"features missing for vertices {missing}")
    complex_ = build_clique_complex(g)
    node_stalks = node_stalks_from_features(features, cfg)
    stalks = {(v,): node_stalks[v] for v in range(g.vertex_count)}
    restrictions = {}
    for u, v in complex_.edges:
        stalk, rho_u, rho_v = edge_stalk_intersection(node_stalks[u], node_stalks[v], cfg)
        stalks[(u, v)] = stalk
        restrictions[((u,), (u, v))] = rho_u
        restrictions[((v,), (u, v))] = rho_v
    for u, v, w in complex_.triangles:
        stalk, r_uv, r_vw, r_uw = triangle_stalk_soft_intersection(
            stalks[(u, v)], stalks[(v, w)], stalks[(u, w)], cfg
        )
        stalks[(u, v, w)] = stalk
        restrictions[((u, v), (u, v, w))] = r_uv
        restrictions[((v, w), (u, v, w))] = r_vw
        restrictions[((u, w), (u, v, w))] = r_uw
    sheaf = CellSheaf(complex_, stalks, restrictions)
    sheaf.validated = not validate_sheaf(sheaf, FUNCTORIALITY_TOL)
    return sheaf


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def rotation_matrix(theta: float, dim: int = 2):
    """Rotation by theta in the plane of the first two coordinates."""
    if dim < 2:
        raise ValueError("rotation needs dim >= 2")
    q = np.eye(dim)
    c, s = np.cos(theta), np.sin(theta)
    q[0, 0] = c
    q[0, 1] = -s
    q[1, 0] = s
    q[1, 1] = c
    return q


def _cycle_sheaf(n: int, stalk_dim: int, edge_maps):
    """Sheaf on the n-cycle: identity from the lower endpoint, ``edge_maps[e]``
    from the higher endpoint."""
    complex_ = build_clique_complex(cycle_graph(n))
    eye = np.eye(stalk_dim)
    stalks = {}
    restrictions = {}
    for v in complex_.vertices:
        stalks[(v,)] = Stalk(eye)
    for e in complex_.edges:
        u, v = e
        stalks[e] = Stalk(eye)
        restrictions[((u,), e)] = eye.copy()
        restrictions[((v,), e)] = np.asarray(edge_maps.get(e, eye), dtype=float)
    return CellSheaf(complex_, stalks, restrictions, validated=True)


def make_line_bundle(n: int, stalk_dim: int = 1, edge_twists=None) -> CellSheaf:
    """Bundle on the n-cycle with orthogonal twist matrices on chosen edges.

    The restriction from the lower endpoint of each edge is the identity;
    from the higher endpoint it is the twist (default identity). Scalars
    are accepted for dimension-1 twists.
    """
    if n < 3:
        raise ValueError("cycle bundles need n >= 3")
    twists = {}
    for edge, raw in (edge_twists or {}).items():
        t = np.atleast_2d(np.asarray(raw, dtype=float))
        if t.shape != (stalk_dim, stalk_dim):
            raise ValueError(f"twist on {edge} has shape {t.shape}")
        if np.max(np.abs(t.T @ t - np.eye(stalk_dim))) > ORTHONORMALITY_TOL:
            raise ValueError(f"twist on edge {edge} is not orthogonal")
        twists[tuple(sorted(edge))] = t
    return _cycle_sheaf(n, stalk_dim, twists)


def trivial_bundle(n: int, stalk_dim: int = 1) -> CellSheaf:
    return make_line_bundle(n, stalk_dim)


def mobius_bundle(n: int, stalk_dim: int = 1) -> CellSheaf:
    """Orientation-reversing bundle: -I twist on the closing edge (0, n-1)."""
    return make_line_bundle(n, stalk_dim, {(0, n - 1): -np.eye(stalk_dim)})


def hidden_twist_bundle(
    n: int,
    tau: float,
    stalk_dim: int = 2,
    defect_edge=(0, 1),
    weight: float = HIDDEN_TWIST_WEIGHT,
) -> CellSheaf:
    """Trivial bundle with a single weak-bond rotation defect.

    Both restrictions of the defect edge are scaled by ``weight`` and the
    higher-endpoint one is additionally rotated by ``tau``. The weak bond
    is where the holonomy mismatch is cheapest to absorb, so low-energy
    modes concentrate their edge energy there; a pure orthogonal defect
    cannot localize, because any placement of it around the cycle is
    related to any other by a per-vertex isometry. At ``tau = 0`` global
    sections exist again (the kernel reappears) for any weight.
    """
    if stalk_dim < 2:
        raise ValueError("hidden twist needs stalk_dim >= 2")
    if not 0 < weight <= 1:
        raise ValueError("weight must lie in (0, 1]")
    defect_edge = tuple(sorted(defect_edge))
    sheaf = _cycle_sheaf(n, stalk_dim, {})
    if defect_edge not in sheaf.complex.edges:
        raise ValueError(f"{defect_edge} is not an edge of the {n}-cycle")
    u, v = defect_edge
    sheaf.restrictions[((u,), defect_edge)] = weight * np.eye(stalk_dim)
    sheaf.restrictions[((v,), defect_edge)] = weight * rotation_matrix(tau, stalk_dim)
    return sheaf


def add_restriction_noise(sheaf: CellSheaf, sigma: float, seed: int) -> CellSheaf:
    """Compose each edge's higher-endpoint restriction with a seeded rotation.

    The rotation angle is drawn N(0, sigma^2) per edge, in canonical edge
    order, and acts in a random 2-plane of the edge stalk (the full plane
    when the stalk is 2-dimensional). Stalks of dimension < 2 admit no
    small orthogonal perturbation and are left untouched. Deterministic
    given the seed; sigma = 0 returns the sheaf unchanged bit-for-bit.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    noisy = sheaf.copy()
    if sigma == 0:
        return noisy
    rng = np.random.default_rng(seed)
    for e in noisy.complex.edges:
        theta = rng.normal(0.0, sigma)
        dim = noisy.stalk_dim(e)
        if dim < 2:
            continue
        if dim == 2:
            q = rotation_matrix(theta)
        else:
            plane, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
            q = np.eye(dim) + plane @ (rotation_matrix(theta) - np.eye(2)) @ plane.T
        u, v = e
        noisy.restrictions[((v,), e)] = q @ noisy.restrictions[((v,), e)]
    return noisy


def noisy_trivial_bundle(n: int, sigma: float, seed: int, stalk_dim: int = 2) -> CellSheaf:
    return add_restriction_noise(trivial_bundle(n, stalk_dim), sigma, seed)


def constant_sheaf(complex_: CliqueComplex, dim: int) -> CellSheaf:
    """Constant sheaf: stalk R^dim everywhere, identity restrictions."""
    eye = np.eye(dim)
    stalks = {}
    restrictions = {}
    for d in (0, 1, 2):
        for cell in complex_.cells(d):
            stalks[cell] = Stalk(eye)
    for (coface, face) in complex_.incidences:
        restrictions[(face, coface)] = eye.copy()
    return CellSheaf(complex_, stalks, restrictions, validated=True)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

SHEAF_SCHEMA_VERSION = "1"


def _matrix_payload(m):
    m = np.asarray(m, dtype=float)
    return {"shape": list(m.shape), "data": m.reshape(-1).tolist()}


def _matrix_from_payload(payload):
    shape = tuple(payload["shape"])
    return np.asarray(payload["data"], dtype=float).reshape(shape)


def sheaf_to_json_dict(sheaf: CellSheaf) -> dict:
    return {
        "schema_version": SHEAF_SCHEMA_VERSION,
        "graph": {
            "vertices": len(sheaf.complex.vertices),
            "edges": [list(e) for e in sheaf.complex.edges],
        },
        "validated": bool(sheaf.validated),
        "stalks": [
            {"cell": list(cell), "basis": _matrix_payload(stalk.basis)}
            for cell, stalk in sorted(sheaf.stalks.items())
        ],
        "restrictions": [
            {"face": list(face), "coface": list(coface), "matrix": _matrix_payload(m)}
            for (face, coface), m in sorted(sheaf.restrictions.items())
        ],
    }


def sheaf_from_json_dict(data: dict) -> CellSheaf:
    version = data.get("schema_version")
    if version != SHEAF_SCHEMA_VERSION:
        raise ValueError(f"unsupported sheaf schema version {version!r}")
    g = Graph(data["graph"]["vertices"], data["graph"]["edges"])
    complex_ = build_clique_complex(g)
    stalks = {
        tuple(item["cell"]): Stalk(_matrix_from_payload(item["basis"]))
        for item in data["stalks"]
    }
    restrictions = {
        (tuple(item["face"]), tuple(item["coface"])): _matrix_from_payload(item["matrix"])
        for item in data["restrictions"]
    }
    return CellSheaf(complex_, stalks, restrictions, validated=data.get("validated", False))


def sheaf_to_json(sheaf: CellSheaf) -> str:
    return json.dumps(sheaf_to_json_dict(sheaf), sort_keys=True)


def sheaf_from_json(text: str) -> CellSheaf:
    return sheaf_from_json_dict(json.loads(text))

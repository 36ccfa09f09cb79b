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
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .complexes import CliqueComplex, Graph, build_clique_complex, cycle_graph

ORTHONORMALITY_TOL = 1e-10
FUNCTORIALITY_TOL = 1e-8

#: Bond weight of the hidden-twist defect edge. Small enough that the lowest
#: mode concentrates its mismatch on the defect instead of spreading the
#: phase around the cycle (concentration wins for weight^2 << 1/n).
HIDDEN_TWIST_WEIGHT = 0.1

#: Edge that carries the hidden-twist defect.
HIDDEN_TWIST_DEFECT_EDGE = (0, 1)


_NO_OWNER = np.zeros(0, dtype=int)
_NO_OWNER.flags.writeable = False


def _read_only(m):
    """``m`` as a read-only float array: shared if it is one, else copied once."""
    a = np.asarray(m, dtype=float)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


class AmbientMismatchError(ValueError):
    """Stalks live in ambient spaces of different dimension."""


@dataclass(frozen=True)
class Stalk:
    """Orthonormal column basis of a subspace of R^ambient_dim, read-only."""

    basis: np.ndarray

    def __post_init__(self):
        b = _read_only(self.basis)
        if b.ndim != 2:
            raise ValueError("stalk basis must be a 2d array")
        if not np.isfinite(b).all():
            raise ValueError("stalk basis contains NaN or inf")
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
        if not (math.isfinite(self.tri_exponent) and self.tri_exponent > 0):
            raise ValueError("tri_exponent must be positive and finite")


def _check_finite(restrictions):
    """Raise unless every entry of every restriction is finite: one test of all
    entries at once, the culprit looked up only on failure."""
    entries = np.concatenate([np.zeros(0)] + [m.ravel() for m in restrictions.values()])
    if not np.isfinite(entries).all():
        face, coface = next(k for k, m in restrictions.items() if not np.isfinite(m).all())
        raise ValueError(f"restriction {face} -> {coface} contains NaN or inf")


class CellSheaf:
    """One stalk per cell and one finite restriction matrix, of shape
    ``(stalk_dim(coface), stalk_dim(face))``, per incidence keyed
    ``(face, coface)``, fixed at construction; a missing or extra key is an
    error. Both are read-only mappings of read-only arrays (a writeable input
    is copied once, a read-only one is shared). So what is computed from a
    sheaf is computed once: the cochain layout (cell slices, owners and the
    scatter index of each coboundary) at construction or first use; each
    coboundary, Laplacian and spectrum, and ``validated``, on first use.

    ``_replacing`` derives a sheaf that swaps some restrictions for others of
    the same shape. It shares the complex, the stalks and the layout, tests
    only the arrays it swaps in and computes its own derived values.
    """

    def __init__(self, complex_: CliqueComplex, stalks, restrictions):
        self.complex = complex_
        self.stalks = MappingProxyType(dict(stalks))
        self.restrictions = MappingProxyType(
            {k: _read_only(m) for k, m in restrictions.items()})
        cells = [complex_.cells(j) for j in (0, 1, 2)]
        known = set().union(*cells)
        if self.stalks.keys() != known:
            missing, extra = known - self.stalks.keys(), self.stalks.keys() - known
            raise ValueError(f"missing stalk for cell {min(missing)}" if missing
                             else f"stalk for {min(extra)}, not a cell of the complex")
        dims = {cell: stalk.dim for cell, stalk in self.stalks.items()}
        for (coface, face) in complex_.incidences:
            if (face, coface) not in self.restrictions:
                raise ValueError(f"missing restriction for incidence {face} < {coface}")
            m = self.restrictions[(face, coface)]
            expected = (dims[coface], dims[face])
            if m.shape != expected:
                raise ValueError(
                    f"restriction {face} -> {coface} has shape {m.shape}, expected {expected}"
                )
        if len(self.restrictions) > len(complex_.incidences):
            face, coface = min(k for k in self.restrictions if k[::-1] not in complex_.incidences)
            raise ValueError(f"restriction {face} -> {coface}, not an incidence of the complex")
        _check_finite(self.restrictions)
        self._slices = {}
        self._owners = {}
        for j in (0, 1, 2):
            sizes = [dims[cell] for cell in cells[j]]
            slices = self._slices[j] = {}
            offset = 0
            for cell, d in zip(cells[j], sizes):
                slices[cell] = slice(offset, offset + d)
                offset += d
            owner = np.repeat(np.arange(len(sizes)), sizes)
            owner.flags.writeable = False
            self._owners[j] = owner
        self._scatter = {}
        self._derived = {}

    def _replacing(self, replaced):
        """This sheaf with the restrictions ``replaced`` gives swapped in.

        Each replacement must be a read-only finite array of the shape of the
        restriction it replaces, so the result can share the complex, the
        stalks, the layout and every array; nothing else is tested again.
        """
        restrictions = dict(self.restrictions)
        for (face, coface), m in replaced.items():
            old = restrictions.get((face, coface))
            if old is None:
                raise ValueError(
                    f"restriction {face} -> {coface}, not an incidence of the complex")
            if m.shape != old.shape:
                raise ValueError(
                    f"restriction {face} -> {coface} has shape {m.shape}, expected {old.shape}")
            if m.flags.writeable:
                raise ValueError(f"restriction {face} -> {coface} is writeable")
        _check_finite(replaced)
        restrictions.update(replaced)
        sheaf = object.__new__(CellSheaf)
        sheaf.complex, sheaf.stalks = self.complex, self.stalks
        sheaf.restrictions = MappingProxyType(restrictions)
        sheaf._slices, sheaf._owners, sheaf._scatter = self._slices, self._owners, self._scatter
        sheaf._derived = {}
        return sheaf

    @property
    def validated(self):
        """No functoriality violation: ``not validate_sheaf(self)``."""
        return not validate_sheaf(self)

    def stalk_dim(self, cell):
        return self.stalks[tuple(cell)].dim

    def restriction(self, face, coface):
        return self.restrictions[(tuple(face), tuple(coface))]

    def cochain_dim(self, j):
        return self.cochain_owner(j).shape[0]

    def cell_slices(self, j):
        """Canonical-order slices of each degree-j cell inside C^j, read-only."""
        return MappingProxyType(self._slices.get(j, {}))

    def cochain_owner(self, j):
        """Read-only index, in ``complex.cells(j)``, of the cell owning each
        coordinate of C^j."""
        return self._owners.get(j, _NO_OWNER)

    @property
    def max_ambient_dim(self):
        return max((s.ambient_dim for s in self.stalks.values()), default=0)

    def derived(self, key, build):
        """``build(self)``, computed on the first request for ``key`` and kept;
        callers key a value by kind and degree and keep it read-only."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def coboundary(self, j):
        """d_j: C^j -> C^{j+1} as a read-only matrix, assembled on first use."""
        if j not in (0, 1):
            raise ValueError(f"coboundary degree must be 0 or 1, got {j}")
        return self.derived(("coboundary", j), lambda sheaf: sheaf._assemble_coboundary(j))

    def _coboundary_scatter(self, j):
        """The degree-j incidences ``(face, coface)`` in table order, the flat
        position in d_j of each entry of their row-major restrictions and the
        sign of each entry; built once per layout."""
        if j not in self._scatter:
            rows, cols = self._slices[j + 1], self._slices[j]
            keys, signs, blocks = [], [], []
            for (coface, face), sign in self.complex.incidences.items():
                if len(face) == j + 1:
                    keys.append((face, coface))
                    signs.append(sign)
                    blocks.append((rows[coface].start, rows[coface].stop, cols[face].start,
                                   cols[face].stop))
            r0, r1, c0, c1 = np.array(blocks, dtype=int).reshape(-1, 4).T
            sizes = (r1 - r0) * (c1 - c0)
            within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            width = np.repeat(c1 - c0, sizes)
            index = ((np.repeat(r0, sizes) + within // width) * self.cochain_dim(j)
                     + np.repeat(c0, sizes) + within % width)
            self._scatter[j] = (tuple(keys), index, np.repeat(np.array(signs, dtype=float), sizes))
        return self._scatter[j]

    def _assemble_coboundary(self, j):
        """Signed block matrix: block (c, f) = sign(c, f) * rho_{f->c}, every
        block written by one scatter of the ravelled restrictions."""
        keys, index, signs = self._coboundary_scatter(j)
        restrictions = self.restrictions
        matrix = np.zeros((self.cochain_dim(j + 1), self.cochain_dim(j)))
        matrix.reshape(-1)[index] = signs * np.concatenate(
            [np.zeros(0)] + [restrictions[k].ravel() for k in keys])
        matrix.flags.writeable = False
        return matrix


@dataclass(frozen=True)
class FunctorialityViolation:
    triangle: tuple
    vertex: tuple
    defect: float


def validate_sheaf(sheaf: CellSheaf):
    """Report two-path composition mismatches through every (vertex, triangle) flag.

    For vertex v of triangle t with edges e1, e2 of t containing v, the
    defect is ||rho_{e1->t} rho_{v->e1} - rho_{e2->t} rho_{v->e2}||_F.
    Report-only: returns the list of violations above ``FUNCTORIALITY_TOL``,
    found in one pass on the first request and kept by the sheaf.
    """
    def violations(sheaf):
        complex_, restrictions = sheaf.complex, sheaf.restrictions
        found = []
        for t in complex_.triangles:
            for v in t:
                e1, e2 = sorted(e for e in complex_.faces(t) if v in e)
                via1 = restrictions[(e1, t)] @ restrictions[((v,), e1)]
                via2 = restrictions[(e2, t)] @ restrictions[((v,), e2)]
                defect = float(np.linalg.norm(via1 - via2))
                if defect > FUNCTORIALITY_TOL:
                    found.append(FunctorialityViolation(t, (v,), defect))
        return tuple(found)

    return list(sheaf.derived("functoriality_violations", violations))


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
    return CellSheaf(complex_, stalks, restrictions)


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


def check_cycle_length(n: int):
    """Raise ValueError unless a bundle on the n-cycle can be built (n >= 4)."""
    if n < 4:
        raise ValueError(
            f"cycle bundles need n >= 4, got n = {n}: the clique complex of the "
            "3-cycle fills in the triangle (0, 1, 2), and a cycle bundle has no "
            "restriction maps into triangles"
        )


def _cycle_sheaf(n: int, stalk_dim: int, maps):
    """Sheaf on the n-cycle whose restrictions are the identity except those
    ``maps`` gives, keyed ``((v,), e)`` like ``CellSheaf.restrictions``.
    Every cell shares one stalk object and every identity restriction one
    read-only array."""
    check_cycle_length(n)
    complex_ = build_clique_complex(cycle_graph(n))
    eye = _read_only(np.eye(stalk_dim))
    stalk = Stalk(eye)
    stalks = {}
    restrictions = {}
    for v in complex_.vertices:
        stalks[(v,)] = stalk
    for e in complex_.edges:
        stalks[e] = stalk
        for v in e:
            key = ((v,), e)
            restrictions[key] = maps.get(key, eye)
    return CellSheaf(complex_, stalks, restrictions)


def make_line_bundle(n: int, stalk_dim: int = 1, edge_twists=None) -> CellSheaf:
    """Bundle on the n-cycle with orthogonal twist matrices on chosen edges.

    The restriction from the lower endpoint of each edge is the identity;
    from the higher endpoint it is the twist (default identity). Scalars
    are accepted for dimension-1 twists. Needs n >= 4: the clique complex
    of the 3-cycle fills in its triangle, to which a bundle on the cycle
    gives no restriction maps.
    """
    twists = {}
    for edge, raw in (edge_twists or {}).items():
        t = np.atleast_2d(np.asarray(raw, dtype=float))
        if t.shape != (stalk_dim, stalk_dim):
            raise ValueError(f"twist on {edge} has shape {t.shape}")
        if np.max(np.abs(t.T @ t - np.eye(stalk_dim))) > ORTHONORMALITY_TOL:
            raise ValueError(f"twist on edge {edge} is not orthogonal")
        e = tuple(sorted(edge))
        twists[((e[1],), e)] = t
    return _cycle_sheaf(n, stalk_dim, twists)


def trivial_bundle(n: int, stalk_dim: int = 1) -> CellSheaf:
    return make_line_bundle(n, stalk_dim)


def mobius_bundle(n: int, stalk_dim: int = 1) -> CellSheaf:
    """Orientation-reversing bundle: -I twist on the closing edge (0, n-1)."""
    return make_line_bundle(n, stalk_dim, {(0, n - 1): -np.eye(stalk_dim)})


def hidden_twist_bundle(n: int, tau: float, stalk_dim: int = 2) -> CellSheaf:
    """Trivial bundle with a single weak-bond rotation defect.

    Both restrictions of the defect edge ``HIDDEN_TWIST_DEFECT_EDGE`` are
    scaled by ``HIDDEN_TWIST_WEIGHT`` and the higher-endpoint one is
    additionally rotated by ``tau``. The weak bond is where the holonomy
    mismatch is cheapest to absorb, so low-energy modes concentrate their
    edge energy there; a pure orthogonal defect cannot localize, because
    any placement of it around the cycle is related to any other by a
    per-vertex isometry. At ``tau = 0`` global sections exist again (the
    kernel reappears).
    """
    if stalk_dim < 2:
        raise ValueError("hidden twist needs stalk_dim >= 2")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    e = HIDDEN_TWIST_DEFECT_EDGE
    weight = HIDDEN_TWIST_WEIGHT
    return _cycle_sheaf(n, stalk_dim, {
        ((e[0],), e): weight * np.eye(stalk_dim),
        ((e[1],), e): weight * rotation_matrix(tau, stalk_dim),
    })


def add_restriction_noise(sheaf: CellSheaf, sigma: float, seed: int) -> CellSheaf:
    """Compose each edge's higher-endpoint restriction with a seeded rotation.

    The rotation angle is drawn N(0, sigma^2) per edge, in canonical edge
    order, and acts in a random 2-plane of the edge stalk (the full plane
    when the stalk is 2-dimensional). Stalks of dimension < 2 admit no
    small orthogonal perturbation and are left untouched. Deterministic
    given the seed; sigma = 0 returns the sheaf unchanged bit-for-bit.

    The whole stream is one draw, in the order of one scalar draw per value:
    each edge's angle, followed, when its stalk is above dimension 2, by the
    2 * dim entries of its plane. Cosines and sines are taken once over all
    angles, and the 2-dimensional edges are rotated by one stacked product
    per restriction shape. The result is ``sheaf._replacing`` the rotated
    maps: it shares the complex, the stalks, the cochain layout and the
    restrictions the noise leaves alone with ``sheaf``.
    """
    if not math.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    if sigma == 0:
        return sheaf._replacing({})
    edges, stalks = sheaf.complex.edges, sheaf.stalks
    dims = [stalks[e].dim for e in edges]
    draws = np.array([1 + 2 * d if d > 2 else 1 for d in dims], dtype=int)
    at = np.cumsum(draws) - draws  # where each edge's angle sits in the stream
    z = np.random.default_rng(seed).normal(0.0, 1.0, size=int(draws.sum()))
    theta = 0.0 + sigma * z[at]  # the float operations of normal(0.0, sigma)
    cos, sin = np.cos(theta), np.sin(theta)
    restrictions = sheaf.restrictions
    rotated = {}
    planar = {}  # restriction shape -> (edge indices, keys) of the 2-dimensional edges
    for i, (e, dim) in enumerate(zip(edges, dims)):
        key = ((e[1],), e)
        if dim == 2:
            indices, keys = planar.setdefault(restrictions[key].shape, ([], []))
            indices.append(i)
            keys.append(key)
        elif dim > 2:
            plane, _ = np.linalg.qr(z[at[i] + 1 : at[i] + 1 + 2 * dim].reshape(dim, 2))
            turn = np.array([[cos[i], -sin[i]], [sin[i], cos[i]]]) - np.eye(2)
            q = np.eye(dim) + plane @ turn @ plane.T
            m = rotated[key] = q.dot(restrictions[key])
            m.flags.writeable = False
    for indices, keys in planar.values():
        c, s = cos[indices], sin[indices]
        q = np.empty((len(indices), 2, 2))
        q[:, 0, 0], q[:, 0, 1], q[:, 1, 0], q[:, 1, 1] = c, -s, s, c
        products = np.matmul(q, np.stack([restrictions[k] for k in keys]))
        products.flags.writeable = False
        rotated.update(zip(keys, products))
    return sheaf._replacing(rotated)


def noisy_trivial_bundle(n: int, sigma: float, seed: int, stalk_dim: int = 2) -> CellSheaf:
    return add_restriction_noise(trivial_bundle(n, stalk_dim), sigma, seed)


def constant_sheaf(complex_: CliqueComplex, dim: int) -> CellSheaf:
    """Constant sheaf: stalk R^dim everywhere (one shared stalk object),
    identity restrictions (one shared read-only array)."""
    eye = _read_only(np.eye(dim))
    stalk = Stalk(eye)
    stalks = {}
    restrictions = {}
    for d in (0, 1, 2):
        for cell in complex_.cells(d):
            stalks[cell] = stalk
    for (coface, face) in complex_.incidences:
        restrictions[(face, coface)] = eye
    return CellSheaf(complex_, stalks, restrictions)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

SHEAF_SCHEMA_VERSION = "1"


def _matrix_payload(m):
    m = np.asarray(m, dtype=float)
    return {"shape": list(m.shape), "data": m.reshape(-1).tolist()}


def _matrix_from_payload(where, name, payload):
    where = f"{where} field {name!r}"
    shape, data = _fields(where, payload, "shape", "data")
    shape = _integers(where, "shape", shape)
    try:
        return np.asarray(data, dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


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


def _fields(where, value, *names):
    """The named fields of one sheaf.json object; a value that is not an
    object, or lacks a field, is an error that says where it is."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} is not a JSON object")
    missing = [name for name in names if name not in value]
    if missing:
        raise ValueError(f"{where} lacks field {missing[0]!r}")
    return tuple(value[name] for name in names)


def _items(kind, items, *names):
    """(name, named fields) of each item of a sheaf.json list."""
    if not isinstance(items, list):
        raise ValueError(f"sheaf field '{kind}s' is not a JSON list")
    for i, item in enumerate(items):
        yield f"{kind} item {i}", _fields(f"{kind} item {i}", item, *names)


def _integers(where, name, value):
    """Field ``name`` of ``where``, a JSON list of integers (a cell or a shape), as a tuple."""
    if not isinstance(value, list) or not all(isinstance(v, int) for v in value):
        raise ValueError(f"{where} field {name!r} is not a list of integers")
    return tuple(value)


def sheaf_from_json_dict(data: dict) -> CellSheaf:
    """Inverse of ``sheaf_to_json_dict``; the ``validated`` key, for readers, is ignored.
    A missing field or a value of the wrong JSON type is a ValueError naming both."""
    if not isinstance(data, dict):
        raise ValueError("sheaf is not a JSON object")
    version = data.get("schema_version")
    if version != SHEAF_SCHEMA_VERSION:
        raise ValueError(f"unsupported sheaf schema version {version!r}")
    graph, stalk_items, restriction_items = _fields("sheaf", data, "graph", "stalks",
                                                    "restrictions")
    complex_ = build_clique_complex(
        Graph(*_fields("sheaf field 'graph'", graph, "vertices", "edges")))
    stalks = {
        _integers(where, "cell", cell): Stalk(_matrix_from_payload(where, "basis", basis))
        for where, (cell, basis) in _items("stalk", stalk_items, "cell", "basis")
    }
    restrictions = {
        (_integers(where, "face", face), _integers(where, "coface", coface)):
            _matrix_from_payload(where, "matrix", matrix)
        for where, (face, coface, matrix) in _items("restriction", restriction_items,
                                                    "face", "coface", "matrix")
    }
    return CellSheaf(complex_, stalks, restrictions)


def sheaf_to_json(sheaf: CellSheaf) -> str:
    return json.dumps(sheaf_to_json_dict(sheaf), sort_keys=True)


def sheaf_from_json(text: str) -> CellSheaf:
    return sheaf_from_json_dict(json.loads(text))

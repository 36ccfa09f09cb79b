"""Cellular sheaves on clique complexes and their cones, in the degrees the
complex has. Two construction routes, on 2-truncated clique complexes:

* a feature pipeline that extracts node stalks by SVD, edge stalks by
  near-intersection of node stalks, and triangle stalks by a symmetric
  soft intersection of edge stalks. Each degree is one stacked pass, one
  numpy call per stack of cells of one shape, bit for bit what the call on
  each cell alone gives; the per-cell functions are its one-cell case;
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
from .fileio import _json_text

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
        object.__setattr__(self, "basis", b)
        gram = b.T @ b
        gram.flat[:: b.shape[1] + 1] -= 1.0
        # a NaN or inf in b makes the Gram test fail too, so the failure picks the message
        if gram.size and not abs(gram).max() <= ORTHONORMALITY_TOL:
            raise ValueError("stalk basis contains NaN or inf" if not np.isfinite(b).all()
                             else "stalk basis is not orthonormal")

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

    def __post_init__(self):
        for name in ("svd_tol", "edge_align_tol", "tri_eig_tol"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")


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
    sheaf is computed once: the cochain layout (cell slices, owners, and the
    scatter index and incidence cells of each coboundary) at construction or
    first use; each coboundary, Laplacian and spectrum, and ``validated``, on first use.

    ``_replacing`` derives a sheaf that swaps some restrictions for others of
    the same shape. It shares the complex, the stalks and the layout, tests
    only the arrays it swaps in and computes its own derived values.
    """

    def __init__(self, complex_: CliqueComplex, stalks, restrictions):
        self.complex = complex_
        self.stalks = MappingProxyType(dict(stalks))
        self.restrictions = MappingProxyType(
            {k: _read_only(m) for k, m in restrictions.items()})
        cells = [complex_.cells(j) for j in complex_.degrees]
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
        for j in complex_.degrees:
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
        """d_j: C^j -> C^{j+1} as a read-only matrix, assembled on first use.

        d_j scatters the complex's degree-j incidences, so 0 -> C^0 -> ... ->
        C^top -> 0 ends in zero maps: for j = -1, j = top and every j outside,
        d_j is a zero matrix of shape (dim C^{j+1}, dim C^j).
        """
        return self.derived(("coboundary", j), lambda sheaf: sheaf._assemble_coboundary(j))

    def incidence_cells(self, j):
        """Read-only rows (coface index in ``complex.cells(j + 1)``, face index in
        ``complex.cells(j)``) of the degree-j incidences, in the order d_j walks them."""
        return self._coboundary_scatter(j)[3]

    def _coboundary_scatter(self, j):
        """The degree-j incidences ``(face, coface)``, coface by coface, the
        flat position in d_j of each entry of their row-major restrictions, the
        sign of each entry and ``incidence_cells``; built once per layout."""
        if j not in self._scatter:
            complex_, cols = self.complex, self._slices.get(j, {})
            at = {cell: (i, s.start, s.stop) for i, (cell, s) in enumerate(cols.items())}
            keys, signs, blocks = [], [], []
            for k, (coface, row) in enumerate(self._slices.get(j + 1, {}).items()):
                head = (k, row.start, row.stop)
                for face in complex_.faces(coface):
                    keys.append((face, coface))
                    signs.append(complex_.incidences[(coface, face)])
                    blocks.append(head + at[face])
            cofaces, r0, r1, faces, c0, c1 = np.array(blocks, dtype=int).reshape(-1, 6).T
            sizes = (r1 - r0) * (c1 - c0)
            within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            width = np.repeat(c1 - c0, sizes)
            index = ((np.repeat(r0, sizes) + within // width) * self.cochain_dim(j)
                     + np.repeat(c0, sizes) + within % width)
            cells = np.array([cofaces, faces])
            cells.flags.writeable = False
            self._scatter[j] = (tuple(keys), index, np.repeat(np.array(signs, float), sizes), cells)
        return self._scatter[j]

    def _assemble_coboundary(self, j):
        """Signed block matrix: block (c, f) = sign(c, f) * rho_{f->c}, every
        block written by one scatter of the ravelled restrictions."""
        keys, index, signs, _ = self._coboundary_scatter(j)
        restrictions = self.restrictions
        matrix = np.zeros((self.cochain_dim(j + 1), self.cochain_dim(j)))
        matrix.reshape(-1)[index] = signs * np.concatenate(
            [np.zeros(0)] + [restrictions[k].ravel() for k in keys])
        matrix.flags.writeable = False
        return matrix


@dataclass(frozen=True)
class FunctorialityViolation:
    triangle: tuple  # the flag's top cell: a triangle, or a tetrahedron on a coned complex
    vertex: tuple  # the flag's bottom face; both names stay, as JSON keys, until schema "2"
    defect: float


def validate_sheaf(sheaf: CellSheaf):
    """Report two-path composition mismatches through every flag of the complex.

    A flag is a cell t, a face v of its faces and the faces e1 < e2 of t on v
    (a triangle, a vertex and two edges); its defect is
    ||rho_{e1->t} rho_{v->e1} - rho_{e2->t} rho_{v->e2}||_F, one stacked pass
    per restriction shape. Report-only: returns the list of violations above
    ``FUNCTORIALITY_TOL``, found on the first request and kept by the sheaf.
    """
    def violations(sheaf):
        complex_, restrictions = sheaf.complex, sheaf.restrictions
        keys = []  # per flag, the incidences e1 < t, v < e1, e2 < t and v < e2
        for t in (cell for j in complex_.degrees for cell in complex_.cells(j)):
            through = {}
            for e in complex_.faces(t):
                for v in complex_.faces(e):
                    through.setdefault(v, []).append(e)
            keys += [((e1, t), (v, e1), (e2, t), (v, e2)) for v, (e1, e2) in through.items()]
        defects = _per_shape(_two_path_defects, [[restrictions[k[i]] for k in keys]
                                                  for i in range(4)])
        return tuple(FunctorialityViolation(t, v, float(defect))
                     for ((_, t), (v, _), _, _), defect in zip(keys, defects)
                     if defect > FUNCTORIALITY_TOL)

    return list(sheaf.derived("functoriality_violations", violations))


def _two_path_defects(e1_t, v_e1, e2_t, v_e2):
    """Defects of stacked flags: each flattened difference times itself by
    ``np.matmul``, the dot that ``np.linalg.norm`` takes of one flag."""
    a = (np.matmul(e1_t, v_e1) - np.matmul(e2_t, v_e2)).reshape(len(e1_t), -1)
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None]))[:, 0, 0]


# ---------------------------------------------------------------------------
# Feature pipeline
# ---------------------------------------------------------------------------


def node_stalks_from_features(features, cfg: FeaturePipelineConfig = FeaturePipelineConfig()):
    """Extract one stalk per vertex from its feature matrix by SVD.

    Feature matrices are zero-padded along rows to the common ambient
    dimension; left singular vectors with singular value strictly above
    ``svd_tol * sigma_max`` form the stalk basis. The vertices whose padded
    features share a shape take one stacked SVD.
    """
    arrays = {}
    for vertex, raw in features.items():
        f = np.asarray(raw, dtype=float)
        if f.ndim == 1:
            f = f[:, None]
        if f.ndim != 2:
            raise ValueError(f"feature matrix of vertex {vertex} must be a vector or a matrix")
        if f.size == 0:
            raise ValueError(f"feature matrix of vertex {vertex} is empty")
        if not np.isfinite(f).all():
            raise ValueError(f"feature matrix of vertex {vertex} contains NaN or inf")
        arrays[vertex] = f
    if not arrays:
        raise ValueError("no feature matrices given; the pipeline needs at least one vertex")
    ambient = max(f.shape[0] for f in arrays.values())
    vertices = sorted(arrays)
    padded = [np.vstack([f, np.zeros((ambient - f.shape[0], f.shape[1]))])
              if f.shape[0] < ambient else f for f in map(arrays.get, vertices)]
    bases = _per_shape(_node_bases, (padded,), cfg.svd_tol)
    return {vertex: Stalk(basis) for vertex, basis in zip(vertices, bases)}


def edge_stalk_intersection(bu: Stalk, bv: Stalk,
                            cfg: FeaturePipelineConfig = FeaturePipelineConfig()):
    """Near-intersection of two node stalks.

    Singular directions of Bu^T Bv with singular value above
    ``edge_align_tol`` are nearly aligned in both stalks; their mean
    directions span the edge stalk. Returns ``(stalk, rho_u, rho_v)``; the
    restriction matrices are coordinate projections onto that basis, so the
    construction is symmetric in (u, v) up to basis.
    """
    if bu.ambient_dim != bv.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dims differ: {bu.ambient_dim} vs {bv.ambient_dim}"
        )
    (basis,) = _edge_bases(bu.basis[None], bv.basis[None], cfg.edge_align_tol)
    return (Stalk(basis),) + _one_cell_restrictions(basis, (bu, bv))


def triangle_stalk_soft_intersection(b_uv, b_vw, b_uw,
                                     cfg: FeaturePipelineConfig = FeaturePipelineConfig()):
    """Symmetric soft intersection of the three edge stalks of a triangle.

    Builds T = (P_uv P_vw P_uw)^T (P_uv P_vw P_uw) from the edge-stalk
    projectors and keeps eigenvectors whose eigenvalue exceeds
    ``tri_eig_tol``, largest first. Returns the stalk and the three
    restriction matrices from the edge stalks, in argument order.
    """
    dims = {b_uv.ambient_dim, b_vw.ambient_dim, b_uw.ambient_dim}
    if len(dims) != 1:
        raise AmbientMismatchError(f"ambient dims differ: {sorted(dims)}")
    edges = (b_uv, b_vw, b_uw)
    (basis,) = _triangle_bases(*(_projectors(b.basis[None]) for b in edges), cfg.tri_eig_tol)
    return (Stalk(basis),) + _one_cell_restrictions(basis, edges)


def build_sheaf_from_features(g: Graph, features,
                              cfg: FeaturePipelineConfig = FeaturePipelineConfig()):
    """Run the full feature pipeline over the clique complex of ``g``, one
    stacked pass per degree: the cells whose operands share a shape go
    through each kernel together (see ``_per_shape``)."""
    missing = [v for v in range(g.vertex_count) if v not in features]
    if missing:
        raise ValueError(f"features missing for vertices {missing}")
    # an extra vertex's rows would still set the ambient dimension of every stalk
    extra = [v for v in features if v not in range(g.vertex_count)]
    if extra:
        raise ValueError(f"features given for vertices {extra}, which the graph lacks")
    complex_ = build_clique_complex(g)
    node_stalks = node_stalks_from_features(features, cfg)
    stalks = {(v,): node_stalks[v] for v in range(g.vertex_count)}
    nodes = [node_stalks[v].basis for v in range(g.vertex_count)]
    edges, triangles = complex_.cells(1), complex_.cells(2)
    edge_bases = _per_shape(_edge_bases, ([nodes[u] for u, _ in edges],
                                          [nodes[v] for _, v in edges]), cfg.edge_align_tol)
    projectors = _per_shape(_projectors, (edge_bases,))
    index = dict(zip(edges, range(len(edges))))
    sides = [(index[(u, v)], index[(v, w)], index[(u, w)]) for u, v, w in triangles]
    triangle_bases = _per_shape(_triangle_bases,
                                [[projectors[s[k]] for s in sides] for k in range(3)],
                                cfg.tri_eig_tol)
    # every restriction's key and its (coface, face) operands, in one order
    keys = ([((v,), e) for e in edges for v in e]
            + [(edges[i], t) for t, s in zip(triangles, sides) for i in s])
    cofaces = [b for b in edge_bases for _ in "uv"] + [b for b in triangle_bases for _ in "uvw"]
    faces = ([nodes[v] for e in edges for v in e]
             + [edge_bases[i] for s in sides for i in s])
    stalks.update(zip(edges + triangles, map(Stalk, edge_bases + triangle_bases)))
    return CellSheaf(complex_, stalks, dict(zip(keys, _per_shape(_coordinates, (cofaces, faces)))))


# Each degree of the pipeline is one stacked pass. A kernel takes stacks of
# the operands of many cells of one shape (a column of operands may already
# be a stack) and makes one np.linalg or np.matmul call per stack; numpy runs
# the same LAPACK or BLAS call on each slice as on one matrix, so each cell's
# result is bit for bit that of the call on the cell alone. The public
# one-cell functions above are that call, on stacks of one. Kernels return
# read-only per-cell views, which stalks and sheaves share without a copy.


def _per_shape(kernel, columns, *args):
    """``kernel(*stacks, *args)`` once per group of cells whose operands share
    their shapes. ``columns`` holds one column per operand, a list of one array
    per cell or a stack whose rows are the cells; a group gathers its cells of
    each column into one stack. Returns the per-cell results, in cell order."""
    groups = {}
    for i, shapes in enumerate(zip(*([a.shape for a in column] for column in columns))):
        groups.setdefault(shapes, []).append(i)
    results = [None] * len(columns[0])
    for cells in groups.values():
        stacks = (column[cells] if isinstance(column, np.ndarray)
                  else np.array([column[i] for i in cells]) for column in columns)
        for i, value in zip(cells, kernel(*stacks, *args)):
            results[i] = value
    return results


def _by_count(counts, stack_of):
    """Per-cell views of ``stack_of(count, cells)``, called once per distinct
    count with the indices of the cells that have it."""
    results = [None] * len(counts)
    for count in sorted(set(counts.tolist())):
        cells = np.flatnonzero(counts == count)
        stack = stack_of(count, cells)
        stack.flags.writeable = False
        for i, value in zip(cells, stack):
            results[i] = value
    return results


def _node_bases(features, svd_tol):
    """Stalk bases of stacked padded feature matrices: the left singular
    vectors above ``svd_tol`` times the largest singular value."""
    u, s, _ = np.linalg.svd(features, full_matrices=False)
    keep = np.count_nonzero(s > svd_tol * s[:, :1], axis=1)
    return _by_count(keep, lambda k, cells: np.ascontiguousarray(u[cells, :, :k]))


def _edge_bases(bu, bv, align_tol):
    """Edge stalk bases of stacked node-basis pairs: the polar factor of the
    mean directions of the singular pairs of Buᵀ Bv above ``align_tol``."""
    n, ambient = bu.shape[:2]
    m = np.matmul(bu.transpose(0, 2, 1), bv)
    ranks = np.zeros(n, dtype=int)
    if m.size:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        ranks = np.count_nonzero(s > align_tol, axis=1)

    def bases(r, cells):
        if r == 0:
            return np.zeros((cells.size, ambient, 0))
        # each cell's u[:, keep] and vt[keep].T, in the layout a 2-d mask index gives
        left = np.ascontiguousarray(u[cells, :, :r].transpose(0, 2, 1)).transpose(0, 2, 1)
        right = np.ascontiguousarray(vt[cells, :r]).transpose(0, 2, 1)
        w, _, zt = np.linalg.svd(np.matmul(bu[cells], left) + np.matmul(bv[cells], right),
                                 full_matrices=False)
        return np.matmul(w, zt)

    return _by_count(ranks, bases)


def _triangle_bases(p_uv, p_vw, p_uw, eig_tol):
    """Triangle stalk bases of stacked edge-projector triples: the
    eigenvectors of (P_uv P_vw P_uw)ᵀ(P_uv P_vw P_uw) above ``eig_tol``,
    largest eigenvalue first."""
    product = np.matmul(np.matmul(p_uv, p_vw), p_uw)
    values, vectors = np.linalg.eigh(np.matmul(product.transpose(0, 2, 1), product))
    ambient = values.shape[1]

    def bases(c, cells):
        # eigh's values ascend, so the kept ones are the last c
        order = np.argsort(-values[cells, ambient - c:], axis=1) + (ambient - c)
        return np.ascontiguousarray(np.take_along_axis(vectors[cells], order[:, None], axis=2))

    return _by_count(np.count_nonzero(values > eig_tol, axis=1), bases)


def _projectors(bases):
    """B Bᵀ of stacked stalk bases, read-only."""
    stack = np.matmul(bases, bases.transpose(0, 2, 1))
    stack.flags.writeable = False
    return stack


def _coordinates(cofaces, faces):
    """Restrictions of stacked (coface basis, face basis) pairs: each face
    basis in the coordinates of its coface basis, Cᵀ F, read-only."""
    stack = np.matmul(cofaces.transpose(0, 2, 1), faces)
    stack.flags.writeable = False
    return stack


def _products(a, b):
    """A B of stacked matrix pairs, read-only."""
    stack = np.matmul(a, b)
    stack.flags.writeable = False
    return stack


def _one_cell_restrictions(basis, faces):
    """The restriction of each face stalk into one cell of stalk basis ``basis``."""
    return tuple(_coordinates(basis[None], f.basis[None])[0] for f in faces)


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
    """The constant sheaf R^stalk_dim on the n-cycle with the restrictions
    ``maps`` gives, keyed ``((v,), e)`` like ``CellSheaf.restrictions``,
    swapped in by ``CellSheaf._replacing``: a key that is not an incidence
    of the cycle, or a map of another shape, is a ValueError."""
    check_cycle_length(n)
    sheaf = constant_sheaf(build_clique_complex(cycle_graph(n)), stalk_dim)
    return sheaf._replacing({key: _read_only(m) for key, m in maps.items()})


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
    angles; the rotations of the 2-dimensional edges are one stack, applied
    by one product per restriction shape (``_per_shape``). The result is
    ``sheaf._replacing`` the rotated maps: it shares the complex, the
    stalks, the cochain layout and the restrictions the noise leaves alone
    with ``sheaf``.
    """
    if not math.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    if sigma == 0:
        return sheaf._replacing({})
    edges, stalks = sheaf.complex.cells(1), sheaf.stalks
    dims = [stalks[e].dim for e in edges]
    draws = np.array([1 + 2 * d if d > 2 else 1 for d in dims], dtype=int)
    at = np.cumsum(draws) - draws  # where each edge's angle sits in the stream
    z = np.random.default_rng(seed).normal(0.0, 1.0, size=int(draws.sum()))
    theta = 0.0 + sigma * z[at]  # the float operations of normal(0.0, sigma)
    cos, sin = np.cos(theta), np.sin(theta)
    restrictions = sheaf.restrictions
    planar = [i for i, dim in enumerate(dims) if dim == 2]
    keys = [((edges[i][1],), edges[i]) for i in planar]
    c, s = cos[planar], sin[planar]
    turns = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    products = _per_shape(_products, (turns, [restrictions[k] for k in keys]))
    rotated = dict(zip(keys, products))
    for i, (e, dim) in enumerate(zip(edges, dims)):
        if dim > 2:
            key = ((e[1],), e)
            plane, _ = np.linalg.qr(z[at[i] + 1 : at[i] + 1 + 2 * dim].reshape(dim, 2))
            turn = np.array([[cos[i], -sin[i]], [sin[i], cos[i]]]) - np.eye(2)
            q = np.eye(dim) + plane @ turn @ plane.T
            m = rotated[key] = q.dot(restrictions[key])
            m.flags.writeable = False
    return sheaf._replacing(rotated)


def noisy_trivial_bundle(n: int, sigma: float, seed: int, stalk_dim: int = 2) -> CellSheaf:
    return add_restriction_noise(trivial_bundle(n, stalk_dim), sigma, seed)


def constant_sheaf(complex_: CliqueComplex, dim: int) -> CellSheaf:
    """Constant sheaf: stalk R^dim everywhere (one shared stalk object),
    identity restrictions (one shared read-only array)."""
    eye = _read_only(np.eye(dim))
    cells = (cell for d in complex_.degrees for cell in complex_.cells(d))
    stalks = dict.fromkeys(cells, Stalk(eye))
    restrictions = dict.fromkeys(((face, coface) for coface, face in complex_.incidences), eye)
    return CellSheaf(complex_, stalks, restrictions)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

SHEAF_SCHEMA_VERSION = "1"


def _matrix_payload(m):
    m = np.asarray(m, dtype=float)
    return {"shape": list(m.shape), "data": m.reshape(-1).tolist()}


def _matrix_from_payload(where, name, payload):
    """The matrix of a sheaf.json payload, read-only: ``Stalk`` and
    ``CellSheaf`` keep it without a copy."""
    where = f"{where} field {name!r}"
    shape, data = _fields(where, payload, "shape", "data")
    shape = _integers(where, "shape", shape)
    try:
        m = np.asarray(data, dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    m.flags.writeable = False
    return m


def sheaf_to_json_dict(sheaf: CellSheaf) -> dict:
    return {
        "schema_version": SHEAF_SCHEMA_VERSION,
        "graph": {
            "vertices": len(sheaf.complex.cells(0)),
            "edges": [list(e) for e in sheaf.complex.cells(1)],
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
    try:
        return tuple(map(value.__getitem__, names))
    except KeyError as exc:
        raise ValueError(f"{where} lacks field {exc.args[0]!r}") from None


def _items(kind, items, *names):
    """(name, named fields) of each item of a sheaf.json list."""
    if not isinstance(items, list):
        raise ValueError(f"sheaf field '{kind}s' is not a JSON list")
    for i, item in enumerate(items):
        where = f"{kind} item {i}"
        yield where, _fields(where, item, *names)


def _integers(where, name, value):
    """Field ``name`` of ``where``, a JSON list of non-negative integers (a cell
    or a shape), as a tuple; a JSON boolean is not an integer."""
    if not isinstance(value, list) or not {int}.issuperset(map(type, value)):
        raise ValueError(f"{where} field {name!r} is not a list of integers")
    if min(value, default=0) < 0:
        raise ValueError(f"{where} field {name!r} has a negative entry {min(value)}")
    return tuple(value)


def _first(given, key, where, label, *parts):
    """Record in ``given`` that item ``where`` gives ``key``; a second item
    for one key is an error naming both items and the key, written as
    ``label.format(*parts)`` only then."""
    if key in given:
        raise ValueError(f"{given[key]} and {where} both give {label.format(*parts)}")
    given[key] = where


def sheaf_from_json_dict(data: dict) -> CellSheaf:
    """Inverse of ``sheaf_to_json_dict``; the ``validated`` key, for readers, is ignored.
    A missing field or a value of the wrong JSON type is a ValueError naming both,
    and so are two items for one cell or one incidence."""
    if not isinstance(data, dict):
        raise ValueError("sheaf is not a JSON object")
    version = data.get("schema_version")
    if version != SHEAF_SCHEMA_VERSION:
        raise ValueError(f"unsupported sheaf schema version {version!r}")
    graph, stalk_items, restriction_items = _fields("sheaf", data, "graph", "stalks",
                                                    "restrictions")
    complex_ = build_clique_complex(
        Graph(*_fields("sheaf field 'graph'", graph, "vertices", "edges")))
    stalks, restrictions, given = {}, {}, {}
    for where, (cell, basis) in _items("stalk", stalk_items, "cell", "basis"):
        cell = _integers(where, "cell", cell)
        _first(given, cell, where, "cell {}", cell)
        basis = _matrix_from_payload(where, "basis", basis)
        try:
            stalks[cell] = Stalk(basis)
        except ValueError as exc:
            raise ValueError(f"{where} field 'basis': {exc}") from None
    for where, (face, coface, matrix) in _items("restriction", restriction_items,
                                                "face", "coface", "matrix"):
        face, coface = _integers(where, "face", face), _integers(where, "coface", coface)
        _first(given, (face, coface), where, "incidence {} < {}", face, coface)
        restrictions[(face, coface)] = _matrix_from_payload(where, "matrix", matrix)
    return CellSheaf(complex_, stalks, restrictions)


def sheaf_to_json(sheaf: CellSheaf) -> str:
    """``sheaf_to_json_dict`` in the JSON text rule of ``fileio``, as ``build`` writes it."""
    return _json_text(sheaf_to_json_dict(sheaf))


def sheaf_from_json(text: str) -> CellSheaf:
    return sheaf_from_json_dict(json.loads(text))

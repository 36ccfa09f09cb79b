"""Oriented 2-truncated clique complexes built from finite simple graphs.

Cells are sorted vertex tuples: ``(v,)`` for vertices, ``(u, v)`` for edges
and ``(u, v, w)`` for triangles. Incidence signs follow the alternating-sum
rule induced by the global vertex order. Cone cells added by
:func:`cone_complex` are oriented apex-first, which flips the sign pattern
on cone edges relative to the sorted orientation (the apex index is largest,
but the apex comes first in the orientation order).
"""

from __future__ import annotations

import json
from itertools import combinations

Cell = tuple  # sorted tuple of vertex ids


class GraphValidationError(ValueError):
    """The input graph violates the simple-graph invariants."""


class IncidenceError(KeyError):
    """A queried (cell, face) pair is not a codimension-1 incidence."""


class Graph:
    """Finite simple graph on vertex set {0, ..., vertex_count - 1}."""

    def __init__(self, vertex_count, edges):
        if not isinstance(vertex_count, int) or isinstance(vertex_count, bool):
            raise GraphValidationError("vertex_count must be an integer")
        if vertex_count < 0:
            raise GraphValidationError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        seen = set()
        normalized = []
        if not isinstance(edges, (list, tuple)):
            raise GraphValidationError("edges must be a list of pairs")
        for raw in edges:
            pair = tuple(raw) if isinstance(raw, (list, tuple)) else ()
            if len(pair) != 2:
                raise GraphValidationError(f"edge {raw!r} is not a pair")
            for x in pair:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise GraphValidationError(
                        f"edge {raw!r} has a non-integer endpoint"
                    )
                if not 0 <= x < vertex_count:
                    raise GraphValidationError(
                        f"edge {raw!r} has endpoint outside [0, {vertex_count})"
                    )
            u, v = pair
            if u == v:
                raise GraphValidationError(f"edge {raw!r} is a self-loop")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphValidationError(f"edge {raw!r} is duplicated")
            seen.add(key)
            normalized.append(key)
        self.edges = tuple(sorted(normalized))

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"Graph(vertex_count={self.vertex_count}, edges={len(self.edges)})"


def graph_from_json(text: str) -> Graph:
    """Parse ``{"vertices": N, "edges": [[u, v], ...]}``.

    Floats and out-of-range indices are rejected.
    """
    data = json.loads(text)
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise GraphValidationError("graph JSON must contain 'vertices' and 'edges'")
    return Graph(data["vertices"], data["edges"])


def graph_to_json(g: Graph) -> str:
    return json.dumps(
        {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]},
        sort_keys=True,
    )


def cycle_graph(n: int) -> Graph:
    """The n-cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise GraphValidationError("cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def _simplex_face_signs(cell):
    # face obtained by omitting position i carries sign (-1)^i
    for i in range(len(cell)):
        yield cell[:i] + cell[i + 1 :], (-1) ** i


class CliqueComplex:
    """Oriented cell complex with cells of dimension at most 2.

    Treated as immutable after construction; safe for concurrent reads.
    """

    def __init__(self, vertices, edges, triangles, incidences, apex=None):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.triangles = tuple(triangles)
        self.incidences = dict(incidences)
        self.apex = apex
        self._faces = {}
        for (cell, face), _sign in self.incidences.items():
            self._faces.setdefault(cell, []).append(face)
        for lst in self._faces.values():
            lst.sort()

    def cells(self, dim):
        if dim == 0:
            return tuple((v,) for v in self.vertices)
        if dim == 1:
            return self.edges
        if dim == 2:
            return self.triangles
        return ()

    def incidence_sign(self, cell, face):
        try:
            return self.incidences[(tuple(cell), tuple(face))]
        except KeyError:
            raise IncidenceError(f"{face} is not a codimension-1 face of {cell}")

    def faces(self, cell):
        return tuple(self._faces.get(tuple(cell), ()))

    def __repr__(self):
        return (
            f"CliqueComplex(|K0|={len(self.vertices)}, |K1|={len(self.edges)}, "
            f"|K2|={len(self.triangles)}, apex={self.apex})"
        )


def build_clique_complex(g: Graph) -> CliqueComplex:
    """2-truncated clique complex of a graph: vertices, edges, 3-cliques.

    Cells above dimension 2 are never created.
    """
    adjacency = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    triangles = []
    for u, v in g.edges:
        for w in sorted(adjacency[u] & adjacency[v]):
            if w > v:
                triangles.append((u, v, w))
    triangles.sort()
    incidences = {}
    for e in g.edges:
        for face, sign in _simplex_face_signs(e):
            incidences[(e, face)] = sign
    for t in triangles:
        for face, sign in _simplex_face_signs(t):
            incidences[(t, face)] = sign
    return CliqueComplex(range(g.vertex_count), g.edges, triangles, incidences)


def cone_complex(base: CliqueComplex) -> CliqueComplex:
    """Adjoin an apex vertex: one cone edge per vertex, one cone triangle per edge.

    The apex index is larger than every base vertex; cone cells are oriented
    apex-first, so the face obtained by dropping the apex always enters the
    coboundary with sign +1. Cones over base triangles would be 3-cells and
    are excluded by the dimension-2 truncation.
    """
    if base.apex is not None:
        raise ValueError("complex already has a cone apex")
    apex = len(base.vertices)
    vertices = base.vertices + (apex,)
    cone_edges = [(v, apex) for v in base.vertices]
    cone_triangles = [(u, v, apex) for (u, v) in base.edges]
    edges = tuple(sorted(base.edges + tuple(cone_edges)))
    triangles = tuple(sorted(base.triangles + tuple(cone_triangles)))
    incidences = dict(base.incidences)
    for v, a in cone_edges:
        # apex-first orientation (a, v): dropping a gives +1, dropping v gives -1
        incidences[((v, a), (v,))] = 1
        incidences[((v, a), (a,))] = -1
    for u, v, a in cone_triangles:
        # orientation (a, u, v)
        incidences[((u, v, a), (u, v))] = 1
        incidences[((u, v, a), (v, a))] = -1
        incidences[((u, v, a), (u, a))] = 1
    return CliqueComplex(vertices, edges, triangles, incidences, apex=apex)

"""Oriented clique complexes built from finite simple graphs.

A complex keeps one tuple of cells per dimension and is the one place that
knows its dimensions (``degrees``). Cells are sorted vertex tuples: ``(v,)``,
``(u, v)``, ``(u, v, w)``. Incidence signs follow the alternating-sum rule
induced by the global vertex order. A clique complex is 2-truncated: it has
the dimensions 0-2, and may have no triangles. Its cone, from
:func:`cone_complex`, has one dimension more: each cone cell follows the
base cells of its dimension and is oriented apex-first, which flips the sign
pattern relative to the sorted orientation (the apex index is largest, but
the apex comes first in the orientation order).
"""

from __future__ import annotations

import json
from itertools import combinations

from .fileio import _json_text

class GraphValidationError(ValueError):
    """The input graph violates the simple-graph invariants."""


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
    """The graph in the JSON text rule of ``fileio``, as ``graph_from_json`` reads it."""
    return _json_text({"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]})


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
    """Oriented cell complex: ``cells``, one tuple of cells per dimension
    0, 1, ..., top (a slot may be empty), and the signed ``incidences``
    keyed ``(cell, face)``.

    Treated as immutable after construction; safe for concurrent reads.
    """

    def __init__(self, cells, incidences, apex=None):
        self._cells = tuple(map(tuple, cells))
        self.incidences = dict(incidences)
        self.apex = apex
        self._faces = {}
        for (cell, face), _sign in self.incidences.items():
            self._faces.setdefault(cell, []).append(face)
        for lst in self._faces.values():
            lst.sort()

    @property
    def degrees(self):
        """The dimensions of the complex, 0 through the top one, as a range."""
        return range(len(self._cells))

    def cells(self, dim):
        return self._cells[dim] if dim in self.degrees else ()

    def faces(self, cell):
        return tuple(self._faces.get(tuple(cell), ()))

    def __repr__(self):
        counts = ", ".join(f"|K{j}|={len(cells)}" for j, cells in enumerate(self._cells))
        return f"CliqueComplex({counts}, apex={self.apex})"


def _require_degree(j, degrees, needs):
    """A ValueError "<needs> 0, 1 or 2, got <j>" unless ``j`` is in ``degrees``."""
    if j not in degrees:
        raise ValueError(f"{needs} {', '.join(map(str, degrees[:-1]))} or {degrees[-1]}, got {j}")


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
    cells = ([(v,) for v in range(g.vertex_count)], g.edges, sorted(triangles))
    incidences = {(cell, face): sign for dim in cells[1:] for cell in dim
                  for face, sign in _simplex_face_signs(cell)}
    return CliqueComplex(cells, incidences)


def cone_complex(base: CliqueComplex) -> CliqueComplex:
    """Adjoin an apex vertex and cone every base cell: one dimension more.

    The cone cell over a base cell is ``cell + (apex,)``, and the apex is the
    cone over the empty cell. Cone cells follow the base cells of their
    dimension, in base order, the apex last: the layout [C^j(F) | C^{j-1}(W)]
    of the translated mapping cone. The apex index is larger than every base
    vertex; cone cells are oriented apex-first, so the face obtained by
    dropping the apex enters the coboundary with sign +1, and the cone over a
    face f of sign s with sign -s (the face of a vertex is the empty cell,
    whose cone is the apex).
    """
    if base.apex is not None:
        raise ValueError("complex already has a cone apex")
    apex = len(base.cells(0))
    cells = [list(base.cells(j)) for j in base.degrees] + [[]]
    incidences = dict(base.incidences)
    for cell in ((),) + tuple(c for j in base.degrees for c in base.cells(j)):
        cone = cell + (apex,)
        cells[len(cell)].append(cone)
        if cell:
            incidences[(cone, cell)] = 1
        for face, sign in _simplex_face_signs(cell):
            incidences[(cone, face + (apex,))] = -sign
    return CliqueComplex(cells, incidences, apex=apex)

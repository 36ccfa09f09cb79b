import json

import numpy as np
import pytest

from sheafgauge.complexes import (
    Graph,
    GraphValidationError,
    build_clique_complex,
    complete_graph,
    cone_complex,
    cycle_graph,
    graph_from_json,
    graph_to_json,
)


def test_triangle_graph_k3():
    k = build_clique_complex(complete_graph(3))
    assert len(k.cells(0)) == 3
    assert len(k.cells(1)) == 3
    assert k.cells(2) == ((0, 1, 2),)


def test_ten_cycle_has_no_triangles():
    k = build_clique_complex(cycle_graph(10))
    assert len(k.cells(0)) == 10
    assert len(k.cells(1)) == 10
    assert k.cells(2) == ()


def test_k4_truncates_tetrahedron():
    k = build_clique_complex(complete_graph(4))
    assert len(k.cells(1)) == 6
    assert len(k.cells(2)) == 4
    assert k.cells(3) == ()


def test_graph_rejects_self_loop_naming_edge():
    with pytest.raises(GraphValidationError, match=r"\(1, 1\)"):
        Graph(3, [(0, 1), (1, 1)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(GraphValidationError, match="duplicated"):
        Graph(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(GraphValidationError, match="outside"):
        Graph(3, [(0, 5)])


def test_graph_json_rejects_floats():
    with pytest.raises(GraphValidationError, match="non-integer"):
        graph_from_json('{"vertices": 3, "edges": [[0, 1.0]]}')


def test_graph_json_round_trip():
    g = Graph(5, [(0, 1), (2, 4), (1, 3)])
    text = graph_to_json(g)
    assert graph_from_json(text) == g
    # the package's one JSON text rule: compact, key-sorted, one line
    assert text == '{"edges":[[0,1],[1,3],[2,4]],"vertices":5}'


def test_incidence_signs_triangle():
    k = build_clique_complex(complete_graph(3))
    assert k.incidences[((0, 1, 2), (1, 2))] == 1
    assert k.incidences[((0, 1, 2), (0, 2))] == -1
    assert k.incidences[((0, 1, 2), (0, 1))] == 1


def test_incidence_signs_edge():
    k = build_clique_complex(complete_graph(3))
    assert k.incidences[((0, 1), (0,))] == -1
    assert k.incidences[((0, 1), (1,))] == 1


def _boundary_squares_to_zero(k):
    # sum over intermediate edges of sign(t, e) * sign(e, v) vanishes
    for t in k.cells(2):
        for v in t:
            total = sum(
                k.incidences[(t, e)] * k.incidences[(e, (v,))]
                for e in k.faces(t)
                if v in e
            )
            assert total == 0


def test_boundary_identity_on_cliques_and_cones():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(4, 9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = [pairs[i] for i in rng.permutation(len(pairs))[: max(n, 6)]]
        k = build_clique_complex(Graph(n, chosen))
        _boundary_squares_to_zero(k)
        _boundary_squares_to_zero(cone_complex(k))


def test_build_order_independent():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    a = build_clique_complex(Graph(4, edges))
    b = build_clique_complex(Graph(4, list(reversed(edges))))
    assert a.cells(1) == b.cells(1)
    assert a.cells(2) == b.cells(2)
    assert a.incidences == b.incidences


def test_cone_over_ten_cycle_counts():
    k = cone_complex(build_clique_complex(cycle_graph(10)))
    assert len(k.cells(0)) == 11
    assert len(k.cells(1)) == 20
    assert len(k.cells(2)) == 10
    assert k.apex == 10


def test_cone_over_single_edge():
    k = cone_complex(build_clique_complex(Graph(2, [(0, 1)])))
    assert len(k.cells(0)) == 3
    assert len(k.cells(1)) == 3
    assert len(k.cells(2)) == 1


def test_cone_over_edgeless_graph():
    k = cone_complex(build_clique_complex(Graph(2, [])))
    assert len(k.cells(0)) == 3
    assert len(k.cells(1)) == 2
    assert len(k.cells(2)) == 0


def test_cone_adds_one_edge_per_vertex_and_one_triangle_per_edge():
    base = build_clique_complex(complete_graph(4))
    coned = cone_complex(base)
    assert len(coned.cells(1)) == len(base.cells(1)) + len(base.cells(0))
    assert len(coned.cells(2)) == len(base.cells(2)) + len(base.cells(1))


@pytest.mark.parametrize("graph", [cycle_graph(5), complete_graph(4), Graph(3, []),
                                   Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5)])],
                         ids=["cycle", "k4", "edgeless", "mixed"])
def test_cone_cells_follow_the_base_cells(graph):
    # the layout [C^j(F) | C^{j-1}(W)] of the translated cone: the base cells
    # of degree j, then one cone cell per base cell of degree j - 1, in base order
    base = build_clique_complex(graph)
    coned = cone_complex(base)
    apex = coned.apex
    assert coned.degrees == range(4)
    for j in coned.degrees:
        below = tuple(cell + (apex,) for cell in base.cells(j - 1)) if j else ((apex,),)
        assert coned.cells(j) == base.cells(j) + below


def test_cone_twice_rejected():
    k = cone_complex(build_clique_complex(cycle_graph(4)))
    with pytest.raises(ValueError, match="apex"):
        cone_complex(k)


def test_cone_apex_first_orientation():
    k = cone_complex(build_clique_complex(Graph(2, [(0, 1)])))
    apex = k.apex
    # dropping the apex from a cone cell always carries sign +1
    assert k.incidences[((0, apex), (0,))] == 1
    assert k.incidences[((0, apex), (apex,))] == -1
    assert k.incidences[((0, 1, apex), (0, 1))] == 1
    assert k.incidences[((0, 1, apex), (1, apex))] == -1
    assert k.incidences[((0, 1, apex), (0, apex))] == 1


def test_cone_tetrahedron_signs():
    # apex-first orientation (a, u, v, w): dropping the apex gives +1, and the
    # cone over each face of (u, v, w) the negated sign of that face
    k = cone_complex(build_clique_complex(complete_graph(3)))
    apex = k.apex
    assert k.cells(3) == ((0, 1, 2, apex),)
    tetrahedron = (0, 1, 2, apex)
    assert k.incidences[(tetrahedron, (0, 1, 2))] == 1
    assert k.incidences[(tetrahedron, (1, 2, apex))] == -1
    assert k.incidences[(tetrahedron, (0, 2, apex))] == 1
    assert k.incidences[(tetrahedron, (0, 1, apex))] == -1
    assert k.faces(tetrahedron) == ((0, 1, 2), (0, 1, apex), (0, 2, apex), (1, 2, apex))


def _incidence_matrix(k, j):
    """The signed incidence matrix of the degree-j cells on the degree-(j+1) cells."""
    rows = {cell: i for i, cell in enumerate(k.cells(j + 1))}
    cols = {cell: i for i, cell in enumerate(k.cells(j))}
    m = np.zeros((len(rows), len(cols)), dtype=int)
    for (cell, face), sign in k.incidences.items():
        if cell in rows and face in cols:
            m[rows[cell], cols[face]] = sign
    return m


_GRAPHS = {"k4": complete_graph(4), "k5": complete_graph(5), "cycle": cycle_graph(6),
           "edgeless": Graph(3, []), "vertexless": Graph(0, [])}


@pytest.mark.parametrize("graph", list(_GRAPHS.values()), ids=list(_GRAPHS))
def test_boundary_squares_to_zero_in_every_degree(graph):
    # on the cones of K4 and K5 this reaches the tetrahedra
    base = build_clique_complex(graph)
    for k in (base, cone_complex(base)):
        for j in k.degrees:
            assert not (_incidence_matrix(k, j) @ _incidence_matrix(k, j - 1)).any()
        # every incidence is between cells of neighbouring degrees
        assert sum(_incidence_matrix(k, j).astype(bool).sum() for j in k.degrees) == \
            len(k.incidences)


@pytest.mark.parametrize("graph", list(_GRAPHS.values()), ids=list(_GRAPHS))
def test_cone_counts_per_degree(graph):
    # |K_j(cone)| = |K_j| + |K_{j-1}|, where the empty cell below the
    # vertices has the apex for its cone
    base = build_clique_complex(graph)
    coned = cone_complex(base)
    assert base.degrees == range(3)
    assert coned.degrees == range(4)
    for j in coned.degrees:
        below = len(base.cells(j - 1)) if j else 1
        assert len(coned.cells(j)) == len(base.cells(j)) + below
    assert len(coned.cells(3)) == len(base.cells(2))
    assert (len(coned.cells(3)) > 0) == (graph in (_GRAPHS["k4"], _GRAPHS["k5"]))


def test_clique_complex_keeps_every_slot_up_to_triangles():
    # a graph without edges or vertices still has degrees 0-2, with empty slots
    for graph, counts in ((Graph(3, []), [3, 0, 0]), (Graph(0, []), [0, 0, 0])):
        k = build_clique_complex(graph)
        assert k.degrees == range(3)
        assert [len(k.cells(j)) for j in k.degrees] == counts
        assert k.cells(-1) == k.cells(3) == ()
        assert repr(k) == f"CliqueComplex(|K0|={counts[0]}, |K1|=0, |K2|=0, apex=None)"

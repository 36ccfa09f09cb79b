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
    assert len(k.vertices) == 3
    assert len(k.edges) == 3
    assert k.triangles == ((0, 1, 2),)


def test_ten_cycle_has_no_triangles():
    k = build_clique_complex(cycle_graph(10))
    assert len(k.vertices) == 10
    assert len(k.edges) == 10
    assert k.triangles == ()


def test_k4_truncates_tetrahedron():
    k = build_clique_complex(complete_graph(4))
    assert len(k.edges) == 6
    assert len(k.triangles) == 4
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
    assert graph_from_json(graph_to_json(g)) == g


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
    for t in k.triangles:
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
    assert a.edges == b.edges
    assert a.triangles == b.triangles
    assert a.incidences == b.incidences


def test_cone_over_ten_cycle_counts():
    k = cone_complex(build_clique_complex(cycle_graph(10)))
    assert len(k.vertices) == 11
    assert len(k.edges) == 20
    assert len(k.triangles) == 10
    assert k.apex == 10


def test_cone_over_single_edge():
    k = cone_complex(build_clique_complex(Graph(2, [(0, 1)])))
    assert len(k.vertices) == 3
    assert len(k.edges) == 3
    assert len(k.triangles) == 1


def test_cone_over_edgeless_graph():
    k = cone_complex(build_clique_complex(Graph(2, [])))
    assert len(k.vertices) == 3
    assert len(k.edges) == 2
    assert len(k.triangles) == 0


def test_cone_adds_one_edge_per_vertex_and_one_triangle_per_edge():
    base = build_clique_complex(complete_graph(4))
    coned = cone_complex(base)
    assert len(coned.edges) == len(base.edges) + len(base.vertices)
    assert len(coned.triangles) == len(base.triangles) + len(base.edges)


@pytest.mark.parametrize("graph", [cycle_graph(5), complete_graph(4), Graph(3, []),
                                   Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5)])],
                         ids=["cycle", "k4", "edgeless", "mixed"])
def test_cone_cells_follow_the_base_cells(graph):
    # the layout [C^j(F) | C^{j-1}(W)] of the translated cone: the base cells
    # of degree j, then one cone cell per base cell of degree j - 1, in base order
    base = build_clique_complex(graph)
    coned = cone_complex(base)
    apex = coned.apex
    for j in (0, 1, 2):
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

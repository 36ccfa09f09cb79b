"""Exact ranks as the certificates' oracle.

Constant sheaves under ``padding`` or an integer ``constant_grounding`` have
coboundaries and cone differentials with small integer entries, so their
ranks can be found exactly by fraction-free Gaussian elimination over Python
integers (Bareiss, Math. Comp. 22, 1968). The float ranks behind
``betti_numbers``, ``kernel_dim`` of L0-L2 and of the four cone Laplacians
(the rank of a Gram matrix is the rank of its factor) and the long exact
sequence (its Betti numbers and every node's ``rank_in`` and ``rank_out``)
are checked against them on K4, K5, the 6-cycle and two G(12, 0.5) graphs,
with R^1 and R^2 stalks, and, without a cone, on the Mobius bundle.

A chain map f: A^j -> B^j induces a map on cohomology of rank
rank [[dA, 0], [f, dB']] - rank dA - rank dB', where dA leaves A^j and dB'
enters B^j: the block matrix's kernel is the pairs (a, b) with dA a = 0 and
f a + dB' b = 0, so the formula is dim (f(ker dA) + im dB') - dim im dB'.
"""

from fractions import Fraction

import numpy as np
import pytest

from sheafgauge.complexes import Graph, build_clique_complex, complete_graph, cycle_graph
from sheafgauge.operators import (
    algebraic_cone,
    betti_numbers,
    coboundary,
    constant_grounding,
    decompose,
    grounding_from_padding,
    kernel_dim,
    laplacian_spectrum,
    verify_long_exact_sequence,
)
from sheafgauge.sheaves import constant_sheaf, mobius_bundle


def bareiss_rank(matrix):
    """Exact rank of a matrix of integers, held as Python integers in an
    object array. After each pivot, every entry below it is a minor of the
    input, so each division by the previous pivot is exact."""
    m = np.asarray(matrix, dtype=float)
    assert np.array_equal(m, np.rint(m)), "the oracle needs integer entries"
    rows = np.rint(m).astype(int).astype(object)
    rank, previous = 0, 1
    for col in range(rows.shape[1]):
        nonzero = np.flatnonzero(rows[rank:, col])
        if not nonzero.size:
            continue
        rows[[rank, rank + nonzero[0]]] = rows[[rank + nonzero[0], rank]]
        top, below = rows[rank], rows[rank + 1:]
        rows[rank + 1:] = (top[col] * below - np.outer(below[:, col], top)) // previous
        previous = top[col]
        rank += 1
        if rank == rows.shape[0]:
            break
    return rank


def _fraction_rank(matrix):
    """Rank by Gaussian elimination over the rationals, to check the oracle."""
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_bareiss_rank_equals_rational_elimination():
    rng = np.random.default_rng(0)
    for _ in range(40):
        shape = tuple(rng.integers(0, 7, size=2))
        # low-rank products and sparse entries give dependent rows and zero columns
        m = rng.integers(-2, 3, size=(shape[0], 2)) @ rng.integers(-2, 3, size=(2, shape[1]))
        m = m + rng.integers(-1, 2, size=shape) * (rng.random(shape) < 0.2)
        assert bareiss_rank(m) == _fraction_rank(m)


def _induced_rank(d_out, f, d_in):
    """Rank of the map on cohomology that the chain map f: A^j -> B^j induces;
    ``d_out``: A^j -> A^{j+1}, ``d_in``: B^{j-1} -> B^j."""
    block = np.block([[d_out, np.zeros((d_out.shape[0], d_in.shape[1]))], [f, d_in]])
    return bareiss_rank(block) - bareiss_rank(d_out) - bareiss_rank(d_in)


def _kernel_dim(d_in, d_out):
    """dim ker (d_in d_inᵀ + d_outᵀ d_out), from the rank of its factor."""
    return d_out.shape[1] - bareiss_rank(np.vstack([d_in.T, d_out]))


def _gnp(seed):
    rng = np.random.default_rng(seed)
    return Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.5])


GRAPHS = {"K4": complete_graph(4), "K5": complete_graph(5), "C6": cycle_graph(6),
          "G12a": _gnp(0), "G12b": _gnp(1)}
FIXTURES = [(graph, dim, "padding") for graph in ("K4", "K5", "C6") for dim in (1, 2)]
FIXTURES += [("G12a", 1, "padding"), ("G12b", 2, "padding")]
FIXTURES += [(graph, 2, "[[1, 0]]") for graph in ("K4", "K5", "C6", "G12b")]


def test_mobius_betti_numbers_and_kernels_are_exact():
    sheaf = mobius_bundle(7)
    ranks = {j: bareiss_rank(coboundary(sheaf, j).matrix) for j in (-1, 0, 1, 2)}
    assert betti_numbers(sheaf) == tuple(
        sheaf.cochain_dim(j) - ranks[j] - ranks[j - 1] for j in (0, 1, 2)) == (0, 0, 0)
    for j in sheaf.complex.degrees:
        assert kernel_dim(laplacian_spectrum(sheaf, j)) == _kernel_dim(
            coboundary(sheaf, j - 1).matrix, coboundary(sheaf, j).matrix)


@pytest.mark.parametrize("graph, dim, grounding", FIXTURES,
                         ids=[f"{g}-R{d}-{e}" for g, d, e in FIXTURES])
def test_betti_numbers_and_les_ranks_are_exact(graph, dim, grounding):
    sheaf = constant_sheaf(build_clique_complex(GRAPHS[graph]), dim)
    cone = algebraic_cone(sheaf, grounding_from_padding(sheaf) if grounding == "padding"
                          else constant_grounding(sheaf, matrix=[[1, 0]]))
    w_sheaf = cone.w_sheaf
    degrees = sheaf.complex.degrees

    def betti(dims, d, degrees=degrees):
        return tuple(dims(j) - bareiss_rank(d(j)) - bareiss_rank(d(j - 1)) for j in degrees)

    def d_f(j):
        return coboundary(sheaf, j).matrix

    def d_w(j):
        return coboundary(w_sheaf, j).matrix

    def cone_dim(n):  # Cone^n = C^{n+1}(F) + C^n(W)
        return sheaf.cochain_dim(n + 1) + w_sheaf.cochain_dim(n)

    betti_f = betti(sheaf.cochain_dim, d_f)
    betti_w = betti(w_sheaf.cochain_dim, d_w)
    betti_cone = betti(cone_dim, cone.differential, range(-1, 3))
    assert betti_numbers(sheaf) == betti_f
    for j in degrees:
        assert kernel_dim(laplacian_spectrum(sheaf, j)) == _kernel_dim(d_f(j - 1), d_f(j))
    for n in range(-1, 3):
        assert kernel_dim(decompose(cone.laplacian(n))) == _kernel_dim(
            cone.differential(n - 1), cone.differential(n))

    # 0 -> Hc^-1 -> H^0F -> H^0W -> Hc^0 -> ... -> Hc^2 -> 0, the maps in order
    ranks = [0]
    for j in degrees:
        f_j, w_j = sheaf.cochain_dim(j), w_sheaf.cochain_dim(j)
        projection = np.hstack([-np.eye(f_j), np.zeros((f_j, w_sheaf.cochain_dim(j - 1)))])
        inclusion = np.vstack([np.zeros((sheaf.cochain_dim(j + 1), w_j)), np.eye(w_j)])
        ranks += [_induced_rank(cone.differential(j - 1), projection, d_f(j - 1)),
                  _induced_rank(d_f(j), cone.eps[j], d_w(j - 1)),
                  _induced_rank(d_w(j), inclusion, cone.differential(j - 1))]
    ranks.append(0)

    report = verify_long_exact_sequence(cone)
    assert report.status == "pass"
    assert (report.betti_f, report.betti_w, report.betti_cone) == (betti_f, betti_w, betti_cone)
    assert [(node.rank_in, node.rank_out) for node in report.nodes] == list(zip(ranks, ranks[1:]))
    dims = [betti_cone[0]] + [b[j] for j in degrees for b in (betti_f, betti_w, betti_cone[1:])]
    assert [node.dim for node in report.nodes] == dims

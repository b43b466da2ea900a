"""Weighted spanning-tree counts: determinant routes, enumeration oracle, and checks.

The determinant route is the matrix-tree theorem: any principal minor of the
weighted Laplacian, in floating point.  The exact route evaluates the same
minor in integer arithmetic and rounds once, with no size cap.  The
enumeration route lists the spanning trees by a depth-first search over the
edges and sums their weight products; it uses no linear algebra, is the
independently trustworthy oracle of the tests and is capped at 24 edges.  A
single-vertex graph counts 1 (the empty product), which the bridge
factorization relies on when a bridge endpoint is a leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchurWalkError
from .graphs import (
    Graph,
    WeightedGraph,
    _endpoints,
    bridges,
    connected_components,
    is_connected,
    subgraph_on_vertices,
)
from .mixing import averaged_weights
from .spectral import Spectrum
from .states import basis_state, edge_state

MAX_ENUM_EDGES = 24
IDENTITY_RTOL = 1e-9


@dataclass(frozen=True)
class TreeCount:
    value: float


def weighted_laplacian(wg: WeightedGraph) -> np.ndarray:
    """Weighted Laplacian: ``-w`` at both entries of each edge, weighted degrees on the diagonal.

    One ``bincount`` over the flat indices of the four entries each edge
    touches, ``(u, u), (v, v), (u, v), (v, u)``, in edge order: each degree
    is summed in the same order as a loop over the edges would sum it.
    """
    n = wg.graph.n_vertices
    flat = _endpoints(wg.graph) @ np.array([[n + 1, 0, n, 1], [0, n + 1, 1, n]])
    signed = wg.weights[:, None] * np.array([1.0, 1.0, -1.0, -1.0])
    lap = np.bincount(flat.ravel(), signed.ravel(), n * n).reshape(n, n)
    return lap.astype(float, copy=False)  # integer zeros when there are no edges


def tree_count_det(wg: WeightedGraph) -> TreeCount:
    """Weighted spanning-tree count as the Laplacian minor without vertex 0.

    Every principal minor gives the same count; a disconnected graph gives
    (numerically) zero.
    """
    if wg.graph.n_vertices == 0:
        raise SchurWalkError("graph has no vertices")
    return TreeCount(float(np.linalg.det(weighted_laplacian(wg)[1:, 1:])))


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a positive semidefinite integer matrix, by fraction-free elimination.

    Bareiss (Math. Comp. 22, 1968): after step ``k`` every entry is a minor
    of the input, so each division by the previous pivot is exact and the
    integers grow only as fast as the minors do.  The pivot at step ``k`` is
    the leading principal minor of order ``k + 1``; in a positive
    semidefinite matrix a vanishing one makes the whole matrix singular, so
    no row exchange is needed.
    """
    a = [row[:] for row in rows]
    size = len(a)
    previous = 1
    for k in range(size):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0:
            return 0
        for row in a[k + 1 :]:
            factor = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // previous
        previous = pivot
    return previous


def tree_count_exact(wg: WeightedGraph) -> TreeCount:
    """Weighted spanning-tree count in exact arithmetic, rounded once to float.

    Each float weight is exactly the ratio of integers
    ``float(w).as_integer_ratio()``.  Scaled by the common denominator ``d``
    of all weights the Laplacian is integral; its minor without vertex 0,
    which is positive semidefinite because the weights are nonnegative, goes
    through :func:`_bareiss_det`, and the count is that determinant over
    ``d**(n-1)``.  Python's integer true division rounds correctly, so that
    quotient is the only rounding and the value is the correctly rounded
    count at every size.
    """
    n = wg.graph.n_vertices
    if n == 0:
        raise SchurWalkError("graph has no vertices")
    ratios = [float(w).as_integer_ratio() for w in wg.weights]
    scale = math.lcm(1, *(den for _, den in ratios))
    lap = [[0] * n for _ in range(n)]
    for (u, v), (num, den) in zip(wg.graph.edges, ratios):
        w = num * (scale // den)
        lap[u][v] -= w
        lap[v][u] -= w
        lap[u][u] += w
        lap[v][v] += w
    det = _bareiss_det([row[1:] for row in lap[1:]])
    return TreeCount(det / scale ** (n - 1))


def log_tree_count(wg: WeightedGraph) -> float:
    """Natural log of the weighted spanning-tree count, by ``slogdet`` of a minor.

    Tree counts shrink like ``m**-(n-1)`` under normalized weights, so the log
    keeps them comparable at any size; a count that is not positive gives
    ``-inf``.
    """
    if wg.graph.n_vertices == 0:
        raise SchurWalkError("graph has no vertices")
    sign, logdet = np.linalg.slogdet(weighted_laplacian(wg)[1:, 1:])
    return float(logdet) if sign > 0 else -math.inf


def scaled_unit_identity(wg: WeightedGraph) -> tuple[float, float, bool]:
    """The count of ``wg``, the unit count over ``m**(n-1)``, and whether they agree.

    Both counts come from :func:`log_tree_count` and are compared relatively,
    ``|lhs - rhs| <= 1e-9 * rhs``, in the log domain, so the verdict means the
    same at every graph size.  Two vanishing counts agree.
    """
    g = wg.graph
    n, m = g.n_vertices, g.n_edges
    log_lhs = log_tree_count(wg)
    log_rhs = log_tree_count(WeightedGraph(g, np.ones(m))) - (n - 1) * math.log(m)
    passed = log_lhs == log_rhs or abs(math.expm1(log_lhs - log_rhs)) <= IDENTITY_RTOL
    return math.exp(log_lhs), math.exp(log_rhs), passed


def _grow_trees(
    edges: tuple[tuple[int, int], ...],
    parent: list[int],
    index: int,
    need: int,
    chosen: list[int],
    trees: list[tuple[int, ...]],
) -> None:
    """Append to ``trees`` every spanning tree that extends the forest ``chosen``.

    ``chosen`` holds the edges taken among those before ``index``, ``parent``
    is their union-find forest without path compression, and ``need`` is the
    number of edges the tree still lacks.  Edge ``index`` is first included,
    when it joins two components, then excluded; the branch is cut once fewer
    edges remain than are needed.  Both ``parent`` and ``chosen`` are
    restored before returning.  A module-level function rather than a
    closure: a nested function that calls itself holds itself in its own
    closure cell, a reference cycle that keeps ``trees`` alive until the
    cyclic collector runs.
    """
    if need == 0:
        trees.append(tuple(chosen))
        return
    if len(edges) - index < need:
        return
    u, v = edges[index]
    while parent[u] != u:
        u = parent[u]
    while parent[v] != v:
        v = parent[v]
    if u != v:
        parent[u] = v
        chosen.append(index)
        _grow_trees(edges, parent, index + 1, need - 1, chosen, trees)
        chosen.pop()
        parent[u] = u
    _grow_trees(edges, parent, index + 1, need, chosen, trees)


def spanning_trees(g: Graph) -> list[tuple[int, ...]]:
    """All spanning trees as sorted tuples of edge indices, in lexicographic order (m <= 24).

    A depth-first search over the edges in index order decides each edge in
    turn, include before exclude, so the trees come out in the order of
    ``itertools.combinations(range(m), n - 1)``.  An edge is included only
    when it joins two components of the forest chosen so far, so every
    branch stays acyclic; a branch ends when it holds ``n - 1`` edges, or
    when fewer edges remain than it still needs.  A disconnected graph has
    no spanning tree and returns ``[]`` before any search.  The work is the
    number of acyclic edge prefixes visited, each an O(n) union-find step,
    not the ``C(m, n - 1)`` subsets of a filter; the recursion is at most
    ``m + 1`` deep.
    """
    if g.n_vertices == 0:
        raise SchurWalkError("graph has no vertices")
    if g.n_edges > MAX_ENUM_EDGES:
        raise SchurWalkError(f"{g.n_edges} edges exceeds the enumeration cap {MAX_ENUM_EDGES}")
    if not is_connected(g):
        return []
    trees: list[tuple[int, ...]] = []
    _grow_trees(g.edges, list(range(g.n_vertices)), 0, g.n_vertices - 1, [], trees)
    return trees


def tree_count_enum(wg: WeightedGraph) -> TreeCount:
    """Enumeration oracle: sum of weight products over all spanning trees."""
    weights = wg.weights.tolist()
    total = 0.0
    for tree in spanning_trees(wg.graph):
        product = 1.0
        for idx in tree:
            product *= weights[idx]
        total += product
    return TreeCount(total)


def main_theorem_check(g: Graph, e: np.ndarray, spectrum: Spectrum) -> dict:
    """Compare the tree count of the time-averaged weighted graph with the target.

    ``lhs`` is the spanning-tree count of the averaged induced graph of ``e``;
    ``rhs`` is the unit-weight count scaled by ``m**-(n-1)``.  The two agree
    whenever ``e`` is uniform commutative with full support; ``passed`` is
    the relative comparison of :func:`scaled_unit_identity`.
    """
    if not is_connected(g):
        raise SchurWalkError("graph is not connected")
    vec = edge_state(e)
    if vec.shape != (g.n_edges,):
        raise SchurWalkError(
            f"state has {vec.shape[0]} amplitudes, graph has {g.n_edges} edges"
        )
    if np.abs(vec).min() <= 1e-12:
        raise SchurWalkError("state amplitude vanishes on some edge")

    lhs, rhs, passed = scaled_unit_identity(WeightedGraph(g, averaged_weights(spectrum, vec)))

    moduli = np.abs(vec)
    uniform = bool(np.abs(moduli - moduli[0]).max() < 1e-9)
    # A e = theta_D e + V_R ((theta_R - theta_D) * (V_R^T e)), from the columns
    # outside the dominant eigenspace.
    v_r = spectrum.rest_basis
    image = spectrum.dominant_eigenvalue * vec + v_r @ (spectrum.rest_offsets * (v_r.T @ vec))
    lam = float(np.real(np.vdot(vec, image)))
    commutative = bool(np.linalg.norm(image - lam * vec) < 1e-8)

    return {
        "lhs": lhs,
        "rhs": rhs,
        "is_uniform_commutative": uniform and commutative,
        "passed": passed,
    }


def bridge_factorization_check(wg: WeightedGraph, bridge_index: int) -> dict:
    """Whole-graph count versus bridge weight times the two component counts."""
    g = wg.graph
    if bridge_index not in bridges(g):
        raise SchurWalkError(f"edge {bridge_index} is not a bridge")
    whole = tree_count_det(wg).value

    reduced = Graph(g.n_vertices, g.edges[:bridge_index] + g.edges[bridge_index + 1 :])
    components = connected_components(reduced)
    u, v = g.edges[bridge_index]
    side_u = next(c for c in components if u in c)
    side_v = next(c for c in components if v in c)
    product = wg.weights[bridge_index]
    for side in (side_u, side_v):
        sub, edge_map = subgraph_on_vertices(g, side)
        product *= tree_count_det(WeightedGraph(sub, wg.weights[edge_map])).value
    return {"whole": whole, "product": float(product)}


def pure_state_tree_count(g: Graph, q: int, spectrum: Spectrum) -> TreeCount:
    """Tree count under the weights a pure state on edge ``q`` averages to.

    The weight of edge ``p`` is entry ``[p, q]`` of the average mixing matrix;
    a global phase on the state would not change it.
    """
    if not is_connected(g):
        raise SchurWalkError("graph is not connected")
    if not 0 <= q < g.n_edges:
        raise ValueError(f"edge index {q} out of range")
    weights = averaged_weights(spectrum, basis_state(g.n_edges, q))
    return tree_count_det(WeightedGraph(g, weights))

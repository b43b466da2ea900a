"""Hypothesis inputs with known eigenspaces, and projectors built apart from schurwalk.

Shared by the property tests of the spectral, mixing, classify and
treecount modules.  The matrix inputs are random symmetric matrices with
planted degeneracies and the line graphs of K_n, C_n and K_{a,b}, whose
eigenspaces are highly degenerate.  The graph inputs are connected graphs,
some with every degree even and an even edge count.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from schurwalk import (
    Graph,
    adjacency_matrix,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    line_graph,
)
from schurwalk.graphs import is_connected

seeds = st.integers(0, 2**32 - 1)


@st.composite
def planted_matrices(draw) -> np.ndarray:
    """Symmetric matrix with repeated integer eigenvalues in a random orthonormal basis."""
    rng = np.random.default_rng(draw(seeds))
    size = draw(st.integers(1, 12))
    levels = rng.choice(np.arange(-6, 7), size=draw(st.integers(1, size)), replace=False)
    eigenvalues = levels[rng.integers(len(levels), size=size)]
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    a = (q * eigenvalues) @ q.T
    return (a + a.T) / 2


line_graph_matrices = st.one_of(
    st.integers(3, 7).map(complete_graph),
    st.integers(3, 12).map(cycle_graph),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda sizes: complete_bipartite_graph(*sizes)
    ),
).map(lambda g: adjacency_matrix(line_graph(g)).astype(float))

symmetric_matrices = st.one_of(planted_matrices(), line_graph_matrices)


def reference_eigenspaces(a: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(eigenvalue, projector) per eigenspace, from ``eigh`` and a cut at every gap > 1e-6."""
    values, vectors = np.linalg.eigh(a)
    if not len(values):
        return []
    gap = 1e-6 * max(1.0, float(np.abs(values).max()))
    groups = np.split(np.arange(len(values)), np.flatnonzero(np.diff(values) > gap) + 1)
    return [(float(values[g].mean()), vectors[:, g] @ vectors[:, g].T) for g in groups]


def random_matrix(seed: int, size: int) -> np.ndarray:
    """Complex matrix of unit Frobenius norm."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return x / np.linalg.norm(x)


def random_state(seed: int, size: int) -> np.ndarray:
    """Complex unit vector."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return e / np.linalg.norm(e)


@st.composite
def connected_graphs(draw, max_vertices: int = 8) -> Graph:
    """Connected graph: a random spanning tree plus any set of extra edges."""
    n = draw(st.integers(2, max_vertices))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return Graph(n, tuple(edges))


@st.composite
def even_connected_graphs(draw) -> Graph:
    """Connected graph with every degree even and an even number of edges.

    A Hamiltonian cycle, then the symmetric difference with random triangles:
    each triangle keeps every degree even and flips the parity of the edge
    count.
    """
    n = draw(st.integers(3, 9))
    order = draw(st.permutations(range(n)))
    edges = {frozenset((order[i], order[i - 1])) for i in range(n)}
    corners = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    for a, b, c in draw(st.lists(corners, max_size=6)):
        edges ^= {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))}
    g = Graph(n, tuple(tuple(sorted(edge)) for edge in edges))
    assume(g.n_edges % 2 == 0 and is_connected(g))
    return g


def _planted(eigenvalues: list[float], seed: int = 7) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))
    a = (q * np.asarray(eigenvalues, dtype=float)) @ q.T
    return (a + a.T) / 2


# Edge cases of the dominant group: matrix and the index of its dominant group.
SMALL_SPECTRA = {
    "empty": (np.zeros((0, 0)), 0),
    "one by one": (np.array([[3.0]]), 0),
    "no repeated eigenvalue": (_planted([-2.0, -1.0, 0.5, 1.0, 3.0]), 0),
    "tie, first group wins": (_planted([1.0, 1.0, 2.0, 2.0, 3.0]), 0),
    "tie, later groups": (_planted([-1.0, 2.0, 2.0, 5.0, 5.0]), 1),
}

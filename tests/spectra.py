"""Hypothesis inputs with known eigenspaces, and projectors built apart from schurwalk.

Shared by the property tests of the spectral and mixing modules.  The
inputs are random symmetric matrices with planted degeneracies and the line
graphs of K_n, C_n and K_{a,b}, whose eigenspaces are highly degenerate.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from schurwalk import (
    adjacency_matrix,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    line_graph,
)

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

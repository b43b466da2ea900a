"""Seeded graph and state generators, written with numpy and the stdlib only.

Nothing here imports schurwalk, so the program only ever receives inputs it
had no hand in shaping.  Edge lists are sorted ``(u, v)`` pairs with
``u < v``, which is the canonical edge order the program uses.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues of the line-graph adjacency closer than this (relative to the
# spectral radius) count as one level when choosing a simple eigenvector.
# It is far wider than the program's own grouping tolerance (1e-8), so a
# level chosen here is simple under either.
SIMPLE_GAP = 1e-4


def is_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def degrees(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    deg = np.zeros(n, dtype=int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def random_connected_edges(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int]]:
    """A random spanning tree plus ``m - n + 1`` further distinct edges."""
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        u, v = int(order[i]), int(order[rng.integers(i)])
        edges.add((min(u, v), max(u, v)))
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    for idx in rng.choice(len(free), m - (n - 1), replace=False):
        edges.add(free[int(idx)])
    return sorted(edges)


def _toggle(edges: set, pair: tuple[int, int]) -> None:
    u, v = min(pair), max(pair)
    if (u, v) in edges:
        edges.remove((u, v))
    else:
        edges.add((u, v))


def even_connected_edges(
    rng: np.random.Generator, n: int, m: int, regular_ok: bool = True
) -> list[tuple[int, int]]:
    """Connected graph with exactly ``m`` edges and every degree even.

    Start from a random connected graph, pair up the odd vertices and toggle
    the edge between each pair, then toggle triangles (which keep every
    degree even) until the edge count is ``m`` again.  Redraw on failure.
    """
    for _ in range(1000):
        edges = set(random_connected_edges(rng, n, m))
        odd = [int(v) for v in np.flatnonzero(degrees(n, sorted(edges)) % 2)]
        rng.shuffle(odd)
        for a, b in zip(odd[::2], odd[1::2]):
            _toggle(edges, (a, b))
        for _ in range(20 * n * n):
            need = m - len(edges)
            if need == 0:
                break
            a, b, c = (int(x) for x in rng.choice(n, 3, replace=False))
            triangle = [(a, b), (b, c), (a, c)]
            present = sum((min(p), max(p)) in edges for p in triangle)
            delta = 3 - 2 * present
            if 0 < delta <= need or need <= delta < 0:
                for pair in triangle:
                    _toggle(edges, pair)
        found = sorted(edges)
        deg = degrees(n, found)
        if (
            len(found) == m
            and not (deg % 2).any()
            and is_connected(n, found)
            and (regular_ok or deg.min() != deg.max())
        ):
            return found
    raise RuntimeError(f"no even connected graph with n={n}, m={m}")


def line_adjacency(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Line-graph adjacency from the incidence identity ``B^T B = 2I + A(L(G))``."""
    b = np.zeros((n, len(edges)))
    for idx, (u, v) in enumerate(edges):
        b[u, idx] = 1.0
        b[v, idx] = 1.0
    return b.T @ b - 2.0 * np.eye(len(edges))


def simple_eigenvector(
    rng: np.random.Generator, n: int, edges: list[tuple[int, int]]
) -> np.ndarray | None:
    """A unit eigenvector of a simple line-graph eigenvalue with full, non-uniform support.

    Such a pure state is a fixed point of dephasing whose edge weights are
    not all equal, so its verdict is WeightedCommutative by construction.
    Returns None when no eigenvalue qualifies.
    """
    m = len(edges)
    evals, evecs = np.linalg.eigh(line_adjacency(n, edges))
    gap = SIMPLE_GAP * max(1.0, float(np.abs(evals).max()))
    candidates = []
    for k in range(m):
        isolated = (k == 0 or evals[k] - evals[k - 1] > gap) and (
            k == m - 1 or evals[k + 1] - evals[k] > gap
        )
        w = evecs[:, k] ** 2
        if isolated and w.min() > 1e-3 / m and np.abs(w - 1.0 / m).max() > 1e-3 / m:
            candidates.append(k)
    if not candidates:
        return None
    return evecs[:, candidates[int(rng.integers(len(candidates)))]].astype(complex)


def random_state(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random complex unit vector; every amplitude is nonzero almost surely."""
    z = rng.normal(size=m) + 1j * rng.normal(size=m)
    return z / np.linalg.norm(z)

"""Reference computations made apart from schurwalk, and the checks that use them.

Each check raises :class:`Mismatch` with a one-line reason when a program
output disagrees with an oracle or breaks a property the method guarantees.
:class:`KnownFault` marks the one disagreement per workload that is a known
fault of the program; it is counted as a failed operation but does not make
the run incorrect.  No check compares with stored copies of earlier output.
"""

from __future__ import annotations

import math
from functools import cached_property

import networkx as nx
import numpy as np

from inputs import line_adjacency

# Relative gap that separates eigenvalue levels in the oracle's own grouping.
ORACLE_GAP = 1e-6


class Mismatch(Exception):
    """A program output disagrees with its oracle."""


class KnownFault(Mismatch):
    """The output shows a known, documented fault of the program."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def close(actual, expected, tol: float, what: str, relative: bool = False) -> None:
    a = np.asarray(actual, dtype=complex)
    b = np.asarray(expected, dtype=complex)
    expect(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    err = float(np.abs(a - b).max()) if a.size else 0.0
    scale = float(np.abs(b).max()) if relative and b.size else 1.0
    expect(err <= tol * scale, f"{what}: off by {err:.3e} (tolerance {tol * scale:.3e})")


class Eigen:
    """Eigenbasis of a real symmetric matrix with its own level grouping."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.values, self.vectors = np.linalg.eigh(matrix)
        gap = ORACLE_GAP * max(1.0, float(np.abs(self.values).max()))
        cuts = np.flatnonzero(np.diff(self.values) > gap) + 1
        self.levels = np.split(np.arange(len(self.values)), cuts)

    def averaged_weights(self, e: np.ndarray) -> np.ndarray:
        """Diagonal of the dephased density ``sum_g |P_g e|^2``, with no m x m temporaries."""
        out = np.zeros(len(e))
        for cols in self.levels:
            v = self.vectors[:, cols]
            out += np.abs(v @ (v.T @ e)) ** 2
        return out

    def mixing(self) -> np.ndarray:
        out = np.zeros_like(self.matrix)
        for cols in self.levels:
            v = self.vectors[:, cols]
            p = v @ v.T
            out += p * p
        return out

    def evolve(self, t: float) -> np.ndarray:
        return (self.vectors * np.exp(1j * t * self.values)) @ self.vectors.T


class GraphOracle:
    """Independent facts about one input graph, computed once and reused."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edges = edges
        self.index = {edge: idx for idx, edge in enumerate(edges)}
        self.nx = nx.Graph()
        self.nx.add_nodes_from(range(n))
        self.nx.add_edges_from(edges)
        self.line = line_adjacency(n, edges)
        self.eigen = Eigen(self.line)
        self._counts: dict[tuple, float] = {}

    def _edge_index(self, pair) -> int:
        return self.index[(min(pair), max(pair))]

    @cached_property
    def line_edges(self) -> set[tuple[int, int]]:
        out = set()
        for a, b in nx.line_graph(self.nx).edges:
            p, q = self._edge_index(a), self._edge_index(b)
            out.add((min(p, q), max(p, q)))
        return out

    @cached_property
    def bridges(self) -> list[int]:
        return sorted(self._edge_index(pair) for pair in nx.bridges(self.nx))

    def tree_count(self, weights: np.ndarray) -> float:
        key = tuple(np.round(np.asarray(weights, dtype=float), 15))
        if key not in self._counts:
            g = nx.Graph()
            g.add_nodes_from(range(self.n))
            g.add_weighted_edges_from((u, v, float(w)) for (u, v), w in zip(self.edges, weights))
            self._counts[key] = float(nx.number_of_spanning_trees(g, weight="weight"))
        return self._counts[key]

    def edge_weights(self, adjacency: np.ndarray) -> np.ndarray:
        """Edge weights, in canonical order, read from a symmetric vertex matrix."""
        adj = np.asarray(adjacency)
        rows = [u for u, _ in self.edges]
        cols = [v for _, v in self.edges]
        return adj[rows, cols]


def laplacian(n: int, edges: list[tuple[int, int]], weights: np.ndarray) -> np.ndarray:
    lap = np.zeros((n, n))
    for (u, v), w in zip(edges, weights):
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def vertex_entropy(n: int, edges: list[tuple[int, int]], weights: np.ndarray) -> float:
    """Shannon entropy (bits) of the trace-normalized weighted Laplacian spectrum."""
    lap = laplacian(n, edges, weights)
    mu = np.linalg.eigvalsh(lap / np.trace(lap))
    mu = mu[mu > 1e-12]
    return float(-(mu * np.log2(mu)).sum())


def log_tree_count(n: int, edges: list[tuple[int, int]], weights: np.ndarray) -> float:
    """Natural log of the weighted spanning-tree count, by ``slogdet`` of a Laplacian minor."""
    sign, logdet = np.linalg.slogdet(laplacian(n, edges, weights)[1:, 1:])
    expect(sign > 0, "oracle Laplacian minor is not positive definite")
    return float(logdet)


# -- checks shared by the library and CLI paths ------------------------------


def check_mixing(mix: np.ndarray, what: str) -> None:
    """Symmetric, entrywise nonnegative, and doubly stochastic."""
    mix = np.asarray(mix, dtype=float)
    close(mix, mix.T, 1e-12, f"{what} symmetry")
    expect(float(mix.min()) >= -1e-12, f"{what} has a negative entry {float(mix.min()):.3e}")
    close(mix.sum(axis=1), np.ones(len(mix)), 1e-9, f"{what} row sums")


def check_flat_band(o: GraphOracle, signs: np.ndarray) -> None:
    """Signs are +-1, lie in the kernel of the incidence matrix, and form a -2 eigenvector."""
    s = np.asarray(signs)
    expect(s.shape == (len(o.edges),), f"flat band has {s.shape} signs for {len(o.edges)} edges")
    expect(bool(np.all(np.abs(s) == 1)), "flat-band signs are not all +-1")
    sums = np.zeros(o.n)
    for (u, v), sign in zip(o.edges, s):
        sums[u] += sign
        sums[v] += sign
    expect(not sums.any(), "flat-band signs are not in the incidence kernel")
    close(o.line @ s, -2.0 * s, 0.0, "flat band as a -2 eigenvector")


def check_closed_trail(o: GraphOracle, trail: list[int]) -> None:
    """Every edge once, consecutive edges share a vertex, and the walk ends where it began."""
    expect(sorted(trail) == list(range(len(o.edges))), "trail does not use every edge once")
    closed = False
    for start in o.edges[trail[0]]:
        at = start
        for idx in trail:
            if at not in o.edges[idx]:
                break
            a, b = o.edges[idx]
            at = b if at == a else a
        else:
            closed = closed or at == start
    expect(closed, "trail is not a closed walk")


def check_theorem(o: GraphOracle, e: np.ndarray, report: dict) -> None:
    """``main_theorem_check`` against lhs and rhs recomputed apart, compared relatively.

    lhs is the tree count under the averaged edge weights of ``e``; rhs is
    the unit-weight count over ``m^(n-1)``.  The program compares them with
    an absolute tolerance of 1e-9, which every pair below 1e-9 passes; a
    ``passed: True`` for a pair that differs relatively is that known fault.
    """
    m = len(o.edges)
    lhs = math.exp(log_tree_count(o.n, o.edges, o.eigen.averaged_weights(e)))
    rhs = math.exp(log_tree_count(o.n, o.edges, np.ones(m)) - (o.n - 1) * math.log(m))
    close(report["lhs"], lhs, 1e-6, "main_theorem_check lhs", relative=True)
    close(report["rhs"], rhs, 1e-9, "main_theorem_check rhs", relative=True)
    rel = abs(lhs - rhs) / rhs
    truth = rel <= 1e-6
    if bool(report["passed"]) != truth:
        message = (
            f"main_theorem_check passed={report['passed']} but lhs and rhs differ by "
            f"{100 * rel:.1f}% (n={o.n}, m={m})"
        )
        if report["passed"] and abs(report["lhs"] - report["rhs"]) < 1e-9:
            raise KnownFault(message)
        raise Mismatch(message)

"""Simple graphs with a canonical edge order, and the constructions built on them.

Edges are always stored as pairs ``(u, v)`` with ``u < v``, sorted
lexicographically.  Every other module indexes edges by their position in
this canonical order, so the order is part of the public contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import OddDegreeVertex, ParseError, SchurWalkError


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0 .. n_vertices - 1``."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_vertices < 0:
            raise ValueError("n_vertices must be nonnegative")
        canon = []
        for pair in self.edges:
            u, v = int(pair[0]), int(pair[1])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            canon.append((u, v))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(_endpoints(self).ravel(), minlength=self.n_vertices)


def _endpoints(g: Graph) -> np.ndarray:
    """The canonical edges as an integer array of shape (n_edges, 2)."""
    return np.array(g.edges, dtype=int).reshape(g.n_edges, 2)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Graph plus one finite nonnegative weight per edge, in canonical edge order."""

    graph: Graph
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != (self.graph.n_edges,):
            raise ValueError(
                f"expected {self.graph.n_edges} weights, got shape {w.shape}"
            )
        if w.size and not w.max() < np.inf:  # also true when a weight is NaN
            raise ValueError("weights must be finite")
        if w.size and w.min() < 0:
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """0/1 adjacency matrix of ``g`` (integer dtype, exactly symmetric)."""
    a = np.zeros((g.n_vertices, g.n_vertices), dtype=int)
    u, v = _endpoints(g).T
    a[u, v] = 1
    a[v, u] = 1
    return a


def incidence_matrix(g: Graph) -> np.ndarray:
    """Unsigned vertex-edge incidence matrix, shape (n_vertices, n_edges).

    Satisfies, in exact integer arithmetic,
    ``B @ B.T == degree + adjacency`` and
    ``B.T @ B == 2 I + adjacency(line_graph(g))``.
    """
    b = np.zeros((g.n_vertices, g.n_edges), dtype=int)
    b[_endpoints(g).T, np.arange(g.n_edges)] = 1
    return b


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of ``g``; two edges adjacent iff they share an endpoint.

    Vertex ``p`` of the result is edge ``g.edges[p]``.  The edges are read off
    the strict upper triangle of the Gram matrix ``B^T B = 2 I + A(L(g))`` of
    the incidence matrix ``B``: two distinct edges of a simple graph share at
    most one endpoint, so every off-diagonal entry is 0 or 1.  ``B`` is built
    in float so the product runs through BLAS; its entries are small integers,
    so the product is exact.  Row-major order of the nonzero entries is already
    the canonical edge order.
    """
    b = incidence_matrix(g).astype(float)
    p, q = np.nonzero(np.triu(b.T @ b, 1))
    return Graph(g.n_edges, tuple(zip(p.tolist(), q.tolist())))


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex partition into connected components, each sorted, ordered by minimum."""
    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    groups: dict[int, list[int]] = {}
    for v in range(g.n_vertices):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def bridges(g: Graph) -> list[int]:
    """Indices of edges whose removal increases the number of components, sorted.

    Tarjan's low-link pass (Tarjan, IPL 1974), made iterative so that long
    paths cannot exhaust the recursion limit: a tree edge into ``w`` is a
    bridge exactly when no edge from the subtree of ``w`` reaches above it.
    Linear in vertices plus edges.
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for idx, (u, v) in enumerate(g.edges):
        incident[u].append((v, idx))
        incident[v].append((u, idx))

    order = [-1] * g.n_vertices  # discovery time, -1 while unvisited
    low = [0] * g.n_vertices  # earliest discovery time reachable from the subtree
    clock = 0
    found = []
    for root in range(g.n_vertices):
        if order[root] >= 0:
            continue
        order[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(incident[root]))]
        while stack:
            vertex, via, pending = stack[-1]
            for nxt, idx in pending:
                if idx == via:
                    continue
                if order[nxt] < 0:
                    order[nxt] = low[nxt] = clock
                    clock += 1
                    stack.append((nxt, idx, iter(incident[nxt])))
                    break
                low[vertex] = min(low[vertex], order[nxt])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[vertex])
                    if low[vertex] > order[parent]:
                        found.append(via)
    return sorted(found)


def eulerian_trail(g: Graph) -> list[int]:
    """Closed trail through every edge exactly once, as a list of edge indices.

    Hierholzer's construction with smallest-edge-index tie-breaking, so the
    output is deterministic.  Consecutive edges share their transit vertex and
    the last edge returns to the first edge's start vertex.
    """
    if g.n_edges == 0:
        raise SchurWalkError("graph has no edges")
    odd = np.flatnonzero(g.degrees() % 2)
    if odd.size:
        raise OddDegreeVertex(f"vertices {odd.tolist()} have odd degree")
    if not is_connected(g):
        raise SchurWalkError("graph is not connected")

    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for idx, (u, v) in enumerate(g.edges):
        incident[u].append((idx, v))
        incident[v].append((idx, u))

    cursor = [0] * g.n_vertices
    used = [False] * g.n_edges
    start = g.edges[0][0]
    stack: list[tuple[int, int]] = [(start, -1)]
    trail: list[int] = []
    while stack:
        vertex, via = stack[-1]
        options = incident[vertex]
        i = cursor[vertex]
        while i < len(options) and used[options[i][0]]:
            i += 1
        cursor[vertex] = i
        if i < len(options):
            idx, nxt = options[i]
            used[idx] = True
            stack.append((nxt, idx))
        else:
            stack.pop()
            if via >= 0:
                trail.append(via)
    trail.reverse()
    return trail


def subgraph_on_vertices(g: Graph, vertices: list[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on a vertex subset, relabeled ``0 .. len - 1``.

    Returns the subgraph and ``edge_map`` where ``edge_map[i]`` is the index
    in ``g`` of the subgraph's edge ``i``.
    """
    keep = sorted(set(vertices))
    relabel = {old: new for new, old in enumerate(keep)}
    pairs = []
    for idx, (u, v) in enumerate(g.edges):
        if u in relabel and v in relabel:
            pairs.append(((relabel[u], relabel[v]), idx))
    pairs.sort()
    sub = Graph(len(keep), tuple(edge for edge, _ in pairs))
    return sub, [idx for _, idx in pairs]


def edge_induced_subgraph(
    g: Graph, edge_indices: list[int]
) -> tuple[Graph, list[int], list[int]]:
    """Subgraph keeping only the given edges and the vertices they touch.

    Returns ``(subgraph, vertices, edge_map)``: the kept original vertices in
    relabeling order, and ``edge_map[i]`` = original index of subgraph edge i.
    """
    chosen = sorted(set(edge_indices))
    touched = sorted({v for idx in chosen for v in g.edges[idx]})
    relabel = {old: new for new, old in enumerate(touched)}
    pairs = sorted(
        ((relabel[g.edges[idx][0]], relabel[g.edges[idx][1]]), idx) for idx in chosen
    )
    sub = Graph(len(touched), tuple(edge for edge, _ in pairs))
    return sub, touched, [idx for _, idx in pairs]


# -- edge-list text format -------------------------------------------------
#
# First line "n m", then m lines "u v" with 0-based indices, u < v, sorted.
# Blank lines and lines starting with '#' are ignored.


def parse_edge_list(text: str) -> Graph:
    rows: list[tuple[int, str]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((number, line))
    if not rows:
        raise ParseError("edge list is empty")

    def two_ints(number: int, line: str) -> tuple[int, int]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {number}: expected two integers, got {line!r}")
        try:
            return int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {number}: expected two integers, got {line!r}") from exc

    n, m = two_ints(*rows[0])
    if n < 0 or m < 0:
        raise ParseError("header counts must be nonnegative")
    if len(rows) - 1 != m:
        raise ParseError(f"header announces {m} edges, found {len(rows) - 1}")
    edges = []
    for number, line in rows[1:]:
        u, v = two_ints(number, line)
        if u >= v:
            raise ParseError(f"line {number}: edges must satisfy u < v")
        edges.append((u, v))
    if edges != sorted(edges):
        raise ParseError("edge list is not sorted lexicographically")
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_edge_list(g: Graph, comments: list[str] | None = None) -> str:
    lines = [f"# {text}" for text in (comments or [])]
    lines.append(f"{g.n_vertices} {g.n_edges}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# -- named constructions ----------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def figure_eight_graph() -> Graph:
    """Two 4-cycles sharing a single vertex: 7 vertices, 8 edges.

    Vertex 0 is the shared vertex (degree 4); all others have degree 2.
    """
    left = [(0, 1), (1, 2), (2, 3), (0, 3)]
    right = [(0, 4), (4, 5), (5, 6), (0, 6)]
    return Graph(7, tuple(left + right))

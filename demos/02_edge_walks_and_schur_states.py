"""Walking edge states and reading them back as weighted graphs.

An edge state lives on the vertices of the line graph.  Evolving it with
U(t) = exp(it A(line graph)) and folding the amplitudes onto the base graph's
vertex pairs gives the Schur state: Hermitian, zero diagonal, supported on
the edges, with squared norm exactly 2.  Its entrywise modulus square is a
probability-like edge weighting that changes with t while its total stays 2.
"""

import numpy as np

from schurwalk import (
    basis_state,
    induced_graph,
    line_graph_spectrum,
    path_graph,
    schur_inner,
    schur_state,
)

g = path_graph(4)
spectrum = line_graph_spectrum(g)
start = basis_state(g.n_edges, 0)  # all amplitude on the first edge

print("edge weights of the walked state (rows: t, columns: edges):")
for t in (0.0, 0.5, 1.0, 2.0, 5.0):
    state = schur_state(g, start, t, spectrum)
    weights = induced_graph(state).adjacency
    per_edge = [weights[u, v] for u, v in g.edges]
    norm_sq = schur_inner(state, state).real
    print(f"  t={t:4.1f}  weights={np.round(per_edge, 4)}  total={weights.sum():.12f}"
          f"  <S,S>={norm_sq:.12f}")

print("\nThe weights slosh between edges; the total weight and the norm never move.")

# The Schur state itself at one time, as a matrix on the vertices:
state = schur_state(g, start, 1.0, spectrum)
print("\nSchur state at t=1 (rounded):")
print(np.round(state.entries, 3))

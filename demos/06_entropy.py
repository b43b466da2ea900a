"""Two entropies: spread over edges, and spectral spread of the induced graph.

The von Neumann entropy of a density matrix on the edge space is invariant
under the walk and can only grow under time averaging, with equality exactly
for commutative states.  The vertex entropy looks instead at the eigenvalues
of the trace-normalized induced Laplacian: zero when the weight sits on one
edge, log2(n-1) for uniformly weighted complete graphs.
"""

import numpy as np

from schurwalk import (
    adjacency_matrix,
    averaged_density,
    basis_state,
    binary_entropy,
    complete_graph,
    induced_graph,
    line_graph_spectrum,
    path_graph,
    schur_state,
    vertex_entropy,
    von_neumann_entropy,
)
from schurwalk.acceptance import disjoint_union_entropy_check
from schurwalk.states import induced_from_adjacency

g = path_graph(4)
spectrum = line_graph_spectrum(g)
start = basis_state(g.n_edges, 0)

print("vertex entropy of the walked single-edge state:")
for t in (0.0, 0.5, 1.0, 2.0, 5.0):
    walked = schur_state(g, start, t, spectrum)
    print(f"  t={t:4.1f}  H_vertex = {vertex_entropy(induced_graph(walked)):.6f} bits")

rho = np.outer(start, start.conj())
rho_avg = averaged_density(spectrum, start)
print(f"\nvon Neumann entropy before averaging: {von_neumann_entropy(rho):.6f} bits")
print(f"von Neumann entropy after averaging:  {von_neumann_entropy(rho_avg):.6f} bits")
print("(averaging cannot lower it; it grows because this state is non-commutative)")

print("\nuniformly weighted complete graphs hit log2(n-1):")
for n in (3, 5, 8):
    adj = adjacency_matrix(complete_graph(n)).astype(float)
    print(f"  n={n}:  {vertex_entropy(induced_from_adjacency(adj)):.6f} "
          f"vs log2({n - 1}) = {np.log2(n - 1):.6f}")

# Composing systems: entropies add over tensor products, and a p-weighted
# disjoint union costs an extra h(p).
e1 = basis_state(3, 0)
e2 = basis_state(2, 1)
lhs, rhs = disjoint_union_entropy_check(np.outer(e1, e1.conj()), np.outer(e2, e2.conj()), 0.25)
print(f"\ndisjoint union at p=0.25: direct = {lhs:.6f}, "
      f"h(p) + pE1 + (1-p)E2 = {rhs:.6f}, h(0.25) = {binary_entropy(0.25):.6f}")

"""Flat-band states on non-regular line graphs, and the disorder classifier.

On a regular base graph the uniform state is a Perron eigenvector of the
line graph, hence commutative.  Regularity is not needed: if every vertex of
H has even degree and H has an even number of edges, alternating +1/-1 along
a closed Eulerian trail lands in the kernel of the incidence matrix, which
is exactly the -2 eigenspace of the line graph (the flat band).  The
figure-eight graph is the stock example: its line graph mixes degrees 2 and
4, yet carries a uniform commutative state.
"""

import numpy as np

from schurwalk import (
    adjacency_matrix,
    basis_state,
    classify,
    decompose,
    eulerian_trail,
    figure_eight_graph,
    flat_band_state,
    incidence_matrix,
    line_graph,
    line_graph_spectrum,
    complete_bipartite_graph,
    path_graph,
    uniform_state,
    cycle_graph,
)

h = figure_eight_graph()
trail = eulerian_trail(h)
fb = flat_band_state(h)
print("Eulerian trail (edge indices):", trail)
print("alternating signs per edge:  ", fb.signs)
print("sign sums at each vertex:    ", incidence_matrix(h) @ fb.signs)
image = adjacency_matrix(line_graph(h)) @ fb.signs
print("A(line graph) psi == -2 psi: ", (image == -2 * fb.signs).all())
print("line-graph degrees (non-regular):", sorted(set(line_graph(h).degrees().tolist())))

spectrum = line_graph_spectrum(h)
rho = np.outer(fb.normalized, fb.normalized.conj())
print("\nclassifier verdict for the flat-band state:",
      classify(rho, h, spectrum).verdict)

# The three verdicts side by side.
print("\nthe trichotomy:")
c4 = cycle_graph(4)
u = uniform_state(4)
print("  uniform state on the 4-cycle:     ",
      classify(np.outer(u, u.conj()), c4, line_graph_spectrum(c4)).verdict)
p4 = path_graph(4)
e0 = basis_state(3, 0)
print("  single-edge state on the 4-path:  ",
      classify(np.outer(e0, e0.conj()), p4, line_graph_spectrum(p4)).verdict)
k13 = complete_bipartite_graph(1, 3)
v = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
verdict = classify(np.outer(v, v.conj()), k13, line_graph_spectrum(k13))
print("  non-uniform eigenvector on 3-star:", verdict.verdict, "weights", verdict.weights)

# Spectral obstruction: line graphs never dip below -2; K_{2,4} does.
k24 = complete_bipartite_graph(2, 4)
floor = decompose(adjacency_matrix(k24)).distinct_eigenvalues[0]
print(f"\nsmallest eigenvalue of K_2,4 = {floor:.6f} < -2, so it is not a line graph")

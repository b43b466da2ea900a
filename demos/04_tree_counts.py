"""Weighted spanning-tree counts and the averaged-graph identity.

Two independent routes to the same number: a principal minor of the weighted
Laplacian, and brute-force enumeration of spanning trees.  For a uniform
commutative starting state, the time-averaged edge weights are exactly 1/m,
so the averaged graph's tree count equals the unit count divided by m^(n-1).
On the 4-cycle uniform weights are also optimal: no other simplex weighting
beats them.  That does not hold on every graph: on the paw (a triangle with a
pendant edge) the weights (2/9, 2/9, 2/9, 1/3) beat uniform ones by 256/243.
"""

import numpy as np

from schurwalk import (
    WeightedGraph,
    complete_graph,
    cycle_graph,
    line_graph_spectrum,
    main_theorem_check,
    pure_state_tree_count,
    path_graph,
    tree_count_det,
    tree_count_enum,
    uniform_state,
)
from schurwalk.acceptance import uniform_optimality_scan

# Determinant vs enumeration on a triangle with symbolic-looking weights.
wg = WeightedGraph(complete_graph(3), np.array([0.2, 0.3, 0.5]))
print("triangle, weights (a, b, c):")
print("  determinant :", tree_count_det(wg).value)
print("  enumeration :", tree_count_enum(wg).value)
print("  ab + bc + ca:", 0.2 * 0.3 + 0.3 * 0.5 + 0.5 * 0.2)

# The averaged-graph identity on a cycle and a complete graph.
for name, g in (("4-cycle", cycle_graph(4)), ("K4", complete_graph(4))):
    spectrum = line_graph_spectrum(g)
    report = main_theorem_check(g, uniform_state(g.n_edges), spectrum)
    print(f"\n{name}: averaged count = {report['lhs']:.12f}, "
          f"target = {report['rhs']:.12f}, "
          f"uniform commutative = {report['is_uniform_commutative']}")

# Pure edge states average to mixing-matrix columns; on a path the center
# edge gives a strictly smaller count than the ends.
g = path_graph(4)
spectrum = line_graph_spectrum(g)
for q, label in ((0, "end"), (1, "center")):
    print(f"pure state on the {label} edge of the 4-path: "
          f"count = {pure_state_tree_count(g, q, spectrum).value}")

# Random search never beats uniform weights on the 4-cycle.
scan = uniform_optimality_scan(cycle_graph(4), samples=2000, seed=1)
print(f"\n2000 random simplex weightings on the 4-cycle: "
      f"max ratio to uniform = {scan['max_ratio']:.6f} (uniform is optimal)")

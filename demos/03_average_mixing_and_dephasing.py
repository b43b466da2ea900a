"""Infinite-time averages: the mixing matrix and the dephasing map.

U(t) never converges, but its time average does.  The average mixing matrix
is computed exactly from spectral projectors (sum of their entrywise
squares); a brute-force trapezoid quadrature over a long horizon converges
to the same answer at rate 1/T, which is the package's independence check.
For paths there is even a closed form.  Both oracles live in
``schurwalk.acceptance``, next to the criteria that use them.
"""

import numpy as np

from schurwalk import (
    average_mixing,
    averaged_density,
    basis_state,
    line_graph_spectrum,
    path_graph,
)
from schurwalk.acceptance import numeric_time_average, path_mixing_closed_form

g = path_graph(4)
spectrum = line_graph_spectrum(g)

mixed = average_mixing(spectrum)
print("average mixing matrix of the 4-path's line graph:")
print(mixed)
print("closed form (2J + I + T) / (2n):")
print(path_mixing_closed_form(4))
print("rows sum to one:", mixed.sum(axis=1))

# Quadrature sanity check: average U(t) X U(t)^dag by brute force and watch
# the error fall like 1/T.
start = basis_state(g.n_edges, 0)
target = averaged_density(spectrum, start)
projector = np.outer(start, start.conj())
print("\nquadrature deviation from the closed form:")
for horizon in (1e2, 1e3, 1e4):
    approx = numeric_time_average(spectrum, projector, horizon, 200_000)
    print(f"  T={horizon:8.0f}   ||quadrature - exact||_F = {np.linalg.norm(approx - target):.3e}")

print("\ndiagonal of the averaged density = a column of the mixing matrix:")
print(" ", target.diagonal().real, " vs ", mixed[:, 0])

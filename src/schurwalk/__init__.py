"""Edge-state quantum walks on line graphs.

Build a simple graph, walk edge states on its line graph, extract the induced
real-weighted graph and its time average, classify states by their behavior
under average mixing, and relate the averaged weights to spanning-tree counts.
"""

from .classify import (
    Classification,
    FlatBandState,
    classification_to_json,
    classify,
    flat_band_state,
)
from .entropy import binary_entropy, vertex_entropy, von_neumann_entropy
from .errors import SchurWalkError
from .graphs import (
    Graph,
    WeightedGraph,
    adjacency_matrix,
    bridges,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    eulerian_trail,
    figure_eight_graph,
    format_edge_list,
    incidence_matrix,
    line_graph,
    parse_edge_list,
    path_graph,
)
from .mixing import (
    average_mixing,
    averaged_density,
    averaged_induced,
    averaged_weights,
    mixing_to_json,
)
from .spectral import Spectrum, decompose, dephase, evolve, line_graph_spectrum
from .states import (
    InducedWeightedGraph,
    SchurState,
    basis_state,
    edge_state,
    induced_graph,
    schur_inner,
    schur_state,
    uniform_state,
)
from .treecount import (
    TreeCount,
    bridge_factorization_check,
    main_theorem_check,
    pure_state_tree_count,
    spanning_trees,
    tree_count_det,
    tree_count_enum,
    tree_count_exact,
)

__all__ = [
    "Classification",
    "FlatBandState",
    "Graph",
    "InducedWeightedGraph",
    "SchurState",
    "SchurWalkError",
    "Spectrum",
    "TreeCount",
    "WeightedGraph",
    "adjacency_matrix",
    "average_mixing",
    "averaged_density",
    "averaged_induced",
    "averaged_weights",
    "basis_state",
    "binary_entropy",
    "bridge_factorization_check",
    "bridges",
    "classification_to_json",
    "classify",
    "complete_bipartite_graph",
    "complete_graph",
    "connected_components",
    "cycle_graph",
    "decompose",
    "dephase",
    "edge_state",
    "eulerian_trail",
    "evolve",
    "figure_eight_graph",
    "flat_band_state",
    "format_edge_list",
    "incidence_matrix",
    "induced_graph",
    "line_graph",
    "line_graph_spectrum",
    "main_theorem_check",
    "mixing_to_json",
    "parse_edge_list",
    "path_graph",
    "pure_state_tree_count",
    "schur_inner",
    "schur_state",
    "spanning_trees",
    "tree_count_det",
    "tree_count_enum",
    "tree_count_exact",
    "uniform_state",
    "vertex_entropy",
    "von_neumann_entropy",
]

__version__ = "0.1.0"

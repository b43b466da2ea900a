"""The public surface: exported names, exception classes, and where the oracles live."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import schurwalk
from schurwalk import errors

PUBLIC_NAMES = [
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

# Deleted, or moved into schurwalk.acceptance (the oracles).
NOT_EXPORTED = [
    "schur_tensor",
    "tensor_product",
    "schur_state_to_json",
    "schur_state_from_json",
    "is_eigenvector",
    "line_graph_spectral_floor",
    "numeric_time_average",
    "path_mixing_closed_form",
    "uniform_optimality_scan",
    "commutator_norm",
    "disjoint_union_entropy_check",
    "projectors",
]

SRC = Path(schurwalk.__file__).parent


def test_public_names():
    assert len(PUBLIC_NAMES) == 50
    assert sorted(schurwalk.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(schurwalk, name), name


def test_deleted_and_moved_names_are_not_exported():
    for name in NOT_EXPORTED:
        assert not hasattr(schurwalk, name), name
    properties = {k for k, v in vars(schurwalk.Spectrum).items() if isinstance(v, property)}
    assert properties == {"dimension", "dominant_eigenvalue"}
    assert [f.name for f in schurwalk.TreeCount.__dataclass_fields__.values()] == ["value"]


def test_exception_classes():
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == {
        "SchurWalkError",
        "ParseError",
        "EigensolverFailure",
        "ZeroLaplacian",
        "OddDegreeVertex",
        "OddEdgeCount",
    }
    for name in classes - {"SchurWalkError"}:
        assert issubclass(getattr(errors, name), errors.SchurWalkError)


def _acceptance_imports(path: Path) -> list[list[ast.AST]]:
    """The chain of enclosing nodes of every import of ``acceptance`` in a module."""
    found = []

    def visit(node: ast.AST, chain: list[ast.AST]) -> None:
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
            if any("acceptance" in name.split(".") for name in names):
                found.append(chain)
        elif isinstance(node, ast.Import):
            if any("acceptance" in alias.name.split(".") for alias in node.names):
                found.append(chain)
        for child in ast.iter_child_nodes(node):
            visit(child, chain + [node])

    visit(ast.parse(path.read_text()), [])
    return found


def test_only_check_all_imports_the_acceptance_module():
    importers = {
        path.name: chains
        for path in sorted(SRC.glob("*.py"))
        if path.name != "acceptance.py" and (chains := _acceptance_imports(path))
    }
    assert list(importers) == ["cli.py"]
    (chain,) = importers["cli.py"]
    functions = [node.name for node in chain if isinstance(node, ast.FunctionDef)]
    branches = [ast.unparse(node.test) for node in chain if isinstance(node, ast.If)]
    assert functions == ["run_command"]
    assert branches == ["cfg.command == 'check-all'"]

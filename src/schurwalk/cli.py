"""Command-line front end: parse graphs, run pipelines, emit deterministic reports.

Commands: linegraph | mix | classify | treecount | entropy | flatband | check-all.
JSON output has alphabetical keys and shortest-round-trip floats, so identical
inputs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classify import DEFAULT_EPSILON, classification_to_json, classify, flat_band_state
from .errors import EigensolverFailure, ParseError, SchurWalkError, ZeroLaplacian
from .graphs import (
    Graph,
    WeightedGraph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    figure_eight_graph,
    format_edge_list,
    line_graph,
    parse_edge_list,
    path_graph,
)
from .entropy import vertex_entropy, von_neumann_entropy
from .mixing import average_mixing, averaged_weights, mixing_to_json
from .spectral import DEFAULT_GROUPING_TOL, line_graph_spectrum
from .states import basis_state, edge_state, induced_graph, schur_state, uniform_state
from .treecount import IDENTITY_RTOL, scaled_unit_identity, tree_count_det, tree_count_exact

DEFAULT_TIMES = "0.0,1.0,2.0,3.0,4.0,5.0"


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    builtin: str | None = None
    epsilon: float = DEFAULT_EPSILON
    grouping_tol: float = DEFAULT_GROUPING_TOL
    seed: int = 0
    time_samples: list[float] = field(default_factory=list)
    output: str | None = None
    state_spec: str | None = None
    weight_spec: str | None = None


def builtin_graphs() -> dict[str, Graph]:
    return {
        "k2": path_graph(2),
        "k3": complete_graph(3),
        "k4": complete_graph(4),
        "k5": complete_graph(5),
        "p3": path_graph(3),
        "p4": path_graph(4),
        "p5": path_graph(5),
        "c4": cycle_graph(4),
        "c6": cycle_graph(6),
        "k13": complete_bipartite_graph(1, 3),
        "k24": complete_bipartite_graph(2, 4),
        "fig8": figure_eight_graph(),
    }


def load_graph(cfg: RunConfig) -> Graph:
    if cfg.builtin is not None:
        catalog = builtin_graphs()
        if cfg.builtin not in catalog:
            raise ParseError(
                f"unknown builtin {cfg.builtin!r}; choose from {sorted(catalog)}"
            )
        return catalog[cfg.builtin]
    if cfg.input_path is None:
        raise ParseError("provide --input PATH or --builtin NAME")
    return parse_edge_list(Path(cfg.input_path).read_text())


def _parse_vector_file(path: str, m: int) -> np.ndarray:
    values = []
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) == 1:
                values.append(complex(float(parts[0]), 0.0))
            elif len(parts) == 2:
                values.append(complex(float(parts[0]), float(parts[1])))
            else:
                raise ValueError
        except ValueError as exc:
            raise ParseError(f"{path}:{number}: expected 're' or 're im'") from exc
        if not cmath.isfinite(values[-1]):
            raise ParseError(f"{path}:{number}: amplitude {line!r} is not finite")
    if len(values) != m:
        raise ParseError(f"{path}: expected {m} amplitudes, found {len(values)}")
    return np.array(values, dtype=complex)


def build_state(g: Graph, spec: str) -> np.ndarray:
    """State spec grammar: edge:<q> | uniform | flatband | vector:<path> [,phase:<alpha>]."""
    base: np.ndarray | None = None
    phase = 0.0
    for token in (t.strip() for t in spec.split(",")):
        if token == "uniform":
            base = uniform_state(g.n_edges)
        elif token == "flatband":
            base = flat_band_state(g).normalized
        elif token.startswith("edge:"):
            try:
                q = int(token[len("edge:") :])
            except ValueError as exc:
                raise ParseError(f"bad edge index in {token!r}") from exc
            if not 0 <= q < g.n_edges:
                raise ParseError(f"edge index {q} out of range for {g.n_edges} edges")
            base = basis_state(g.n_edges, q)
        elif token.startswith("vector:"):
            base = _parse_vector_file(token[len("vector:") :], g.n_edges)
        elif token.startswith("phase:"):
            try:
                phase = float(token[len("phase:") :])
            except ValueError as exc:
                raise ParseError(f"bad phase in {token!r}") from exc
            if not math.isfinite(phase):
                raise ParseError(f"bad phase in {token!r}: not finite")
        else:
            raise ParseError(f"unknown state token {token!r}")
    if base is None:
        raise ParseError("state spec names no state")
    return edge_state(np.exp(1j * phase) * base)


def _parse_weight_file(path: str, m: int) -> np.ndarray:
    values = []
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError as exc:
            raise ParseError(f"{path}:{number}: expected a float") from exc
        if not math.isfinite(value):
            raise ParseError(f"{path}:{number}: weight {line!r} is not finite")
        if value < 0:
            raise ParseError(f"{path}:{number}: weight {line!r} is negative")
        values.append(value)
    if len(values) != m:
        raise ParseError(f"{path}: expected {m} weights, found {len(values)}")
    return np.array(values)


def _treecount_report(cfg: RunConfig, g: Graph) -> str:
    spec = cfg.weight_spec or "unit"
    m = g.n_edges
    if spec == "unit":
        weights = np.ones(m)
    elif spec == "uniform":
        if m == 0:
            raise SchurWalkError("graph has no edges")
        weights = np.full(m, 1.0 / m)
    elif spec.startswith("mixing:"):
        try:
            q = int(spec[len("mixing:") :])
        except ValueError as exc:
            raise ParseError(f"bad edge index in {spec!r}") from exc
        if not 0 <= q < m:
            raise ParseError(f"edge index {q} out of range for {m} edges")
        spectrum = line_graph_spectrum(g, cfg.grouping_tol)
        weights = averaged_weights(spectrum, basis_state(m, q))
    elif spec.startswith("file:"):
        weights = _parse_weight_file(spec[len("file:") :], m)
    else:
        raise ParseError(f"unknown weight spec {spec!r}")

    wg = WeightedGraph(g, weights)
    if spec == "uniform":
        lhs, rhs, passed = scaled_unit_identity(wg)
    else:
        lhs = tree_count_det(wg).value
        rhs = tree_count_exact(wg).value
        passed = abs(lhs - rhs) <= IDENTITY_RTOL * abs(rhs)
    report = {"lhs": float(lhs), "passed": bool(passed), "rhs": float(rhs)}
    return json.dumps(report, sort_keys=True) + "\n"


def _entropy_csv(cfg: RunConfig, g: Graph) -> str:
    state = build_state(g, cfg.state_spec or "uniform")
    spectrum = line_graph_spectrum(g, cfg.grouping_tol)
    vn = von_neumann_entropy(np.outer(state, state.conj()))
    lines = [f"# von_neumann_entropy_bits = {vn!r}", "t,vertex_entropy_bits"]
    for t in cfg.time_samples:
        walked = schur_state(g, state, t, spectrum)
        try:
            value = repr(vertex_entropy(induced_graph(walked)))
        except ZeroLaplacian:
            value = ""
        lines.append(f"{t!r},{value}")
    return "\n".join(lines) + "\n"


def run_command(cfg: RunConfig) -> tuple[str, int]:
    """Execute one command; returns (output text, exit code)."""
    if cfg.command == "check-all":
        from .acceptance import run_all

        results = run_all(seed=cfg.seed)
        lines = [
            f"criterion {r.number:02d} {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
            for r in results
        ]
        failed = sum(not r.passed for r in results)
        lines.append(f"{len(results) - failed}/{len(results)} criteria passed")
        return "\n".join(lines) + "\n", (0 if failed == 0 else 1)

    g = load_graph(cfg)
    if cfg.command == "linegraph":
        lg = line_graph(g)
        comments = ["line graph: vertex p corresponds to base edge p"]
        comments.extend(f"{idx} = ({u}, {v})" for idx, (u, v) in enumerate(g.edges))
        return format_edge_list(lg, comments), 0
    if cfg.command == "mix":
        spectrum = line_graph_spectrum(g, cfg.grouping_tol)
        return mixing_to_json(average_mixing(spectrum)) + "\n", 0
    if cfg.command == "classify":
        state = build_state(g, cfg.state_spec or "uniform")
        spectrum = line_graph_spectrum(g, cfg.grouping_tol)
        rho = np.outer(state, state.conj())
        verdict = classify(rho, g, spectrum, cfg.epsilon)
        return classification_to_json(verdict) + "\n", 0
    if cfg.command == "treecount":
        return _treecount_report(cfg, g), 0
    if cfg.command == "entropy":
        return _entropy_csv(cfg, g), 0
    if cfg.command == "flatband":
        fb = flat_band_state(g)
        report = {
            "m": int(g.n_edges),
            "n": int(g.n_vertices),
            "signs": [int(s) for s in fb.signs],
        }
        return json.dumps(report, sort_keys=True) + "\n", 0
    raise ParseError(f"unknown command {cfg.command!r}")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; each command takes only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="schurwalk",
        description="Edge-state quantum walks on line graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("linegraph", "emit the edge list of the line graph"),
        ("mix", "emit the average mixing matrix of the line graph"),
        ("classify", "classify a state's behavior under average mixing"),
        ("treecount", "weighted spanning-tree count report"),
        ("entropy", "CSV time series of the induced vertex entropy"),
        ("flatband", "construct the alternating-sign flat-band state"),
        ("check-all", "run the full acceptance suite"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        if name != "check-all":
            cmd.add_argument("--input", dest="input_path", metavar="PATH", help="edge-list file")
            cmd.add_argument("--builtin", metavar="NAME", help="named example graph")
        if name == "classify":
            cmd.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
        if name in ("mix", "classify", "entropy", "treecount"):
            cmd.add_argument("--grouping-tol", type=float, default=DEFAULT_GROUPING_TOL)
        if name == "check-all":
            cmd.add_argument("--seed", type=int, default=0)
        if name == "entropy":
            cmd.add_argument("--times", default=DEFAULT_TIMES, metavar="T1,T2,...")
        cmd.add_argument("--output", metavar="PATH", help="write here instead of stdout")
        if name in ("classify", "entropy"):
            cmd.add_argument(
                "--state",
                dest="state_spec",
                default="uniform",
                metavar="SPEC",
                help="edge:<q> | uniform | flatband | vector:<path> [,phase:<alpha>]",
            )
        if name == "treecount":
            cmd.add_argument(
                "--weights",
                dest="weight_spec",
                default="unit",
                metavar="SPEC",
                help="unit | uniform | mixing:<q> | file:<path>",
            )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run configuration; a field whose option the command lacks keeps its default."""
    values = vars(args).copy()
    if "times" in values:
        text = values.pop("times")
        try:
            values["time_samples"] = [float(x) for x in text.split(",") if x.strip()]
        except ValueError as exc:
            raise ParseError(f"bad --times value {text!r}") from exc
        if not all(map(math.isfinite, values["time_samples"])):
            raise ParseError(f"bad --times value {text!r}: every time must be finite")
    cfg = RunConfig(**values)
    if not 0 < cfg.grouping_tol < math.inf:
        raise ParseError(f"bad --grouping-tol value {cfg.grouping_tol!r}: need 0 < tol < inf")
    if cfg.seed < 0:
        raise ParseError(f"bad --seed value {cfg.seed!r}: need a nonnegative integer")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        text, code = run_command(cfg)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigensolverFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except SchurWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if cfg.output:
        Path(cfg.output).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

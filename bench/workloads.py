"""The three workloads: seeded inputs, one round of operations, and their checks.

A workload function makes every input from the seed and returns
``round(i)``, the i-th round of operations.  Every round of a workload has
the same operations in the same order, so the share of operations that fail
is fixed whatever the seed and the run length.  An
operation's ``run`` takes the library namespace (plain or traced modules)
and returns raw outputs; its ``check`` compares them with oracles and raises
:class:`oracles.Mismatch` on a disagreement.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
from oracles import (
    GraphOracle,
    KnownFault,
    Mismatch,
    check_closed_trail,
    check_flat_band,
    check_mixing,
    check_theorem,
    close,
    expect,
    vertex_entropy,
)

WALK_TIMES = (0.5, 1.0, 2.5)
THEOREM_SEED = 20_260_512  # theorem inputs are fixed, whatever --seed is


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    label: str = ""


Rounds = Callable[[int], list[Op]]


@dataclass
class Case:
    """One graph with every state and weighting an operation uses on it."""

    n: int
    edges: list[tuple[int, int]]
    graph: Any  # schurwalk.Graph
    eulerian: bool
    q: int
    state: np.ndarray
    eigvec: np.ndarray | None
    weights: np.ndarray = field(repr=False)

    @cached_property
    def oracle(self) -> GraphOracle:
        return GraphOracle(self.n, self.edges)

    @property
    def basis(self) -> np.ndarray:
        e = np.zeros(len(self.edges), dtype=complex)
        e[self.q] = 1.0
        return e


def make_case(sw, rng, n, edges, eulerian, eigvec=None) -> Case:
    m = len(edges)
    return Case(
        n=n,
        edges=edges,
        graph=sw.Graph(n, tuple(edges)),
        eulerian=eulerian,
        q=int(rng.integers(m)),
        state=inputs.random_state(rng, m),
        eigvec=eigvec,
        weights=rng.uniform(0.1, 2.0, size=m),
    )


def _density(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _spectrum(lib, g):
    lg = lib.graphs.line_graph(g)
    return lg, lib.spectral.decompose(lib.graphs.adjacency_matrix(lg).astype(float))


# -- the full analysis of one graph (spectral-heavy and small-sweep) ---------


def analyse(lib, case: Case, trees: bool) -> dict:
    g, m = case.graph, len(case.edges)
    out: dict = {}
    lg, sp = _spectrum(lib, g)
    out["line_edges"] = lg.edges
    out["mixing"] = lib.mixing.average_mixing(sp)
    out["basis_adj"] = lib.mixing.averaged_induced(sp, g, case.basis).adjacency
    out["state_adj"] = lib.mixing.averaged_induced(sp, g, case.state).adjacency
    out["rho_hat"] = lib.spectral.dephase(sp, _density(case.state))
    out["unitary"] = lib.spectral.evolve(sp, WALK_TIMES[0])
    expected = {"NonCommutative": case.state, "WeightedCommutative": case.eigvec}
    if case.eulerian:
        flat = lib.classify.flat_band_state(g)
        out["flat_signs"] = flat.signs
        out["trail"] = lib.graphs.eulerian_trail(g)
        out["theorem"] = lib.treecount.main_theorem_check(g, flat.normalized, sp)
        expected["UniformCommutative"] = flat.normalized
    out["verdicts"] = {
        verdict: lib.classify.classify(_density(v), g, sp).verdict
        for verdict, v in expected.items()
    }
    out["walks"] = []
    for t in WALK_TIMES:
        walked = lib.states.schur_state(g, case.state, t, sp)
        entropy = lib.entropy.vertex_entropy(lib.states.induced_graph(walked))
        out["walks"].append((walked.entries, entropy))
    out["bridges"] = lib.graphs.bridges(g)
    if trees:
        unit = lib.graphs.WeightedGraph(g, np.ones(m))
        weighted = lib.graphs.WeightedGraph(g, case.weights)
        out["trees"] = {
            name: (lib.treecount.tree_count_det(wg).value, lib.treecount.tree_count_enum(wg).value)
            for name, wg in (("unit", unit), ("weighted", weighted))
        }
        out["pure"] = lib.treecount.pure_state_tree_count(g, case.q, sp).value
        out["bridge_checks"] = [
            lib.treecount.bridge_factorization_check(weighted, b) for b in out["bridges"]
        ]
    return out


def check_analysis(case: Case, out: dict) -> None:
    o = case.oracle
    m = len(case.edges)
    expect(set(out["line_edges"]) == o.line_edges, "line_graph differs from networkx")

    check_mixing(out["mixing"], "average_mixing")
    basis_w = o.edge_weights(out["basis_adj"])
    close(out["mixing"][:, case.q], basis_w, 1e-12, "mixing column vs averaged basis-state weights")
    close(basis_w, o.eigen.averaged_weights(case.basis), 1e-10, "averaged_induced of a basis state")
    state_w = o.edge_weights(out["state_adj"])
    close(state_w, o.eigen.averaged_weights(case.state), 1e-10, "averaged_induced of a random state")

    rho_hat = out["rho_hat"]
    close(np.trace(rho_hat), 1.0, 1e-12, "trace of the averaged density")
    close(rho_hat.diagonal().real, state_w, 1e-12, "averaged density diagonal vs averaged weights")
    drift = float(np.linalg.norm(o.line @ rho_hat - rho_hat @ o.line))
    expect(drift <= 1e-9, f"averaged density does not commute with A: {drift:.3e}")
    close(out["unitary"], o.eigen.evolve(WALK_TIMES[0]), 1e-9, "evolve vs the oracle exponential")

    for want, got in out["verdicts"].items():
        expect(got == want, f"classify verdict {got}, expected {want} by construction")
    if case.eulerian:
        check_flat_band(o, out["flat_signs"])
        check_closed_trail(o, out["trail"])
        flat = np.asarray(out["flat_signs"]) / math.sqrt(m)
        expect(out["theorem"]["is_uniform_commutative"], "flat band not uniform commutative")
        check_theorem(o, flat, out["theorem"])

    for t, (entries, entropy) in zip(WALK_TIMES, out["walks"]):
        amps = o.eigen.evolve(t) @ case.state
        close(o.edge_weights(entries), amps, 1e-9, f"Schur state at t={t}")
        close(np.vdot(entries, entries), 2.0, 1e-9, f"<S,S> at t={t}")
        want = vertex_entropy(o.n, o.edges, np.abs(amps) ** 2)
        close(entropy, want, 1e-9, f"vertex entropy at t={t}")

    expect(out["bridges"] == o.bridges, f"bridges {out['bridges']} != networkx {o.bridges}")
    if "trees" in out:
        for name, weights in (("unit", np.ones(m)), ("weighted", case.weights)):
            want = o.tree_count(weights)
            for method, got in zip(("det", "enum"), out["trees"][name]):
                close(got, want, 1e-9, f"tree_count_{method} ({name} weights)", relative=True)
        pure_w = o.eigen.averaged_weights(case.basis)
        close(out["pure"], o.tree_count(pure_w), 1e-8, "pure_state_tree_count", relative=True)
        want = o.tree_count(case.weights)
        for report in out["bridge_checks"]:
            close(report["whole"], want, 1e-9, "bridge check whole count", relative=True)
            close(report["product"], want, 1e-9, "bridge factorization product", relative=True)


def analysis_op(case: Case, trees: bool) -> Op:
    return Op(
        "analysis",
        lambda lib: analyse(lib, case, trees),
        lambda out: check_analysis(case, out),
    )


def theorem_op(case: Case) -> Op:
    def run(lib):
        _, sp = _spectrum(lib, case.graph)
        return lib.treecount.main_theorem_check(case.graph, case.state, sp)

    return Op("theorem", run, lambda report: check_theorem(case.oracle, case.state, report))


# -- spectral-heavy -----------------------------------------------------------


def spectral_heavy(sw, seed: int, smoke: bool, workdir: Path) -> Rounds:
    """Eulerian, non-regular graphs with 50 vertices and 200 edges; one analysis per op."""
    rng = np.random.default_rng(seed)
    n, m, pool = (10, 20, 2) if smoke else (50, 200, 6)
    cases = []
    while len(cases) < pool:
        edges = inputs.even_connected_edges(rng, n, m, regular_ok=False)
        eigvec = inputs.simple_eigenvector(rng, n, edges)
        if eigvec is not None:
            cases.append(make_case(sw, rng, n, edges, True, eigvec))
    return lambda i: [analysis_op(cases[i % pool], trees=False)]


# -- small-sweep --------------------------------------------------------------

# (vertices, edges, Eulerian) of the nine analyses in a round.  The sizes are
# fixed so that every seed gets the same enumeration work (C(m, n-1) edge
# subsets per count); the seed draws the graphs, states and weights.  The
# general graphs are sparse so that most of them have bridges; the Eulerian
# ones have none but carry a flat-band state.
SWEEP_SIZES = (
    (5, 4, False), (5, 6, True), (6, 7, False), (6, 8, True), (7, 8, False),
    (7, 10, True), (8, 10, False), (8, 12, True), (9, 14, False),
)


def small_case(sw, rng, n: int, m: int, eulerian: bool) -> Case:
    """Random connected graph of the given size with a usable simple eigenvector."""
    while True:
        if eulerian:
            edges = inputs.even_connected_edges(rng, n, m)
        else:
            edges = inputs.random_connected_edges(rng, n, m)
        eigvec = inputs.simple_eigenvector(rng, n, edges)
        if eigvec is not None:
            return make_case(sw, rng, n, edges, eulerian, eigvec)


def theorem_cases(sw) -> list[Case]:
    """Cycles and sparse graphs on 12-16 vertices with random full-support states.

    Built from a fixed seed: every one is an instance of the known fault in
    ``main_theorem_check``, so the share of failed operations is the same
    for every ``--seed``.
    """
    rng = np.random.default_rng(THEOREM_SEED)
    cases = []
    for n in (12, 14, 16):
        cycle = sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
        cases.append(make_case(sw, rng, n, cycle, False))
        cases.append(make_case(sw, rng, n, inputs.random_connected_edges(rng, n, n + 2), False))
    return cases


def small_sweep(sw, seed: int, smoke: bool, workdir: Path) -> Rounds:
    """Nine analyses of small graphs (with tree counts) and one theorem check per round."""
    rng = np.random.default_rng(seed)
    rounds = 2 if smoke else 70
    sizes = SWEEP_SIZES[:4] if smoke else SWEEP_SIZES
    pool = [[small_case(sw, rng, *size) for size in sizes] for _ in range(rounds)]
    fixed = theorem_cases(sw)

    def round_(i: int) -> list[Op]:
        ops = [analysis_op(case, trees=True) for case in pool[i % rounds]]
        return ops + [theorem_op(fixed[i % len(fixed)])]

    return round_


# -- cli-files ----------------------------------------------------------------


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = [(int(u), int(v)) for u, v in rows[1:]]
    expect(len(edges) == m, f"edge list announces {m} edges, has {len(edges)}")
    return n, edges


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def cli_op(command: str, argv: list[str], output: Path, check: Callable[[str], None], fault=None) -> Op:
    """One in-process ``schurwalk.cli.main`` call writing to ``output``.

    ``fault`` is the stderr fragment of a known failure of this exact call.
    """

    def run(lib):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = lib.cli.main([command, *argv, "--output", str(output)])
        return code, err.getvalue().strip()

    def verify(result) -> None:
        code, stderr = result
        if code != 0:
            shown = " ".join(Path(a).name if "/" in a else a for a in argv)
            message = f"schurwalk {command} {shown} exited {code}: {stderr}"
            if fault is not None and code == 3 and fault in stderr:
                raise KnownFault(message)
            raise Mismatch(message)
        check(output.read_text())

    return Op(f"cli:{command}", run, verify, output.stem)


def cli_files(sw, seed: int, smoke: bool, workdir: Path) -> Rounds:
    """Every CLI command on edge-list files written during set-up."""
    rng = np.random.default_rng(seed)
    half = 2 if smoke else 1
    n_random, n_euler, n_k, n_path = 40 // half, 24 // half, 20 // half, 40 // half
    graphs = {
        "random": (n_random, inputs.random_connected_edges(rng, n_random, 150 // half)),
        "small": (8, inputs.random_connected_edges(rng, 8, 16)),
        "euler": (n_euler, inputs.even_connected_edges(rng, n_euler, 60 // half, regular_ok=False)),
        "k20": (n_k, complete_edges(n_k)),
        "p40": (n_path, [(i, i + 1) for i in range(n_path - 1)]),
        "k8": (8, complete_edges(8)),
        "k1010": (20, [(i, 10 + j) for i in range(10) for j in range(10)]),
    }
    files = {}
    for name, (n, edges) in graphs.items():
        files[name] = workdir / f"{name}.edges"
        files[name].write_text(edge_list_text(n, edges))
    oracle = {name: GraphOracle(n, edges) for name, (n, edges) in graphs.items()}
    mixing = {name: oracle[name].eigen.mixing() for name in ("k20", "random")}
    weights = rng.uniform(0.1, 2.0, size=16)
    (workdir / "small.weights").write_text("".join(f"{float(w)!r}\n" for w in weights))
    q_small = int(rng.integers(16))
    q_euler = int(rng.integers(len(graphs["euler"][1])))
    texts = {name: path.read_text() for name, path in files.items()}

    def out(name: str) -> Path:
        return workdir / f"{name}.out"

    def mix_check(name):
        def check(text):
            data = json.loads(text)
            mix = np.array(data["rows"])
            expect(data["m"] == len(graphs[name][1]), "mix reports the wrong size")
            check_mixing(mix, f"mix {name}")
            if name == "p40":
                n = graphs[name][0]
                size = n - 1
                closed = (2 * np.ones((size, size)) + np.eye(size) + np.fliplr(np.eye(size))) / (2 * n)
                close(mix, closed, 1e-12, "mix P_n vs (2J + I + T)/(2n)")
            else:
                close(mix, mixing[name], 1e-9, f"mix {name} vs oracle")
        return check

    def linegraph_check(text):
        n, edges = read_edge_list(text)
        expect(n == len(graphs["random"][1]), "linegraph has the wrong vertex count")
        expect(set(edges) == oracle["random"].line_edges, "linegraph differs from networkx")

    def classify_check(verdict, m_rho):
        def check(text):
            data = json.loads(text)
            expect(data["verdict"] == verdict, f"classify verdict {data['verdict']}, expected {verdict}")
            if verdict == "UniformCommutative":
                expect(data["m_rho"] == m_rho, "flat-band support is not every edge")
                close(data["weights"], np.full(m_rho, 1.0 / m_rho), 1e-9, "flat-band weights")
        return check

    def treecount_check(name, weights, identity=False):
        def check(text):
            o = oracle[name]
            data = json.loads(text)
            want = o.tree_count(weights)
            close(data["lhs"], want, 1e-9, f"treecount lhs on {name}", relative=True)
            if identity:
                n, m = o.n, len(o.edges)
                target = o.tree_count(np.ones(m)) / m ** (n - 1)
                close(data["rhs"], target, 1e-9, "treecount identity rhs", relative=True)
            else:
                close(data["rhs"], want, 1e-9, f"treecount oracle rhs on {name}", relative=True)
            expect(data["passed"] is True, "treecount reports passed=false on a true identity")
        return check

    def entropy_check(text):
        lines = text.splitlines()
        expect(lines[0].startswith("# von_neumann_entropy_bits = "), "entropy header missing")
        close(float(lines[0].split("=")[1]), 0.0, 1e-9, "von Neumann entropy of a pure state")
        o = oracle["euler"]
        e = np.zeros(len(o.edges), dtype=complex)
        e[q_euler] = 1.0
        rows = [line.split(",") for line in lines[2:]]
        expect(len(rows) == 6, f"entropy reports {len(rows)} times, expected 6")
        for t, value in rows:
            amps = o.eigen.evolve(float(t)) @ e
            want = vertex_entropy(o.n, o.edges, np.abs(amps) ** 2)
            close(float(value), want, 1e-9, f"vertex entropy at t={t}")

    def flatband_check(name):
        def check(text):
            data = json.loads(text)
            check_flat_band(oracle[name], np.array(data["signs"]))
        return check

    def parse_run(lib):
        return [lib.graphs.parse_edge_list(text) for text in texts.values()]

    def parse_check(parsed):
        for g, (n, edges) in zip(parsed, graphs.values()):
            expect(g.n_vertices == n and list(g.edges) == edges, "parse_edge_list changed a graph")

    def to_json_check(text):
        data = json.loads(text)
        close(np.array(data["rows"]), mixing["k20"], 0.0, "mixing_to_json round trip")

    m_euler = len(graphs["euler"][1])
    uniform = np.full(len(graphs["random"][1]), 1.0 / len(graphs["random"][1]))
    mixing_weights = oracle["small"].eigen.averaged_weights(np.eye(16)[q_small].astype(complex))
    inp = {name: ["--input", str(path)] for name, path in files.items()}
    ops = [
        cli_op("linegraph", inp["random"], out("linegraph"), linegraph_check),
        cli_op("mix", inp["k20"], out("mix-k20"), mix_check("k20")),
        cli_op("mix", inp["random"], out("mix-random"), mix_check("random")),
        cli_op("mix", inp["p40"], out("mix-p40"), mix_check("p40")),
        cli_op("classify", inp["euler"] + ["--state", "flatband"], out("classify-flat"),
               classify_check("UniformCommutative", m_euler)),
        cli_op("classify", inp["euler"] + ["--state", f"edge:{q_euler}"], out("classify-edge"),
               classify_check("NonCommutative", m_euler)),
        cli_op("treecount", inp["random"] + ["--weights", "uniform"], out("tc-uniform"),
               treecount_check("random", uniform, identity=True)),
        cli_op("treecount", inp["small"] + ["--weights", f"mixing:{q_small}"], out("tc-mixing"),
               treecount_check("small", mixing_weights)),
        cli_op("treecount", inp["small"] + ["--weights", f"file:{workdir / 'small.weights'}"],
               out("tc-file"), treecount_check("small", weights)),
        cli_op("treecount", inp["k8"], out("tc-k8"), treecount_check("k8", np.ones(28)),
               fault="exceeds the enumeration cap"),
        cli_op("entropy", inp["euler"] + ["--state", f"edge:{q_euler}"], out("entropy"), entropy_check),
        cli_op("flatband", inp["k1010"], out("flat-k1010"), flatband_check("k1010")),
        cli_op("flatband", inp["euler"], out("flat-euler"), flatband_check("euler")),
        Op("parse_edge_list", parse_run, parse_check),
        Op("mixing_to_json", lambda lib: lib.mixing.mixing_to_json(mixing["k20"]), to_json_check),
    ]
    return lambda i: ops


WORKLOADS = {
    "spectral-heavy": spectral_heavy,
    "small-sweep": small_sweep,
    "cli-files": cli_files,
}

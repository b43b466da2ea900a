"""The acceptance suite: one callable per criterion, shared by pytest and the CLI.

Every criterion runs at its stated tolerance with seeded randomness and
returns a :class:`CriterionResult`; ``run_all`` executes them in order.  The
whole suite completes in well under a minute.

The oracles the criteria and the tests check the library against live here
and nowhere else, so that no library call runs one: the dense projectors of
a :class:`~schurwalk.spectral.Spectrum` and the quadrature time average built
on them, the closed-form mixing matrix of a path, the commutator norm, the
disjoint-union entropy law and the random search over simplex weights.  No
other library module imports this one, except the ``check-all`` command.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import cli
from .classify import (
    UNIFORM_COMMUTATIVE,
    NON_COMMUTATIVE,
    WEIGHTED_COMMUTATIVE,
    classify,
    flat_band_state,
)
from .entropy import binary_entropy, vertex_entropy, von_neumann_entropy
from .errors import OddDegreeVertex, OddEdgeCount, SchurWalkError
from .graphs import (
    Graph,
    WeightedGraph,
    adjacency_matrix,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    figure_eight_graph,
    incidence_matrix,
    is_connected,
    line_graph,
    path_graph,
)
from .mixing import average_mixing, averaged_density
from .spectral import Spectrum, _check_square, decompose, dephase, line_graph_spectrum
from .states import basis_state, induced_from_adjacency, schur_inner, schur_state, uniform_state
from .treecount import (
    bridge_factorization_check,
    main_theorem_check,
    spanning_trees,
    tree_count_det,
    tree_count_enum,
    weighted_laplacian,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def random_connected_graph(rng: np.random.Generator, n_min: int = 2, n_max: int = 7) -> Graph:
    """Random spanning tree plus random extra edges; always connected."""
    n = int(rng.integers(n_min, n_max + 1))
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        u, v = int(order[i]), int(order[j])
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    return Graph(n, tuple(sorted(edges)))


def random_edge_state(rng: np.random.Generator, m: int) -> np.ndarray:
    vec = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return vec / np.linalg.norm(vec)


def random_density_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


# -- oracles -----------------------------------------------------------------


def projectors(spectrum: Spectrum) -> tuple[np.ndarray, ...]:
    """Dense orthogonal projector of each group of ``spectrum``, in group order.

    ``I - V_R V_R^T`` for the dominant group and ``V_g V_g^T`` for each
    other group.  It costs one m x m matrix per distinct eigenvalue.
    """
    out = []
    for g in range(len(spectrum.distinct_eigenvalues)):
        if g == spectrum.dominant:
            out.append(np.eye(spectrum.dimension) - spectrum.rest_basis @ spectrum.rest_basis.T)
        else:
            v_g = spectrum.rest_basis[:, spectrum.rest_groups == g]
            out.append(v_g @ v_g.T)
    return tuple(out)


def numeric_time_average(
    spectrum: Spectrum, x: np.ndarray, horizon: float, steps: int
) -> np.ndarray:
    """Trapezoidal approximation of the finite-time average of U(t) X U(t)^dag.

    Averages over ``[0, horizon]`` with ``steps`` equal subintervals.  This is
    the brute-force quadrature oracle for :func:`~schurwalk.spectral.dephase`;
    the deviation decays like ``1/horizon``.  With the :func:`projectors`
    ``P_g`` this is ``sum_{g,h} F[g, h] P_g X P_h``, where ``F[g, h]`` is the
    quadrature sum of ``exp(i t (theta_g - theta_h))``, so each step costs
    k x k phases, not an m x m product.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    x = _check_square(spectrum, x)

    thetas = spectrum.distinct_eigenvalues
    dt = horizon / steps
    factors = np.zeros((len(thetas), len(thetas)), dtype=complex)
    chunk = 65536
    for lo in range(0, steps + 1, chunk):
        ts = dt * np.arange(lo, min(lo + chunk, steps + 1))
        weights = np.ones(ts.shape)
        if lo == 0:
            weights[0] = 0.5
        if lo + chunk >= steps + 1:
            weights[-1] = 0.5
        phases = np.exp(1j * np.outer(ts, thetas))
        factors += (weights[:, None] * phases).T @ phases.conj()
    n = spectrum.dimension
    p = np.array(projectors(spectrum)).reshape(len(thetas), n, n)  # k x n x n, also for k = 0
    # sum_g P_g X (sum_h F[g, h] P_h)
    return (p @ x @ np.tensordot(factors, p, axes=1)).sum(axis=0) * (dt / horizon)


def path_mixing_closed_form(n: int) -> np.ndarray:
    """Average mixing matrix of the line graph of the n-vertex path, in closed form.

    The line graph is the (n-1)-vertex path and its mixing matrix is
    ``(2J + I + T) / (2n)`` where ``T`` is the index-reversal permutation.
    Diagonal entries are ``3/(2n)``, except ``2/n`` at the central edge when
    ``n`` is even.
    """
    if n < 2:
        raise ValueError("need a path with at least one edge")
    size = n - 1
    reversal = np.fliplr(np.eye(size))
    return (2 * np.ones((size, size)) + np.eye(size) + reversal) / (2 * n)


def commutator_norm(matrix: np.ndarray, rho: np.ndarray) -> float:
    """Frobenius norm of ``A rho - rho A``."""
    a = np.asarray(matrix, dtype=complex)
    r = np.asarray(rho, dtype=complex)
    if a.shape != r.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SchurWalkError(f"incompatible shapes {a.shape} and {r.shape}")
    return float(np.linalg.norm(a @ r - r @ a))


def disjoint_union_entropy_check(
    rho1: np.ndarray, rho2: np.ndarray, p: float
) -> tuple[float, float]:
    """Both sides of the disjoint-union entropy law, computed independently.

    Left: entropy of the block mixture ``p rho1 (+) (1-p) rho2`` computed
    directly on the block matrix.  Right: ``h(p) + p E(rho1) + (1-p) E(rho2)``.
    """
    if not 0.0 <= p <= 1.0:
        raise SchurWalkError(f"p = {p!r} is outside [0, 1]")
    a = np.asarray(rho1, dtype=complex)
    b = np.asarray(rho2, dtype=complex)
    block = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    block[: a.shape[0], : a.shape[0]] = p * a
    block[a.shape[0] :, a.shape[0] :] = (1.0 - p) * b
    lhs = von_neumann_entropy(block)
    rhs = binary_entropy(p) + p * von_neumann_entropy(a) + (1.0 - p) * von_neumann_entropy(b)
    return lhs, rhs


def uniform_optimality_scan(g: Graph, samples: int, seed: int) -> dict:
    """Seeded random search for a simplex weight vector beating the uniform one.

    Samples uniformly from the weight simplex (normalized exponentials) and
    records the largest observed ratio against the uniform-weight count.
    Uniform weights are not the optimum on every graph (on the paw,
    (2/9, 2/9, 2/9, 1/3) beats them by 256/243), so a sample may exceed it.
    """
    if not is_connected(g):
        raise SchurWalkError("graph is not connected")
    m = g.n_edges
    rng = np.random.default_rng(seed)
    uniform_value = tree_count_det(WeightedGraph(g, np.full(m, 1.0 / m))).value
    max_ratio = 0.0
    all_within = True
    for _ in range(samples):
        w = rng.exponential(size=m)
        w /= w.sum()
        value = tree_count_det(WeightedGraph(g, w)).value
        if value > uniform_value + 1e-12:
            all_within = False
        max_ratio = max(max_ratio, value / uniform_value)
    return {
        "samples": samples,
        "seed": seed,
        "uniform_value": uniform_value,
        "max_ratio": max_ratio,
        "all_within_bound": all_within,
    }


# -- criteria ----------------------------------------------------------------


def criterion_1(seed: int = 0) -> CriterionResult:
    """Squared norm of every walked Schur state equals 2."""
    rng = np.random.default_rng(seed + 1000)
    worst = 0.0
    for _ in range(20):
        g = random_connected_graph(rng, 2, 7)
        spectrum = line_graph_spectrum(g)
        state = random_edge_state(rng, g.n_edges)
        for t in rng.uniform(0.0, 10.0, size=20):
            walked = schur_state(g, state, float(t), spectrum)
            worst = max(worst, abs(schur_inner(walked, walked) - 2.0))
    return CriterionResult(
        1, "norm-2 law", worst < 1e-9, f"max |<S,S> - 2| = {worst:.3e} (tol 1e-9)"
    )


def criterion_2(seed: int = 0) -> CriterionResult:
    """Quadrature time average converges to the closed-form dephasing."""
    spectrum = line_graph_spectrum(path_graph(4))
    x = np.zeros((3, 3), dtype=complex)
    x[0, 0] = 1.0
    target = dephase(spectrum, x)
    dev_short = float(np.linalg.norm(numeric_time_average(spectrum, x, 1e4, 10**6) - target))
    dev_long = float(np.linalg.norm(numeric_time_average(spectrum, x, 1e5, 10**6) - target))
    passed = dev_short < 1e-2 and dev_long * 5.0 <= dev_short
    return CriterionResult(
        2,
        "dephasing oracle",
        passed,
        f"deviation {dev_short:.3e} at T=1e4 (tol 1e-2), {dev_long:.3e} at T=1e5 "
        f"(ratio {dev_short / dev_long:.1f}x, need >= 5x)",
    )


def criterion_3(seed: int = 0) -> CriterionResult:
    """Averaged tree count matches the scaled unit count on the reference graphs."""
    cases = [
        ("c4", cycle_graph(4), False, 4.0),
        ("c6", cycle_graph(6), False, 6.0),
        ("k4", complete_graph(4), False, 16.0),
        ("k5", complete_graph(5), False, 125.0),
        ("fig8", figure_eight_graph(), True, 16.0),
    ]
    notes = []
    passed = True
    for name, g, use_flat_band, expected_count in cases:
        spectrum = line_graph_spectrum(g)
        state = flat_band_state(g).normalized if use_flat_band else uniform_state(g.n_edges)
        report = main_theorem_check(g, state, spectrum)
        enum = tree_count_enum(WeightedGraph(g, np.ones(g.n_edges))).value
        ok = (
            report["passed"]
            and report["is_uniform_commutative"]
            and enum == expected_count
        )
        passed = passed and ok
        notes.append(f"{name}: |lhs-rhs|={abs(report['lhs'] - report['rhs']):.1e}, tn={enum:g}")
    return CriterionResult(3, "main theorem", passed, "; ".join(notes))


def _connected_graph_catalog(rng: np.random.Generator) -> list[Graph]:
    """All labeled connected graphs on up to 5 vertices, plus 20 random 6-vertex ones."""
    graphs = []
    for n in range(1, 6):
        possible = tuple(itertools.combinations(range(n), 2))
        for k in range(n - 1, len(possible) + 1):
            for subset in itertools.combinations(possible, k):
                g = Graph(n, subset)
                if is_connected(g):
                    graphs.append(g)
    for _ in range(20):
        graphs.append(random_connected_graph(rng, 6, 6))
    return graphs


def _elementary_laplacians(g: Graph) -> np.ndarray:
    """The Laplacian of each edge alone, stacked: weights go in by ``tensordot``."""
    n, m = g.n_vertices, g.n_edges
    laps = [weighted_laplacian(WeightedGraph(g, unit)) for unit in np.eye(m)]
    return np.array(laps).reshape(m, n, n)


def criterion_4(seed: int = 0) -> CriterionResult:
    """Determinant and enumeration tree counts agree; any row deletion works."""
    rng = np.random.default_rng(seed + 4000)
    graphs = _connected_graph_catalog(rng)
    worst_rel = 0.0
    worst_spread = 0.0
    for g in graphs:
        n, m = g.n_vertices, g.n_edges
        trees = spanning_trees(g)
        weights = rng.uniform(0.05, 1.0, size=(50, m))
        enum_vals = np.zeros(50)
        for tree in trees:
            enum_vals += np.prod(weights[:, list(tree)], axis=1) if tree else 1.0
        laps = np.tensordot(weights, _elementary_laplacians(g), axes=1)
        dets = np.empty((50, n))
        for i in range(n):
            minors = np.delete(np.delete(laps, i, axis=1), i, axis=2)
            dets[:, i] = np.linalg.det(minors)
        rel = np.abs(dets[:, 0] - enum_vals) / np.maximum(enum_vals, 1e-300)
        worst_rel = max(worst_rel, float(rel.max()))
        worst_spread = max(worst_spread, float((dets.max(axis=1) - dets.min(axis=1)).max()))
    passed = worst_rel < 1e-9 and worst_spread < 1e-10
    return CriterionResult(
        4,
        "matrix-tree vs enumeration",
        passed,
        f"{len(graphs)} graphs x 50 weight draws: max relative gap {worst_rel:.3e} "
        f"(tol 1e-9), max deletion spread {worst_spread:.3e} (tol 1e-10)",
    )


def criterion_5(seed: int = 0) -> CriterionResult:
    """Computed path mixing matrices match the closed form."""
    worst = 0.0
    diag_ok = True
    for n in range(3, 11):
        computed = average_mixing(line_graph_spectrum(path_graph(n)))
        worst = max(worst, float(np.abs(computed - path_mixing_closed_form(n)).max()))
        size = n - 1
        for q in range(size):
            expected = 2.0 / n if (n % 2 == 0 and q == size // 2) else 3.0 / (2 * n)
            if abs(computed[q, q] - expected) >= 1e-9:
                diag_ok = False
    return CriterionResult(
        5,
        "path closed form",
        worst < 1e-9 and diag_ok,
        f"n=3..10: max entry gap {worst:.3e} (tol 1e-9), diagonal law "
        f"{'holds' if diag_ok else 'fails'}",
    )


def criterion_6(seed: int = 0) -> CriterionResult:
    """Flat-band construction is integer-exact and classifies as uniform commutative."""
    h = figure_eight_graph()
    fb = flat_band_state(h)
    b = incidence_matrix(h)
    lg = line_graph(h)
    a_line = adjacency_matrix(lg)
    checks = {
        "signs are +/-1": set(np.unique(fb.signs)) == {-1, 1},
        "kernel of incidence": not (b @ fb.signs).any(),
        "-2 eigenvector": ((a_line @ fb.signs) == -2 * fb.signs).all(),
        "line graph non-regular": {2, 4} <= set(lg.degrees().tolist()),
    }
    rho = np.outer(fb.normalized, fb.normalized.conj())
    verdict = classify(rho, h, line_graph_spectrum(h))
    checks["classified uniform commutative"] = verdict.verdict == UNIFORM_COMMUTATIVE
    try:
        flat_band_state(path_graph(4))
        checks["P4 raises OddDegreeVertex"] = False
    except OddDegreeVertex:
        checks["P4 raises OddDegreeVertex"] = True
    try:
        flat_band_state(complete_graph(3))
        checks["K3 raises OddEdgeCount"] = False
    except OddEdgeCount:
        checks["K3 raises OddEdgeCount"] = True
    passed = all(checks.values())
    failing = [k for k, v in checks.items() if not v]
    return CriterionResult(
        6,
        "flat band",
        passed,
        "all checks hold" if passed else f"failing: {failing}",
    )


def criterion_7(seed: int = 0) -> CriterionResult:
    """Classifier reproduces the three reference verdicts."""
    c4 = cycle_graph(4)
    u = uniform_state(4)
    v1 = classify(np.outer(u, u.conj()), c4, line_graph_spectrum(c4))

    p4 = path_graph(4)
    e0 = basis_state(3, 0)
    v2 = classify(np.outer(e0, e0.conj()), p4, line_graph_spectrum(p4))

    k13 = complete_bipartite_graph(1, 3)
    vec = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    v3 = classify(np.outer(vec, vec.conj()), k13, line_graph_spectrum(k13))
    weights_ok = bool(
        np.abs(v3.weights - np.array([1 / 6, 1 / 6, 2 / 3])).max() < 1e-9
    )

    passed = (
        v1.verdict == UNIFORM_COMMUTATIVE
        and v2.verdict == NON_COMMUTATIVE
        and v3.verdict == WEIGHTED_COMMUTATIVE
        and weights_ok
    )
    return CriterionResult(
        7,
        "classification trichotomy",
        passed,
        f"uniform on lC4 -> {v1.verdict}; edge state on lP4 -> {v2.verdict}; "
        f"eigenvector on lK13 -> {v3.verdict} with weights {v3.weights.round(6).tolist()}",
    )


def criterion_8(seed: int = 0) -> CriterionResult:
    """Entropy composition laws, the averaging inequality, and the K_n value."""
    rng = np.random.default_rng(seed + 8000)
    notes = []
    passed = True

    worst = 0.0
    for _ in range(10):
        r1 = random_density_matrix(rng, int(rng.integers(2, 5)))
        r2 = random_density_matrix(rng, int(rng.integers(2, 5)))
        tensor_gap = abs(
            von_neumann_entropy(np.kron(r1, r2))
            - von_neumann_entropy(r1)
            - von_neumann_entropy(r2)
        )
        lhs, rhs = disjoint_union_entropy_check(r1, r2, float(rng.uniform()))
        worst = max(worst, tensor_gap, abs(lhs - rhs))
    passed = passed and worst < 1e-9
    notes.append(f"composition laws gap {worst:.2e}")

    jensen_violation = 0.0
    equality_gap = 0.0
    checked_equalities = 0
    for i in range(500):
        g = random_connected_graph(rng, 2, 6)
        lg_adj = adjacency_matrix(line_graph(g)).astype(float)
        spectrum = decompose(lg_adj)
        if i % 5 == 0:
            evals, evecs = np.linalg.eigh(lg_adj)
            state = evecs[:, int(rng.integers(0, g.n_edges))].astype(complex)
        else:
            state = random_edge_state(rng, g.n_edges)
        rho = np.outer(state, state.conj())
        before = von_neumann_entropy(rho)
        after = von_neumann_entropy(averaged_density(spectrum, state))
        jensen_violation = max(jensen_violation, before - after)
        if commutator_norm(lg_adj, rho) < 1e-10:
            checked_equalities += 1
            equality_gap = max(equality_gap, abs(after - before))
    passed = passed and jensen_violation < 1e-9 and equality_gap < 1e-8
    notes.append(
        f"500 states: max E(rho)-E(avg) = {jensen_violation:.2e}, "
        f"{checked_equalities} commuting states with equality gap {equality_gap:.2e}"
    )

    kn_gap = 0.0
    for n in range(3, 9):
        g = complete_graph(n)
        adj = adjacency_matrix(g).astype(float) / g.n_edges
        kn_gap = max(kn_gap, abs(vertex_entropy(induced_from_adjacency(adj)) - np.log2(n - 1)))
    passed = passed and kn_gap < 1e-9
    notes.append(f"uniform K_n vertex entropy gap {kn_gap:.2e}")

    return CriterionResult(8, "entropy laws", passed, "; ".join(notes))


def criterion_9(seed: int = 0) -> CriterionResult:
    """Pure-state path counts: exact values, ordering, and the bound report."""
    notes = []
    passed = True

    mix4 = average_mixing(line_graph_spectrum(path_graph(4)))
    p4 = path_graph(4)
    center = tree_count_det(WeightedGraph(p4, mix4[:, 1])).value
    end = tree_count_det(WeightedGraph(p4, mix4[:, 0])).value
    passed = passed and abs(center - 1 / 32) < 1e-12 and abs(end - 9 / 256) < 1e-12
    notes.append(f"center {center!r} vs 1/32, end {end!r} vs 9/256 (tol 1e-12)")

    bound_report = []
    for n in (4, 6, 8):
        g = path_graph(n)
        mix = average_mixing(line_graph_spectrum(g))
        m = n - 1
        counts = [tree_count_det(WeightedGraph(g, mix[:, q])).value for q in range(m)]
        central = counts[m // 2]
        off_center = [counts[q] for q in range(m) if q != m // 2]
        uniform_bound = 1.0 / (n - 1) ** (n - 1)
        printed_bound = 1.0 / (n - 1) ** n
        ordering = all(central < c < uniform_bound for c in off_center)
        passed = passed and ordering
        bound_report.append(
            f"n={n}: printed bound 1/(n-1)^n "
            f"{'holds' if all(c < printed_bound for c in counts) else 'FAILS (reported only)'}"
        )
        notes.append(f"n={n} ordering {'holds' if ordering else 'fails'}")
    notes.append("; ".join(bound_report))
    return CriterionResult(9, "pure-state path counts", passed, "; ".join(notes))


def criterion_10(seed: int = 0) -> CriterionResult:
    """No random simplex weighting beats the uniform one."""
    notes = []
    passed = True
    for name, g in [("c4", cycle_graph(4)), ("k4", complete_graph(4)), ("p5", path_graph(5))]:
        report = uniform_optimality_scan(g, samples=1000, seed=seed + 10_000)
        passed = passed and report["all_within_bound"]
        notes.append(f"{name}: max ratio {report['max_ratio']:.6f}")
    return CriterionResult(10, "uniform optimality", passed, "; ".join(notes))


def criterion_11(seed: int = 0) -> CriterionResult:
    """Tree counts factor across bridges."""
    rng = np.random.default_rng(seed + 11_000)
    worst = 0.0
    for _ in range(20):
        g1 = random_connected_graph(rng, 2, 4)
        g2 = random_connected_graph(rng, 2, 4)
        shift = g1.n_vertices
        edges = list(g1.edges)
        edges += [(u + shift, v + shift) for u, v in g2.edges]
        joint_u = int(rng.integers(0, g1.n_vertices))
        joint_v = int(rng.integers(0, g2.n_vertices)) + shift
        edges.append((joint_u, joint_v))
        g = Graph(g1.n_vertices + g2.n_vertices, tuple(edges))
        bridge_index = g.edges.index((min(joint_u, joint_v), max(joint_u, joint_v)))
        wg = WeightedGraph(g, rng.uniform(0.05, 1.0, size=g.n_edges))
        report = bridge_factorization_check(wg, bridge_index)
        rel = abs(report["whole"] - report["product"]) / max(abs(report["whole"]), 1e-300)
        worst = max(worst, rel)
    return CriterionResult(
        11,
        "bridge factorization",
        worst < 1e-9,
        f"20 random bridge graphs: max relative gap {worst:.3e} (tol 1e-9)",
    )


def criterion_12(seed: int = 0) -> CriterionResult:
    """Line-graph spectra stay above -2; K_{2,4} drops below."""
    rng = np.random.default_rng(seed + 12_000)
    floor = np.inf
    for _ in range(50):
        g = random_connected_graph(rng, 2, 7)
        lg = line_graph(g)
        floor = min(floor, decompose(adjacency_matrix(lg)).distinct_eigenvalues[0])
    k24 = complete_bipartite_graph(2, 4)
    k24_floor = decompose(adjacency_matrix(k24)).distinct_eigenvalues[0]
    passed = floor >= -2.0 - 1e-9 and abs(k24_floor + np.sqrt(8.0)) < 1e-9
    return CriterionResult(
        12,
        "spectral floor",
        passed,
        f"50 line graphs: min eigenvalue {floor:.6f} >= -2; "
        f"K24 floor {k24_floor:.6f} vs -sqrt(8)",
    )


def _cli_text(argv: list[str]) -> str:
    parser = cli.build_parser()
    cfg = cli.config_from_args(parser.parse_args(argv))
    text, code = cli.run_command(cfg)
    assert code == 0, f"command {argv} exited {code}"
    return text


def criterion_13(seed: int = 0) -> CriterionResult:
    """Command outputs are byte-identical across repeated runs."""
    commands = [
        ["mix", "--builtin", "p4"],
        ["classify", "--builtin", "fig8", "--state", "flatband"],
        ["treecount", "--builtin", "c4", "--weights", "uniform"],
        ["treecount", "--builtin", "p4", "--weights", "mixing:1"],
        ["entropy", "--builtin", "k4", "--state", "uniform", "--times", "0.0,0.7,1.9"],
        ["linegraph", "--builtin", "k13"],
        ["flatband", "--builtin", "fig8"],
    ]
    stable = all(_cli_text(argv) == _cli_text(argv) for argv in commands)
    return CriterionResult(
        13,
        "deterministic output",
        stable,
        f"{len(commands)} commands re-run byte-identically",
    )


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
]


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [criterion(seed=seed) for criterion in ALL_CRITERIA]

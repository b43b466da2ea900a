"""Spans around the benchmark's own calls into schurwalk, and the per-layer metrics.

A span is ``(span_id, parent_id, op_id, module, name, start, end)``.  Each
operation gets a span of module ``bench``; every call the operation makes
into a program module is a child span of it.  A library call nested inside
another (``dephase`` inside ``classify``) is not seen and counts toward its
outer call.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import tracemalloc
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

MB = float(1 << 20)

# (module, function) -> per-layer metric holding the median call time in ms.
CALL_METRICS = {
    ("spectral", "decompose"): "decompose_ms",
    ("spectral", "dephase"): "dephase_ms",
    ("spectral", "evolve"): "evolve_ms",
    ("mixing", "average_mixing"): "average_mixing_ms",
    ("mixing", "averaged_induced"): "averaged_induced_ms",
    ("mixing", "mixing_to_json"): "to_json_ms",
    ("classify", "classify"): "classify_ms",
    ("classify", "flat_band_state"): "flat_band_ms",
    ("graphs", "line_graph"): "line_graph_ms",
    ("graphs", "bridges"): "bridges_ms",
    ("graphs", "eulerian_trail"): "eulerian_trail_ms",
    ("graphs", "parse_edge_list"): "parse_edge_list_ms",
    ("treecount", "tree_count_det"): "det_ms",
    ("treecount", "tree_count_enum"): "enum_ms",
    ("treecount", "pure_state_tree_count"): "pure_state_ms",
    ("treecount", "main_theorem_check"): "main_theorem_ms",
    ("treecount", "bridge_factorization_check"): "bridge_check_ms",
    ("states", "schur_state"): "schur_state_ms",
    ("entropy", "vertex_entropy"): "vertex_entropy_ms",
    ("cli", "mix"): "mix_ms",
    ("cli", "classify"): "classify_ms",
    ("cli", "treecount"): "treecount_ms",
    ("cli", "entropy"): "entropy_ms",
    ("cli", "linegraph"): "linegraph_ms",
    ("cli", "flatband"): "flatband_ms",
}

LAYERS = ("graphs", "spectral", "states", "mixing", "treecount", "classify", "entropy", "cli")


def array_mb(obj) -> float:
    """Bytes held in the ndarray fields of a result object (computed, not measured)."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, (tuple, list)) else (value,)
        total += sum(x.nbytes for x in items if isinstance(x, np.ndarray))
    return total / MB


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._op_span: int | None = None
        self._op_id = -1

    def begin_op(self, kind: str) -> None:
        self._op_id += 1
        self._op_span = len(self.spans)
        self.spans.append([self._op_span, None, self._op_id, "bench", kind, time.perf_counter(), None])

    def end_op(self) -> None:
        self.spans[self._op_span][6] = time.perf_counter()
        self._op_span = None

    def call(self, module: str, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span; a call that raises leaves no span."""
        span_name = args[0][0] if module == "cli" else name
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append([len(self.spans), self._op_span, self._op_id, module, span_name, start, end])
        observe = OBSERVERS.get((module, name))
        if observe is not None:
            observe(self, fn, args, result)
        return result

    def library(self, modules: dict) -> SimpleNamespace:
        """Stand-ins for the program's modules whose functions record spans."""
        return SimpleNamespace(
            **{layer: _TracedModule(module, layer, self) for layer, module in modules.items()}
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["span", "parent", "op", "module", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never calls reads 0."""
        durations: dict[tuple[str, str], list[float]] = defaultdict(list)
        for _, _, _, module, name, start, end in self.spans:
            if module != "bench":
                durations[(module, name)].append(end - start)
        out: dict[str, float] = {}
        for layer in LAYERS:
            calls = [d for (module, _), ds in durations.items() if module == layer for d in ds]
            out[f"{layer}.busy_s"] = float(sum(calls))
            out[f"{layer}.calls"] = len(calls)
        for (module, name), metric in CALL_METRICS.items():
            ds = durations.get((module, name))
            out[f"{module}.{metric}"] = 1e3 * statistics.median(ds) if ds else 0.0
        for name in ("spectral.groups", "spectral.projector_mb", "spectral.decompose_peak_mb"):
            values = self.samples.get(name)
            out[name] = statistics.median(values) if values else 0.0
        trees = sum(self.samples.get("treecount.enum_trees", []))
        subsets = sum(self.samples.get("treecount.enum_subsets", []))
        out["treecount.enum_yield"] = trees / subsets if subsets else 0.0
        out["treecount.enum_subsets"] = subsets
        sizes = self.samples.get("cli.output_kb", [])
        out["cli.output_kb"] = statistics.fmean(sizes) if sizes else 0.0
        return out


class _TracedModule:
    def __init__(self, module, layer: str, tracer: Tracer):
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, name: str):
        fn = getattr(self._module, name)
        if isinstance(fn, type) or not callable(fn):
            return fn

        def traced(*args, **kwargs):
            return self._tracer.call(self._layer, name, fn, args, kwargs)

        return traced


# -- counts recorded at the same boundaries as the spans ---------------------


def _observe_decompose(tracer: Tracer, fn, args, spectrum) -> None:
    tracer.samples["spectral.groups"].append(len(spectrum.distinct_eigenvalues))
    tracer.samples["spectral.projector_mb"].append(array_mb(spectrum))
    # Peak traced allocation of a repeat of the same call, made outside its span.
    tracemalloc.start()
    try:
        fn(*args)
        tracer.samples["spectral.decompose_peak_mb"].append(tracemalloc.get_traced_memory()[1] / MB)
    finally:
        tracemalloc.stop()


def _observe_enum(tracer: Tracer, fn, args, result) -> None:
    wg = args[0]
    if np.all(wg.weights == 1.0):
        n, m = wg.graph.n_vertices, wg.graph.n_edges
        tracer.samples["treecount.enum_trees"].append(round(result.value))
        tracer.samples["treecount.enum_subsets"].append(math.comb(m, n - 1))


def _observe_cli(tracer: Tracer, fn, args, code) -> None:
    argv = args[0]
    if code == 0 and "--output" in argv:
        with open(argv[argv.index("--output") + 1], "rb") as fh:
            tracer.samples["cli.output_kb"].append(len(fh.read()) / 1024.0)


OBSERVERS = {
    ("spectral", "decompose"): _observe_decompose,
    ("treecount", "tree_count_enum"): _observe_enum,
    ("cli", "main"): _observe_cli,
}

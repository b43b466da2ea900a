"""Seeded benchmark of schurwalk: end-to-end metrics, checked outputs, per-layer spans.

    python3 bench/run.py --workload spectral-heavy --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload cli-files --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload small-sweep --seed 1 --seconds 2 --smoke
    python3 bench/run.py --self-test

One invocation runs one workload in its own process.  It imports schurwalk
from ``src/`` of the checkout it sits in, sets up the workload several times
(``setup_s`` is the median), then runs whole rounds of operations until
their summed time reaches ``--seconds``.  Each output is checked against an
oracle outside the timed calls.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``, with ``--trace 1``
its per-layer ones, taken from spans around the benchmark's calls.
"""

from __future__ import annotations

import os

# One BLAS thread: on a small shared machine a second thread adds spread, not
# speed.  This must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from oracles import KnownFault, Mismatch
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


def import_program() -> tuple[object, dict]:
    """Import schurwalk afresh from this checkout's ``src/`` and nowhere else."""
    for name in [k for k in sys.modules if k.split(".")[0] == "schurwalk"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("schurwalk")
    if Path(package.__file__).resolve().parent != SRC / "schurwalk":
        raise ImportError(f"schurwalk came from {package.__file__}, not {SRC}")
    return package, {layer: importlib.import_module(f"schurwalk.{layer}") for layer in LAYERS}


def set_up(workload: str, seed: int, smoke: bool, workdir: Path):
    """Import the program, make the seeded inputs and run one uncounted warm-up operation."""
    start = time.perf_counter()
    package, modules = import_program()
    rounds = WORKLOADS[workload](package, seed, smoke, workdir)
    rounds(0)[0].run(SimpleNamespace(**modules))
    return time.perf_counter() - start, rounds, modules


class Tally:
    def __init__(self):
        self.attempted = 0
        self.busy = 0.0  # summed wall time of every attempted operation
        self.latencies: list[float] = []  # operations that succeeded
        self.known: Counter = Counter()
        self.unexpected: Counter = Counter()

    def run(self, op, lib, tracer: Tracer | None) -> float:
        if tracer is not None:
            tracer.begin_op(op.kind)
        start = time.perf_counter()
        try:
            out = op.run(lib)
            error = None
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"{op.kind}: raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        self.attempted += 1
        self.busy += elapsed
        if error is not None:
            self.unexpected[error] += 1
            return elapsed
        try:
            op.check(out)
        except KnownFault as fault:
            self.known[f"{op.kind}: {fault}"] += 1
        except Mismatch as mismatch:
            self.unexpected[f"{op.kind}: {mismatch}"] += 1
        else:
            self.latencies.append(elapsed)
        return elapsed


def measure(rounds, modules: dict, seconds: float, tracer: Tracer | None):
    """Run whole rounds until the summed operation time reaches ``seconds``.

    With a tracer every round runs twice on the same inputs, once traced and
    once not, in alternating order; the ratio of their times is the tracing
    overhead.
    """
    plain = SimpleNamespace(**modules)
    traced = tracer.library(modules) if tracer else None
    tally = Tally()
    spent = {True: 0.0, False: 0.0}
    index = 0
    while index == 0 or tally.busy < seconds:
        order = (True, False) if index % 2 == 0 else (False, True)
        for with_trace in order if tracer else (False,):
            lib = traced if with_trace else plain
            for op in rounds(index):
                spent[with_trace] += tally.run(op, lib, tracer if with_trace else None)
        index += 1
    return tally, spent


def end_to_end(tally: Tally, setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(tally.latencies) / tally.busy,
        "op_p50_ms": 1e3 * statistics.median(tally.latencies),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a run of seconds")
    parser.add_argument("--self-test", action="store_true", help="check that the checks catch faults")
    args = parser.parse_args(argv)

    if args.self_test:
        import selftest

        return selftest.main(import_program)
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            elapsed, rounds, modules = set_up(args.workload, args.seed, args.smoke, workdir)
            setups.append(elapsed)
        tracer = Tracer() if args.trace else None
        tally, spent = measure(rounds, modules, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        values = tracer.layer_metrics()
        values["trace.overhead_pct"] = 100.0 * (spent[True] / spent[False] - 1.0)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"# {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        values = end_to_end(tally, setups)

    failed = sum(tally.known.values()) + sum(tally.unexpected.values())
    print(f"# workload {args.workload}, seed {args.seed}, BLAS threads 1, nproc {os.cpu_count()}")
    print(f"# operations attempted {tally.attempted}, failed {failed}")
    for reason, count in sorted(tally.known.items()) + sorted(tally.unexpected.items()):
        kind = "known fault" if reason in tally.known else "UNEXPECTED"
        print(f"# {kind} x{count}: {reason}")
    metrics = {}
    for metric in declared:
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        print(f"# {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

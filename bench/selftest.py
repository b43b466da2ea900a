"""Self-test of the benchmark's checks: true outputs pass, perturbed outputs are flagged.

Run with ``python3 bench/run.py --self-test``; it takes a few seconds.  It
computes real program outputs on small seeded inputs, checks them as the
benchmark does, then checks copies with one planted error each: a
row-scaled mixing matrix, a flipped verdict, a missing bridge and a flipped
flat-band sign, both in library outputs and in CLI output files.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from oracles import KnownFault, Mismatch
from workloads import analyse, check_analysis, cli_files, small_case, theorem_cases, theorem_op


def outcome(check, output) -> str:
    try:
        check(output)
    except KnownFault:
        return "known fault"
    except Mismatch:
        return "flagged"
    return "pass"


def perturbed(out: dict, key: str, change) -> dict:
    bad = copy.deepcopy(out)
    bad[key] = change(bad[key])
    return bad


def scale_row(matrix):
    matrix = np.array(matrix, dtype=float)
    matrix[0] *= 1.01
    return matrix


def flip_first(signs):
    signs = np.array(signs)
    signs[0] = -signs[0]
    return signs


def library_cases(package, lib) -> list[tuple[str, str, str]]:
    rng = np.random.default_rng(7)
    general = small_case(package, rng, 7, 8, False)
    while not general.oracle.bridges:
        general = small_case(package, rng, 7, 8, False)
    euler = small_case(package, rng, 6, 8, True)
    out_g = analyse(lib, general, trees=True)
    out_e = analyse(lib, euler, trees=True)
    flipped_verdicts = perturbed(
        out_e, "verdicts", lambda v: {**v, "NonCommutative": "WeightedCommutative"}
    )
    wrong_theorem = perturbed(out_e, "theorem", lambda r: {**r, "passed": False})
    known = theorem_op(theorem_cases(package)[0])
    return [
        (label, want, outcome(lambda out: check_analysis(case, out), output))
        for label, want, case, output in [
            ("analysis of a general graph", "pass", general, out_g),
            ("analysis of an Eulerian graph", "pass", euler, out_e),
            ("row-scaled mixing matrix", "flagged", euler, perturbed(out_e, "mixing", scale_row)),
            ("flipped verdict", "flagged", euler, flipped_verdicts),
            ("missing bridge", "flagged", general, perturbed(out_g, "bridges", lambda b: b[1:])),
            ("flipped flat-band sign", "flagged", euler, perturbed(out_e, "flat_signs", flip_first)),
            ("theorem check failing a true identity", "flagged", euler, wrong_theorem),
        ]
    ] + [("theorem check on C_12", "known fault", outcome(known.check, known.run(lib)))]


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def scale_rows(d: dict) -> None:
    d["rows"][0] = [1.01 * x for x in d["rows"][0]]


def flip_verdict(d: dict) -> None:
    d["verdict"] = "WeightedCommutative"


def flip_sign(d: dict) -> None:
    d["signs"][0] = -d["signs"][0]


def cli_cases(package, lib, workdir: Path) -> list[tuple[str, str, str]]:
    ops = {op.label or op.kind: op for op in cli_files(package, 1, True, workdir)(0)}
    results = {label: op.run(lib) for label, op in ops.items()}
    cases = [
        (f"{label} output", "known fault" if label == "tc-k8" else "pass",
         outcome(op.check, results[label]))
        for label, op in ops.items()
    ]
    for label, change in (("mix-k20", scale_rows), ("classify-flat", flip_verdict),
                          ("flat-euler", flip_sign)):
        edit_json(workdir / f"{label}.out", change)
        cases.append((f"{label} output, perturbed", "flagged", outcome(ops[label].check, results[label])))
    return cases


def main(import_program) -> int:
    package, modules = import_program()
    lib = SimpleNamespace(**modules)
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        cases = library_cases(package, lib) + cli_cases(package, lib, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    misses = 0
    for label, want, got in cases:
        misses += got != want
        print(f"{'ok  ' if got == want else 'MISS'} {label}: expected {want}, got {got}")
    print(f"{len(cases) - misses}/{len(cases)} self-test cases behaved as expected")
    return 1 if misses else 0

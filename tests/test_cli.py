"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from schurwalk import complete_graph, format_edge_list, parse_edge_list
from schurwalk.cli import build_parser, config_from_args, main, run_command


def run_cli(argv: list[str]) -> tuple[str, int]:
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(argv))
    return run_command(cfg)


def test_linegraph_of_star_is_triangle():
    text, code = run_cli(["linegraph", "--builtin", "k13"])
    assert code == 0
    assert parse_edge_list(text) == complete_graph(3)
    assert "0 = (0, 1)" in text


def test_linegraph_of_single_edge():
    text, _ = run_cli(["linegraph", "--builtin", "k2"])
    assert parse_edge_list(text).n_vertices == 1
    assert text.splitlines()[-1] == "1 0"


def test_linegraph_round_trips_through_the_parser():
    for name in ("p4", "c4", "k4", "fig8"):
        text, code = run_cli(["linegraph", "--builtin", name])
        assert code == 0
        parse_edge_list(text)


def test_mix_path_graph_values():
    text, code = run_cli(["mix", "--builtin", "p4"])
    assert code == 0
    data = json.loads(text)
    assert data["m"] == 3
    expected = [[0.375, 0.25, 0.375], [0.25, 0.5, 0.25], [0.375, 0.25, 0.375]]
    assert np.abs(np.array(data["rows"]) - np.array(expected)).max() < 1e-12


def test_classify_commands():
    text, _ = run_cli(["classify", "--builtin", "c4", "--state", "uniform"])
    assert json.loads(text)["verdict"] == "UniformCommutative"

    text, _ = run_cli(["classify", "--builtin", "p4", "--state", "edge:0"])
    assert json.loads(text)["verdict"] == "NonCommutative"

    text, _ = run_cli(["classify", "--builtin", "fig8", "--state", "flatband"])
    data = json.loads(text)
    assert data["verdict"] == "UniformCommutative"
    assert np.abs(np.array(data["weights"]) - 0.125).max() < 1e-9

    text, _ = run_cli(["classify", "--builtin", "c4", "--state", "uniform,phase:1.25"])
    assert json.loads(text)["verdict"] == "UniformCommutative"


def test_treecount_commands():
    text, _ = run_cli(["treecount", "--builtin", "c4", "--weights", "uniform"])
    data = json.loads(text)
    assert data["passed"] and abs(data["lhs"] - 1 / 16) < 1e-12
    assert set(data) == {"lhs", "passed", "rhs"}

    text, _ = run_cli(["treecount", "--builtin", "k4", "--weights", "unit"])
    data = json.loads(text)
    assert data["passed"] and abs(data["lhs"] - 16.0) < 1e-9 and data["rhs"] == 16.0

    text, _ = run_cli(["treecount", "--builtin", "p4", "--weights", "mixing:1"])
    data = json.loads(text)
    assert data["passed"] and abs(data["lhs"] - 1 / 32) < 1e-12


def test_treecount_from_weight_file(tmp_path):
    weight_file = tmp_path / "weights.txt"
    weight_file.write_text("# triangle weights\n0.3\n0.5\n0.9\n")
    text, _ = run_cli(["treecount", "--builtin", "k3", "--weights", f"file:{weight_file}"])
    data = json.loads(text)
    expected = 0.3 * 0.5 + 0.5 * 0.9 + 0.9 * 0.3
    assert abs(data["lhs"] - expected) < 1e-12 and data["passed"]


def test_treecount_unit_weights_has_no_edge_cap(tmp_path):
    k8 = tmp_path / "k8.edges"
    k8.write_text(format_edge_list(complete_graph(8)))  # 28 edges, over the enumeration cap
    text, code = run_cli(["treecount", "--input", str(k8)])
    data = json.loads(text)
    assert code == 0 and data["rhs"] == 262144.0 and data["passed"]


def test_treecount_rejects_non_finite_weights(tmp_path, capsys):
    weight_file = tmp_path / "weights.txt"
    weight_file.write_text("0.3\nnan\n0.9\n")
    assert main(["treecount", "--builtin", "k3", "--weights", f"file:{weight_file}"]) == 2
    capsys.readouterr()


def test_entropy_time_series():
    text, code = run_cli(
        ["entropy", "--builtin", "p4", "--state", "edge:0", "--times", "0.0,1.0"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# von_neumann_entropy_bits = 0.0")
    assert lines[1] == "t,vertex_entropy_bits"
    first_row = lines[2].split(",")
    assert float(first_row[0]) == 0.0 and abs(float(first_row[1])) < 1e-9

    text, _ = run_cli(
        ["entropy", "--builtin", "k4", "--state", "uniform", "--times", "0.0,0.5,2.0"]
    )
    for row in text.splitlines()[2:]:
        assert abs(float(row.split(",")[1]) - np.log2(3)) < 1e-9


def test_flatband_command():
    text, code = run_cli(["flatband", "--builtin", "fig8"])
    assert code == 0
    data = json.loads(text)
    assert data["n"] == 7 and data["m"] == 8
    assert sorted(set(data["signs"])) == [-1, 1]
    assert sum(data["signs"]) == 0


def test_vector_state_input(tmp_path):
    state_file = tmp_path / "state.txt"
    state_file.write_text("# amplitudes as 're im' rows\n0.6 0.0\n0.0 0.8\n0.0 0.0\n")
    text, _ = run_cli(["classify", "--builtin", "k13", "--state", f"vector:{state_file}"])
    assert json.loads(text)["verdict"] == "NonCommutative"

    # the uniform vector is the Perron eigenvector of the (regular) line graph
    amp = repr(1.0 / 3.0**0.5)
    state_file.write_text(f"{amp}\n{amp}\n{amp}\n")
    text, _ = run_cli(["classify", "--builtin", "k13", "--state", f"vector:{state_file}"])
    assert json.loads(text)["verdict"] == "UniformCommutative"


def test_input_file_path(tmp_path):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("3 3\n0 1\n0 2\n1 2\n")
    text, code = run_cli(["mix", "--input", str(graph_file)])
    assert code == 0
    assert json.loads(text)["m"] == 3


def test_output_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["mix", "--builtin", "p4", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["m"] == 3
    assert capsys.readouterr().out == ""


def test_exit_codes(tmp_path, capsys):
    assert main(["mix", "--builtin", "nosuch"]) == 2
    assert main(["mix", "--input", str(tmp_path / "missing.txt")]) == 2
    assert main(["flatband", "--builtin", "p4"]) == 3  # odd-degree vertices
    assert main(["flatband", "--builtin", "k3"]) == 3  # odd edge count
    assert main(["classify", "--builtin", "c4", "--state", "bogus"]) == 2
    assert main(["classify", "--builtin", "c4", "--state", "uniform", "--epsilon", "-1"]) == 3
    capsys.readouterr()


BAD_OPTION_VALUES = [
    (["mix", "--builtin", "p4", "--grouping-tol", "0"], 2),
    (["mix", "--builtin", "p4", "--grouping-tol", "-1"], 2),
    (["mix", "--builtin", "p4", "--grouping-tol", "nan"], 2),
    (["entropy", "--builtin", "p4", "--grouping-tol", "inf"], 2),
    (["entropy", "--builtin", "p4", "--times", "0.0,nan"], 2),
    (["classify", "--builtin", "c4", "--epsilon", "nan"], 3),
    (["classify", "--builtin", "c4", "--epsilon", "inf"], 3),
    (["treecount", "--builtin", "k3", "--weights", "file:{weights}"], 2),
    (["classify", "--builtin", "c4", "--state", "uniform,phase:nan"], 2),
    (["classify", "--builtin", "c4", "--state", "uniform,phase:inf"], 2),
    (["classify", "--builtin", "c4", "--state", "vector:{vector}"], 2),
    (["check-all", "--seed", "-5000"], 2),
]


@pytest.mark.parametrize("argv, code", BAD_OPTION_VALUES)
def test_bad_option_values_are_reported_errors(argv, code, tmp_path, capsys):
    weights = tmp_path / "weights.txt"
    weights.write_text("0.3\n-0.5\n0.9\n")
    vector = tmp_path / "vector.txt"
    vector.write_text("0.5\nnan\n0.5\n0.5\n")
    assert main([arg.format(weights=weights, vector=vector) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["mix", "--builtin", "p4", "--times", "1"],
        ["check-all", "--input", "x"],
        ["treecount", "--builtin", "c4", "--seed", "1"],
    ],
)
def test_commands_reject_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_byte_identical_reruns():
    for argv in (
        ["mix", "--builtin", "fig8"],
        ["classify", "--builtin", "fig8", "--state", "flatband"],
        ["entropy", "--builtin", "c4", "--state", "uniform", "--times", "0.0,1.5"],
    ):
        assert run_cli(argv) == run_cli(argv)


def test_check_all_smoke():
    # exercised fully in test_acceptance; here only the report format
    from schurwalk.acceptance import criterion_5

    result = criterion_5()
    assert result.passed and result.number == 5


GRAPH_COMMANDS = [
    ["linegraph"],
    ["mix"],
    ["classify"],
    ["classify", "--state", "edge:0"],
    ["classify", "--state", "flatband"],
    ["treecount"],
    ["treecount", "--weights", "uniform"],
    ["treecount", "--weights", "mixing:0"],
    ["entropy"],
    ["entropy", "--state", "edge:0"],
    ["flatband"],
]


def test_every_command_handles_tiny_graphs(tmp_path, capsys):
    # An uncaught exception would end the process with exit code 1; every
    # outcome here is a result (0), an input error (2) or a domain error (3).
    for name, text in (("edgeless", "1 0\n"), ("single-edge", "2 1\n0 1\n")):
        path = tmp_path / f"{name}.edges"
        path.write_text(text)
        for command in GRAPH_COMMANDS:
            argv = [*command, "--input", str(path)]
            try:
                code = main(argv)
            except Exception as exc:  # name the command that escaped
                pytest.fail(f"{name}: {' '.join(command)} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (name, command, code)
            assert (code == 0) == (err == ""), (name, command, err)


def test_treecount_uniform_on_an_edgeless_graph_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "edgeless.edges"
    path.write_text("1 0\n")
    assert main(["treecount", "--input", str(path), "--weights", "uniform"]) == 3
    assert capsys.readouterr().err == "error: graph has no edges\n"

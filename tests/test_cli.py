import json
import math
import os
import subprocess
import sys

import pytest

from shancap.cli import SpecParseError, graph_spec_parse, run
from shancap.graphs import complement, cycle, is_isomorphic, strong_power
from shancap.graphio import write_graph6


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spec_parser_basics(tmp_path):
    assert graph_spec_parse("cycle:7").adj == cycle(7).adj
    assert graph_spec_parse("complement(cycle:7)").adj == complement(cycle(7)).adj
    assert graph_spec_parse("power(cycle:7,2)").n == 49
    G = graph_spec_parse("strong(path:8,path:8)")
    assert G.n == 64
    path = tmp_path / "g.g6"
    path.write_bytes(write_graph6(cycle(6)))
    assert graph_spec_parse(f"file:{path}").adj == cycle(6).adj


def test_spec_parser_errors():
    for bad in ("cycle:x", "triangle:3", "power(cycle:5)", "strong(cycle:5)",
                "complement(cycle:5", ""):
        with pytest.raises(SpecParseError):
            graph_spec_parse(bad)
    with pytest.raises(SpecParseError):
        graph_spec_parse("file:/does/not/exist.g6")


def test_bounds_heptagon(capsys):
    code, out, _ = run_capture(
        capsys, ["bounds", "--graph", "cycle:7", "--max-power", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"]["value"] == math.sqrt(10)
    assert doc["lower"]["display"] == "3.162278"
    assert abs(doc["upper"]["value"] - 3.3176672) < 1e-5
    assert doc["upper"]["display"].startswith("3.31767")


def test_bounds_byte_identical_reruns(capsys):
    argv = ["bounds", "--graph", "cycle:7", "--max-power", "2", "--json",
            "--seed", "7"]
    code1, out1, _ = run_capture(capsys, argv)
    code2, out2, _ = run_capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_kings_exact(capsys):
    code, out, _ = run_capture(
        capsys, ["kings", "--p", "5", "--d", "2", "--method", "exact",
                 "--render", "ascii"])
    assert code == 0
    assert "kings(5,2) = 5" in out
    assert out.count("K") >= 5  # board drawn


def test_kings_out_of_budget_board(capsys):
    code, out, _ = run_capture(
        capsys, ["kings", "--p", "7", "--d", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] >= 30
    assert doc["upper_bound"] == 36  # floor(theta(C7)^3) beats the trivial cap
    assert doc["proven"] is False


def test_kings_strict_exit_code(capsys):
    code, out, _ = run_capture(
        capsys, ["kings", "--p", "7", "--d", "3", "--strict"])
    assert code == 2  # sound but not proven optimal


def test_theta_verbs(capsys):
    code, out, _ = run_capture(capsys, ["theta", "--graph", "complete:6"])
    assert code == 0
    assert "[1.000000000, 1.000000000]" in out
    code, out, _ = run_capture(capsys, ["theta", "cycle:5", "--json"])
    doc = json.loads(out)
    assert abs(doc["hi"] - math.sqrt(5)) < 1e-6


def test_rho_sigma_alpha_omega(capsys):
    code, out, _ = run_capture(capsys, ["rho", "cycle:7", "--json"])
    assert json.loads(out)["value"] == "7/2"
    code, out, _ = run_capture(capsys, ["sigma", "cycle:7", "--json"])
    assert json.loads(out)["sigma"] == 4
    code, out, _ = run_capture(capsys, ["alpha", "power(cycle:5,2)", "--json"])
    assert json.loads(out)["alpha"] == 5
    code, out, _ = run_capture(capsys, ["omega", "complement(cycle:7)", "--json"])
    assert json.loads(out)["omega"] == 3


def test_gen_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "c7.g6"
    code, _, _ = run_capture(
        capsys, ["gen", "cycle:7", "--format", "graph6", "-o", str(out_path)])
    assert code == 0
    assert graph_spec_parse(f"file:{out_path}").adj == cycle(7).adj


def test_power_and_product_verbs(capsys):
    code, out, _ = run_capture(capsys, ["power", "cycle:7", "2", "--json"])
    assert code == 0
    assert json.loads(out)["n"] == 49
    code, out, _ = run_capture(
        capsys, ["product", "strong", "cycle:4", "cycle:4", "--json"])
    assert json.loads(out)["n"] == 16
    code, out, _ = run_capture(
        capsys, ["product", "union", "cycle:5", "cycle:5", "--json"])
    assert json.loads(out)["n"] == 10


def test_umbrella_workflow(tmp_path, capsys):
    u5 = tmp_path / "u5.json"
    code, _, _ = run_capture(capsys, ["umbrella", "gen-cycle", "5",
                                      "-o", str(u5)])
    assert code == 0
    code, out, _ = run_capture(
        capsys, ["umbrella", "verify", str(u5), "--graph", "cycle:5", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and abs(doc["value"] - math.sqrt(5)) < 1e-9

    t = tmp_path / "t.json"
    code, _, _ = run_capture(capsys, ["umbrella", "tensor", str(u5), str(u5),
                                      "-o", str(t)])
    assert code == 0
    code, out, _ = run_capture(
        capsys, ["umbrella", "verify", str(t), "--graph", "power(cycle:5,2)",
                 "--json"])
    doc = json.loads(out)
    assert doc["valid"] and abs(doc["value"] - 5.0) < 1e-9
    # verifying against the wrong graph fails with exit 1
    code, out, _ = run_capture(
        capsys, ["umbrella", "verify", str(u5), "--graph", "cycle:7"])
    assert code == 1


def test_haemers_verb(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text('{"field": "Q", "entries": '
                 '[["1","0","0"],["0","1","0"],["0","0","1"]]}')
    code, out, _ = run_capture(
        capsys, ["haemers", "verify", "--graph", "cycle:3", "--matrix",
                 str(m), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3 and doc["convention"] == "zero_on_nonadjacent"


def test_lockin_verb(capsys):
    code, out, _ = run_capture(
        capsys, ["lockin", "cycle:5", "--p-max", "2", "--json"])
    assert code == 0
    assert json.loads(out)["locked_at"] == 2


def test_render_verb(tmp_path, capsys):
    pj = tmp_path / "p.json"
    pj.write_text('{"p": 5, "d": 2, "cells": [[0, 0], [2, 2]]}')
    code, out, _ = run_capture(capsys, ["render", str(pj)])
    assert code == 0 and out.count("K") == 2


def test_invalid_inputs_exit_one(capsys):
    assert run_capture(capsys, ["frobnicate"])[0] == 1
    assert run_capture(capsys, ["alpha", "cycle:zero"])[0] == 1
    assert run_capture(capsys, ["alpha"])[0] == 1
    assert run_capture(capsys, ["kings", "--p", "2", "--d", "1"])[0] == 1


def test_strict_on_proven_result_is_zero(capsys):
    code, _, _ = run_capture(capsys, ["alpha", "cycle:9", "--strict"])
    assert code == 0


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "shancap", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: shancap" in proc.stdout


def test_kings_theta_cap_is_exact(capsys):
    # floor(theta(C5)^4) = floor(sqrt(5)^4) = 25, with no float margin
    code, out, _ = run_capture(
        capsys, ["kings", "--p", "5", "--d", "4", "--json"])
    assert code == 0
    assert json.loads(out)["upper_bound"] == 25


def test_kings_layered_method(capsys):
    # alpha(C5) = 2 stacked on floors 0 and 2 of the 5-cycle
    code, out, _ = run_capture(
        capsys, ["kings", "--p", "5", "--d", "2", "--method", "layered",
                 "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4 and doc["proven"] is False


@pytest.mark.parametrize("argv", [
    ["render", "placement.json", "--json"],
    ["umbrella", "--json", "gen-cycle", "5"],
    ["umbrella", "gen-cycle", "5", "--seed", "1"],
    ["gen", "cycle:5", "--strict"],
    ["complement", "cycle:5", "--node-budget", "5"],
    ["rho", "cycle:5", "--time-budget", "1"],
    ["theta", "cycle:5", "--node-budget", "5"],
    ["sigma", "cycle:5", "--seed", "1"],
])
def test_a_verb_rejects_a_flag_it_does_not_read(capsys, argv):
    code, _, err = run_capture(capsys, argv)
    assert code == 1
    assert "unrecognized arguments" in err


def test_kings_layered_reports_the_theta_cap(capsys):
    # floor(theta(C5)^2) = 5 caps every packing of the 5^2 torus
    code, out, _ = run_capture(
        capsys, ["kings", "--p", "5", "--d", "2", "--method", "layered",
                 "--json"])
    assert code == 0
    assert json.loads(out)["upper_bound"] == 5


def test_kings_layered_sub_board_is_guarded(capsys):
    # the (7,3) sub-board has 343 cells: the heuristic stands in for the
    # exact search, as it does for --method exact on that board
    code, out, _ = run_capture(
        capsys, ["kings", "--p", "7", "--d", "4", "--method", "layered",
                 "--time-budget", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert "--force-exact" in doc["note"]
    assert doc["count"] == 3 * 30 and doc["upper_bound"] == 121


def test_kings_heuristic_method(capsys):
    code, out, _ = run_capture(
        capsys, ["kings", "--p", "5", "--d", "2", "--method", "heuristic",
                 "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5 and doc["proven"] is True
    assert doc["upper_bound"] == 5 and "note" not in doc


def test_product_union_honours_vertex_limit(capsys):
    for kind in ("strong", "conormal", "union"):
        code, _, err = run_capture(
            capsys, ["product", kind, "cycle:5", "cycle:5",
                     "--vertex-limit", "6"])
        assert code == 1
        assert "limit 6" in err


def test_complement_verb(capsys):
    code, out, _ = run_capture(capsys, ["complement", "cycle:5", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 5
    assert sorted(map(tuple, doc["edges"])) == [(0, 2), (0, 3), (1, 3), (1, 4),
                                                (2, 4)]


def test_bounds_text_output(capsys):
    code, out, _ = run_capture(
        capsys, ["bounds", "cycle:5", "--max-power", "2"])
    assert code == 0
    assert out.startswith("capacity bounds for cycle:5 (n=5, m=5)\n")
    assert "  lower: 2.236068 = 5^(1/2) [exact]\n" in out
    assert "  upper: 2.236068 from theta" in out
    assert "    k=2: alpha=5  root=2.236068\n" in out


@pytest.mark.parametrize("spec, message", [
    ("strong(cycle:5,cycle:5))", "unbalanced parenthesis"),
    ("strong((cycle:5,cycle:5)", "unbalanced parenthesis"),
    ("twist(cycle:5)", "unknown operator"),
    ("power(cycle:5,x)", "power exponent must be an integer"),
    ("complement(cycle:5,cycle:5)", "complement takes one argument"),
])
def test_spec_parser_error_messages(spec, message):
    with pytest.raises(SpecParseError, match=message):
        graph_spec_parse(spec)


@pytest.mark.parametrize("text, argv", [
    ('{"n": 3, "edges": 5}', ["alpha", "file:{}"]),
    ('{"n": 2, "edges": [], "labels": [1, 2]}', ["alpha", "file:{}"]),
    ('{"field": 2, "entries": [[1]]}',
     ["haemers", "verify", "complete:1", "--matrix", "{}"]),
    ('{"field": null, "entries": [[1]]}',
     ["haemers", "verify", "complete:1", "--matrix", "{}"]),
])
def test_malformed_json_files_exit_one(tmp_path, capsys, text, argv):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, _, err = run_capture(capsys, [a.format(path) for a in argv])
    assert code == 1 and err.startswith("error: ")


@pytest.mark.parametrize("spec, body", [
    ("cycle:5000", None),
    ("file:{path}", '{"n": 5000, "edges": []}'),
    ("file:{path}", "p edge 5000 0\n"),
])
def test_gen_honours_vertex_limit_on_every_graph(capsys, tmp_path, spec, body):
    path = tmp_path / "g.txt"
    if body is not None:
        path.write_text(body)
    code, out, err = run_capture(
        capsys, ["gen", "--format", "dimacs", "--vertex-limit", "1000",
                 spec.format(path=path)])
    assert code == 1 and not out
    assert "5000 vertices (> limit 1000)" in err


def test_bounds_names_the_ambiguous_product_labels(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "edges": [],
                                "labels": [[0], [0, 0]]}))
    code, _, err = run_capture(capsys, ["bounds", f"file:{path}"])
    assert code == 1
    assert "error: product labels (0,) + (0, 0) and (0, 0) + (0,) both " \
        "read (0, 0, 0)" in err

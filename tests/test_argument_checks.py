"""Arguments the CLI and theta refuse before any work: a graph given both
as GRAPH and as --graph, a theta tolerance that is not positive and
finite, and verbs or actions outside argparse's choices.  Also DIMACS
files recognised by their content when the name does not say."""

import math

import pytest

from shancap.cli import EXIT_INVALID, graph_spec_parse, run
from shancap.graphio import sniff_format
from shancap.graphs import complete, cycle
from shancap.theta import ThetaError, lovasz_theta


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_a_graph_given_twice_is_rejected(capsys):
    code, out, err = run_capture(capsys, ["alpha", "cycle:5", "--graph",
                                          "cycle:7"])
    assert code == EXIT_INVALID == 1
    assert out == ""
    assert "two graph specs given ('cycle:5' and --graph 'cycle:7')" in err


@pytest.mark.parametrize("argv", [["alpha", "cycle:7"],
                                  ["alpha", "--graph", "cycle:7"]])
def test_a_graph_given_once_either_way_is_read(capsys, argv):
    code, out, _ = run_capture(capsys, argv)
    assert code == 0 and out.startswith("alpha(cycle:7) = 3")


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_theta_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ThetaError, match="tol must be positive and finite"):
        lovasz_theta(cycle(5), tol=tol)


def test_theta_checks_the_tolerance_before_the_matrix_limit():
    # complete(78) is over MATRIX_LIMIT; the tolerance is refused first
    with pytest.raises(ThetaError, match="tol must be"):
        lovasz_theta(complete(78), tol=math.nan)


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_theta_cli_exits_1_on_a_bad_tolerance(capsys, tol):
    code, out, err = run_capture(capsys, ["theta", "cycle:5", "--tol", tol,
                                          "--strict"])
    assert code == EXIT_INVALID == 1
    assert out == "" and "tol must be positive and finite" in err


@pytest.mark.parametrize("argv", [["frobnicate", "cycle:5"],
                                  ["umbrella", "frobnicate"]])
def test_argparse_refuses_an_unknown_verb_or_action(capsys, argv):
    code, _, err = run_capture(capsys, argv)
    assert code == EXIT_INVALID
    assert "invalid choice: 'frobnicate'" in err


def test_dimacs_is_sniffed_from_content_under_any_name(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("p edge 3 1\ne 1 2\n")
    assert sniff_format(f, f.read_bytes()) == "dimacs"
    G = graph_spec_parse(f"file:{f}")
    assert G.n == 3 and G.edges() == [(0, 1)]

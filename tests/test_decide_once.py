"""Each decision on the path from command line to report is made once:
``_dispatch`` parses a verb's graph once, ``haemers verify`` checks the
fit once, and ``compute_bounds`` checks the vertex limit only for the
powers it skips."""

from unittest import mock

import pytest

from shancap import cli, haemers, report
from shancap.cli import EXIT_INVALID, EXIT_OK, run
from shancap.graphs import cycle
from shancap.haemers import adjacency_certificate, fitting_to_json
from shancap.report import ReportError, compute_bounds
from shancap.solvers import SolverConfig


def test_no_power_within_the_vertex_limit_is_a_report_error():
    with pytest.raises(ReportError, match="^no power produced a lower bound$"):
        compute_bounds(cycle(20), max_power=2, vertex_limit=10)


def test_powers_that_fit_are_not_checked_against_the_limit_again():
    with mock.patch.object(report, "check_vertex_limit",
                           wraps=report.check_vertex_limit) as check:
        rep = compute_bounds(cycle(5), 3, SolverConfig(node_budget=20_000))
    assert check.call_count == 0
    assert [r.k for r in rep.table] == [1, 2, 3]


def test_each_skipped_power_is_checked_once_and_flagged():
    with mock.patch.object(report, "check_vertex_limit",
                           wraps=report.check_vertex_limit) as check:
        rep = compute_bounds(cycle(7), 3, vertex_limit=100)
    check.assert_called_once_with(343, 100)
    assert [r.k for r in rep.table] == [1, 2]
    assert rep.provenance[2] == (
        "power 3 skipped: product would have 343 vertices (> limit 100); "
        "pass a larger vertex_limit to override")


def test_the_lower_bound_is_the_first_row_of_largest_root():
    # alpha(C4) = 2 and alpha(C4^2) = 4 share the root 2; k=1 comes first
    rep = compute_bounds(cycle(4), 2)
    assert [r.root for r in rep.table] == [2.0, 2.0]
    assert rep.lower.power == 1 and len(rep.lower.witness) == 2


def test_haemers_verify_checks_the_fit_once(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(fitting_to_json(adjacency_certificate(cycle(3))))
    with mock.patch.object(cli, "verify_fitting",
                           wraps=cli.verify_fitting) as in_cli, \
            mock.patch.object(haemers, "verify_fitting",
                              wraps=haemers.verify_fitting) as in_haemers:
        code = run(["haemers", "verify", "--graph", "cycle:3",
                    "--matrix", str(path)])
    assert code == EXIT_OK
    assert in_cli.call_count + in_haemers.call_count == 1
    assert capsys.readouterr().out == (
        "fitting matrix verified (zero_on_nonadjacent); rank = 1 "
        ">= alpha(cycle:3)\n")


@pytest.mark.parametrize("argv", [
    ["gen"], ["complement"], ["power", "2"], ["alpha"], ["omega"],
    ["sigma"], ["rho"], ["theta"], ["bounds"], ["lockin"],
    ["umbrella", "verify", "missing.json"],
    ["haemers", "verify", "--matrix", "missing.json"],
])
def test_every_verb_with_a_graph_reads_it_first(argv, capsys):
    # the graph error comes before the files umbrella and haemers name
    with mock.patch.object(cli, "_graph_arg", wraps=cli._graph_arg) as read:
        assert run(argv) == EXIT_INVALID
    assert read.call_count == 1
    assert capsys.readouterr().err == (
        "error: a graph spec is required (positional or --graph)\n")


@pytest.mark.parametrize("argv", [
    ["kings", "--p", "5", "--d", "1"], ["umbrella", "gen-cycle", "5"],
    ["product", "strong", "cycle:3", "cycle:3"],
])
def test_verbs_without_a_graph_never_read_one(argv, capsys):
    with mock.patch.object(cli, "_graph_arg", wraps=cli._graph_arg) as read:
        assert run(argv) == EXIT_OK
    assert read.call_count == 0

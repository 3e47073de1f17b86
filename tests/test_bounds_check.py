"""``bounds`` re-checks the report it prints: a report that fails
``verify_report`` is an internal error (exit 3, nothing on stdout), while
a ``ReportError`` of the computation itself keeps exit 1."""

from dataclasses import replace
from unittest import mock

from shancap import cli
from shancap.cli import EXIT_INTERNAL, EXIT_INVALID, EXIT_OK, run
from shancap.graphs import cycle
from shancap.report import ReportError, compute_bounds


def _bad_report():
    """C5's report with a lower witness of two adjacent cells."""
    good = compute_bounds(cycle(5), 2, graph_desc="cycle:5")
    lower = replace(good.lower, power=1, witness=((0,), (1,)), value=2.0)
    return replace(good, lower=lower)


def test_a_report_that_fails_its_check_prints_nothing(capsys):
    bad = _bad_report()
    for argv in (["bounds", "cycle:5"], ["bounds", "cycle:5", "--json"]):
        with mock.patch("shancap.cli.compute_bounds", return_value=bad):
            code = run(argv)
        out = capsys.readouterr()
        assert code == EXIT_INTERNAL == 3
        assert out.out == ""
        assert out.err.startswith("internal error: lower witness")


def test_every_printed_report_is_checked(capsys):
    with mock.patch.object(cli, "verify_report",
                           wraps=cli.verify_report) as check:
        code = run(["bounds", "cycle:5"])
    assert code == EXIT_OK
    assert check.call_count == 1
    assert check.call_args.args[0].graph_desc == "cycle:5"
    assert "interval: [2.236068, 2.236068]" in capsys.readouterr().out


def test_a_report_error_of_the_computation_stays_exit_1(capsys):
    with mock.patch("shancap.cli.compute_bounds",
                    side_effect=ReportError("no power produced a lower bound")):
        code = run(["bounds", "cycle:5"])
    out = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out.out == ""
    assert out.err == "error: no power produced a lower bound\n"

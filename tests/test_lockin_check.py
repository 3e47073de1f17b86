"""``lockin`` prints a view of the report ``bounds`` prints, through the
same checked path: a report that fails ``verify_report`` is an internal
error (exit 3, nothing on stdout), and a ``max_power`` (``--p-max``) that
is not a positive int is refused before theta runs."""

from dataclasses import replace
from unittest import mock

import pytest

from shancap import cli
from shancap.cli import EXIT_INTERNAL, EXIT_INVALID, EXIT_OK, run
from shancap.graphs import cycle
from shancap.report import ReportError, compute_bounds, lovasz_theta


def _bad_report():
    """C5's report with a lower witness of two adjacent cells."""
    good = compute_bounds(cycle(5), 2, graph_desc="cycle:5")
    lower = replace(good.lower, power=1, witness=((0,), (1,)), value=2.0)
    return replace(good, lower=lower)


def test_a_lockin_report_that_fails_its_check_prints_nothing(capsys):
    bad = _bad_report()
    for argv in (["lockin", "cycle:5"], ["lockin", "cycle:5", "--json"]):
        with mock.patch("shancap.cli.compute_bounds", return_value=bad), \
                mock.patch.object(cli, "verify_report",
                                  wraps=cli.verify_report) as check:
            code = run(argv)
        out = capsys.readouterr()
        assert code == EXIT_INTERNAL == 3
        assert out.out == ""
        assert out.err.startswith("internal error: lower witness")
        assert check.call_count == 1


def test_every_printed_lockin_table_is_checked(capsys):
    with mock.patch.object(cli, "verify_report",
                           wraps=cli.verify_report) as check:
        code = run(["lockin", "cycle:5"])
    assert code == EXIT_OK
    assert check.call_count == 1
    assert check.call_args.args[0].graph_desc == "cycle:5"
    assert "k=2: alpha=5  root=2.236068  <-- meets upper bound" in \
        capsys.readouterr().out


@pytest.mark.parametrize("max_power", [0, -1, True, 2.0, None])
def test_a_max_power_that_is_not_a_positive_int_stops_before_theta(
        max_power):
    with mock.patch("shancap.report.lovasz_theta",
                    wraps=lovasz_theta) as theta, \
            pytest.raises(ReportError, match="no power produced") as exc:
        compute_bounds(cycle(5), max_power=max_power)
    assert f"max_power {max_power!r} is not a positive int" in str(exc.value)
    assert theta.call_count == 0


@pytest.mark.parametrize("argv", [["bounds", "cycle:5", "--max-power", "0"],
                                  ["lockin", "cycle:5", "--p-max", "-1"]])
def test_the_cli_refuses_a_power_bound_before_theta(capsys, argv):
    with mock.patch("shancap.report.lovasz_theta",
                    wraps=lovasz_theta) as theta:
        code = run(argv)
    out = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out.out == ""
    assert out.err == (f"error: max_power {int(argv[-1])} is not a positive "
                       "int, so no power produced a lower bound\n")
    assert theta.call_count == 0

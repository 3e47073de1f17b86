"""Budgets must be finite, and the engine's vertex lists must hold ints:
an infinite budget used to reach the JSON report as ``Infinity``, and a
numpy or float id used to pass the range check and fail as "not
independent"."""

import math

import numpy as np
import pytest

from shancap.cli import EXIT_INVALID, run
from shancap.graphs import cycle
from shancap.solvers import SolverConfig, SolverError, _run_engine


@pytest.mark.parametrize("budgets", [
    dict(time_budget=math.inf), dict(node_budget=math.inf),
    dict(time_budget=math.nan), dict(time_budget=0), dict(node_budget=-1),
], ids=["time-inf", "nodes-inf", "time-nan", "time-0", "nodes-neg"])
def test_budgets_must_be_positive_and_finite(budgets):
    with pytest.raises(SolverError, match="budgets must be positive and "
                                          "finite"):
        SolverConfig(**budgets)


def test_an_infinite_time_budget_is_rejected_by_the_cli(capsys):
    code = run(["bounds", "cycle:5", "--time-budget", "inf", "--json"])
    out = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out.out == ""
    assert "budgets must be positive and finite" in out.err


@pytest.mark.parametrize("what", ["incumbent", "forced"])
@pytest.mark.parametrize("v", [np.int64(0), 0.0], ids=["int64", "float"])
def test_vertex_ids_must_be_ints(what, v):
    with pytest.raises(SolverError, match=rf"{what} vertices must be ids in "
                                          r"range\(7\)"):
        _run_engine(cycle(7), SolverConfig(), **{what: (v,)})

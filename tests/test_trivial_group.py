"""A graph whose power group ``_power_group`` finds trivial gets no
invariant search: ``_invariant_set`` returns None, and an unproven row
keeps the generic search's set as a heuristic row."""

import random
from unittest import mock

from shancap import report
from shancap.graphs import from_edges, path, strong_power
from shancap.report import (_invariant_set, _power_group, compute_bounds,
                            verify_report)
from shancap.solvers import SolverConfig


def _no_engine(*args, **kwargs):
    raise AssertionError("the invariant search ran on a trivial group")


def test_a_trivial_group_gives_no_invariant_set():
    G = path(5)  # v -> -v mod 5 maps the edge 0-1 to 0-4, not an edge
    assert _power_group(G, 1)[0] == []
    assert _invariant_set(G, 1, strong_power(G, 1), SolverConfig()) is None


def test_an_unproven_row_without_a_group_stays_heuristic():
    rng = random.Random(1)
    G = from_edges(30, [(u, v) for u in range(30) for v in range(u + 1, 30)
                        if rng.random() < 0.5])
    assert _power_group(G, 1)[0] == []
    with mock.patch.object(report, "_run_engine", _no_engine):
        rep = compute_bounds(G, 1, SolverConfig(node_budget=1))
    (row,) = rep.table
    assert (row.k, row.exact, row.method) == (1, False, "heuristic")
    assert row.alpha_best >= 6
    assert verify_report(rep)

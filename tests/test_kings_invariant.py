"""The king search's invariant fallback: a board the symmetric search
leaves unproven gets the report's invariant search, whose packing is kept
only when it is strictly larger."""

import logging
from unittest import mock

from shancap import kings
from shancap.kings import (Board, canonical_placement, exact_max_kings,
                           verify_placement)
from shancap.solvers import SolverConfig, _run_engine

BENCH = SolverConfig(time_budget=30.0, node_budget=150_000, seed=0)


def _fallback_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "shancap.kings" and "fallback" in r.getMessage()]


def _fields(line):
    return [f.split("=") for f in line.split() if "=" in f]


def test_the_7x3_board_reaches_33_under_the_benchmark_budget():
    res = exact_max_kings(Board(7, 3), BENCH)
    assert (res.count, res.proven_optimal, res.upper_bound) == (33, False, 36)
    assert res.placement == canonical_placement(res.placement)
    assert verify_placement(res.placement) == (True, None)


def test_the_invariant_search_gets_the_same_node_budget():
    nodes = []

    def counted(*args, **kwargs):
        out = _run_engine(*args, **kwargs)
        nodes.append(out[3])
        return out

    with mock.patch("shancap.report._run_engine", counted):
        res = exact_max_kings(Board(7, 3), SolverConfig(node_budget=50))
    assert nodes == [50]
    assert res.count >= 30 and not res.proven_optimal
    assert verify_placement(res.placement) == (True, None)


def test_a_packing_that_meets_the_cap_is_proven():
    with mock.patch.object(kings, "_rosenfeld_cap", lambda p, d: 33):
        res = exact_max_kings(Board(7, 3), SolverConfig(node_budget=300))
    assert (res.count, res.proven_optimal, res.upper_bound) == (33, True, 33)
    assert verify_placement(res.placement) == (True, None)


def test_a_proven_board_runs_no_invariant_search(caplog):
    caplog.set_level(logging.DEBUG)
    with mock.patch("shancap.report._run_engine") as invariant:
        res = exact_max_kings(Board(11, 2), BENCH)
    assert res.proven_optimal and res.count == 27
    assert not invariant.called
    assert _fallback_lines(caplog) == []


def test_the_fallback_line_gives_both_sizes_and_the_choice(caplog):
    caplog.set_level(logging.DEBUG, logger="shancap.kings")
    exact_max_kings(Board(7, 3), BENCH)
    exact_max_kings(Board(7, 3), SolverConfig(node_budget=50))
    lines = _fallback_lines(caplog)
    assert len(lines) == 2
    assert [_fields(line) for line in lines] == [
        [["board", "(7,3)"], ["search", "30"], ["invariant", "33"],
         ["replaced", "yes"]],
        [["board", "(7,3)"], ["search", "30"], ["invariant", "27"],
         ["replaced", "no"]],
    ]

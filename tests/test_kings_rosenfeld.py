"""The Rosenfeld cap of the king search and the clique cover check behind
it."""

import logging
import re
from fractions import Fraction
from unittest import mock

import pytest

from shancap import kings
from shancap.graphs import GraphError, clique_cover_value, cycle
from shancap.kings import (Board, Placement, _rosenfeld_cap, _theta_cap,
                           capped_result, exact_max_kings, placement_to_json)
from shancap.solvers import SolverConfig

HALF = Fraction(1, 2)


def edge_cover(p):
    return [((i, (i + 1) % p), HALF) for i in range(p)]


@pytest.mark.parametrize("p", range(3, 16))
def test_the_edge_cover_of_a_cycle_is_worth_half_its_length(p):
    assert clique_cover_value(cycle(p), edge_cover(p)) == Fraction(p, 2)


@pytest.mark.parametrize("cover, why", [
    (edge_cover(7)[:-1] + [((6, 1), HALF)], "not a clique"),
    (edge_cover(7)[:-1] + [((6, 6), HALF)], "not a clique"),
    (edge_cover(7)[:-1], "vertex 0 is covered 1/2"),
    (edge_cover(7) + [((2, 3), Fraction(-1, 4))], "negative"),
    (edge_cover(7)[:-1] + [((6, 0), 0.5)], "not an int or a Fraction"),
    (edge_cover(7) + [((7,), 1)], "not a set of vertices"),
])
def test_the_cover_check_rejects(cover, why):
    with pytest.raises(GraphError, match=why):
        clique_cover_value(cycle(7), cover)


@pytest.mark.parametrize("p", range(3, 16))
@pytest.mark.parametrize("d", range(1, 5))
def test_the_cap_is_at_most_the_theta_cap(p, d):
    board = Board(p, d)
    res = capped_result(Placement(board, ((0,) * d,)))
    assert res.upper_bound <= _theta_cap(p, d)
    assert res.upper_bound <= _rosenfeld_cap(p, d)


@pytest.mark.parametrize("p", range(5, 26, 2))
def test_the_cap_is_hales_value_on_odd_squares(p):
    assert _rosenfeld_cap(p, 2) == p * (p // 2) // 2


BOARDS = [(p, d) for d in range(1, 5) for p in range(3, 12) if p**d <= 125]


@pytest.mark.parametrize("p, d", BOARDS)
def test_the_search_agrees_with_the_theta_cap_alone(p, d):
    cfg = SolverConfig(node_budget=150_000)
    res = exact_max_kings(Board(p, d), cfg)
    with mock.patch.object(kings, "_rosenfeld_cap", kings._theta_cap):
        theta_only = exact_max_kings(Board(p, d), cfg)
    assert placement_to_json(res.placement) == placement_to_json(
        theta_only.placement)
    assert res.proven_optimal >= theta_only.proven_optimal
    assert res.upper_bound <= theta_only.upper_bound


def _search_line(caplog):
    lines = [r.getMessage() for r in caplog.records
             if r.name == "shancap.solvers"]
    assert len(lines) == 1
    return lines[0]


def test_the_cap_ends_the_11_2_search_early(caplog):
    caplog.set_level(logging.DEBUG)
    cfg = SolverConfig(node_budget=150_000)
    res = exact_max_kings(Board(11, 2), cfg)
    capped = _search_line(caplog)
    king = [r.getMessage() for r in caplog.records
            if r.name == "shancap.kings"]
    caplog.clear()
    with mock.patch.object(kings, "_rosenfeld_cap", kings._theta_cap):
        exact_max_kings(Board(11, 2), cfg)
    free = _search_line(caplog)
    assert res.count == res.upper_bound == 27 and res.proven_optimal
    assert capped.endswith("stop=cap reached")
    assert free.endswith("stop=proven")

    def nodes(line):
        return int(re.search(r" nodes=(\d+) ", line)[1])

    assert nodes(capped) < nodes(free)
    assert king == ["king search: board=(11,2) theta cap=29 rosenfeld cap=27 "
                    "binds=rosenfeld seed=26"]


def test_the_heuristic_reports_the_rosenfeld_cap():
    res = kings.heuristic_max_kings(Board(11, 2))
    assert res.upper_bound == 27

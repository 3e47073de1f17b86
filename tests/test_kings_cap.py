"""The θ cap and product packings in the king search."""

import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap import kings
from shancap.graphs import VertexLimitError, cycle, strong_power
from shancap.kings import (Board, Placement, PlacementError,
                           _heuristic_placement, _theta_cap, exact_max_kings,
                           heuristic_max_kings, king_graph, product_placement,
                           verify_placement)
from shancap.solvers import SolverConfig, _run_engine


def test_product_seed_meets_the_cap_on_5_4():
    # 5 * 5 = 25 = floor(sqrt(5)^4): proven without searching
    res = exact_max_kings(Board(5, 4), SolverConfig(node_budget=150_000))
    assert res.count == 25 and res.proven_optimal and res.upper_bound == 25
    assert verify_placement(res.placement) == (True, None)


def test_unproven_board_reports_the_cap():
    res = exact_max_kings(Board(7, 3), SolverConfig(node_budget=10))
    assert not res.proven_optimal
    assert res.upper_bound == 36  # floor(theta(C7)^3), not the root cover


def test_engine_stops_at_the_cap():
    G = king_graph(Board(5, 2))
    cfg = SolverConfig(node_budget=100_000)
    verts, proven, upper, nodes = _run_engine(G, cfg, cap=5)
    free_verts, free_proven, _, free_nodes = _run_engine(G, cfg)
    assert proven and upper == 5 and len(verts) == 5
    assert free_proven and len(free_verts) == 5
    assert nodes < free_nodes


def test_product_rejects_different_cycles():
    a = Placement(Board(5, 1), ((0,), (2,)))
    b = Placement(Board(7, 1), ((0,), (2,), (4,)))
    with pytest.raises(PlacementError):
        product_placement(a, b)


def test_upper_bound_brackets_the_count_on_small_boards():
    cfg = SolverConfig(node_budget=2_000)
    boards = [(p, d) for p in range(3, 12) for d in range(1, 4)
              if p**d <= 125]
    for p, d in boards:
        res = exact_max_kings(Board(p, d), cfg)
        assert res.upper_bound >= res.count, (p, d)
        if res.proven_optimal:
            assert res.upper_bound == res.count, (p, d)


@settings(max_examples=25, deadline=None)
@given(p=st.integers(3, 9), a=st.integers(1, 2), b=st.integers(1, 2))
def test_product_of_heuristic_packings(p, a, b):
    first = heuristic_max_kings(Board(p, a)).placement
    second = heuristic_max_kings(Board(p, b)).placement
    prod = product_placement(first, second)
    assert prod.board == Board(p, a + b)
    assert verify_placement(prod) == (True, None)
    assert len(prod) == len(first) * len(second)
    assert len(prod) <= _theta_cap(p, a + b)


@pytest.mark.parametrize("p, d", [(3, 3), (4, 3), (5, 4), (7, 3), (11, 2)])
def test_the_heuristic_builds_the_strong_power(p, d):
    pl, G = _heuristic_placement(Board(p, d), SolverConfig(), 10**4)
    assert G == strong_power(cycle(p), d)  # labels included
    assert pl.board == Board(p, d)


def test_an_over_limit_board_fails_before_any_heuristic():
    start = time.monotonic()
    with pytest.raises(VertexLimitError):
        heuristic_max_kings(Board(20, 4))
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("search", [exact_max_kings, heuristic_max_kings])
def test_the_theta_cap_runs_under_the_search_budget(search):
    kings._theta_cycle_hi.cache_clear()
    with mock.patch.object(kings, "lovasz_theta",
                           wraps=kings.lovasz_theta) as spy:
        res = search(Board(13, 1), SolverConfig(time_budget=7.25))
    assert spy.call_args.kwargs["time_budget"] == 7.25
    assert res.upper_bound == 6

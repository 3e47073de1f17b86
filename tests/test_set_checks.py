"""The independence and clique checks of ``graphs.py``: ids that are not
vertices, σ's check of the cover it returns, and searches deeper than
Python's default recursion limit."""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.graphs import (GraphError, clique_cover_value, complete, cycle,
                            empty, from_edges, is_clique, is_independent_set,
                            path, strong_power)
from shancap.report import _invariant_set
from shancap.solvers import (SolverConfig, SolverError, _run_engine,
                             clique_cover_number)


def test_ids_that_are_not_vertices_are_neither_independent_nor_a_clique():
    assert not is_independent_set(cycle(5), [-1, 1])
    assert not is_independent_set(cycle(5), [5])
    assert not is_clique(cycle(5), [-1, 0])  # -1 is not vertex 4


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_is_clique_agrees_with_the_pair_loop(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = from_edges(n, data.draw(st.lists(st.sampled_from(pairs) if pairs
                                         else st.nothing()), label="edges"))
    vs = data.draw(st.lists(st.integers(0, n - 1), max_size=6),
                   label="vertices")
    expected = all(u != v and G.has_edge(u, v)
                   for i, u in enumerate(vs) for v in vs[i + 1:])
    assert is_clique(G, vs) == expected


def test_the_cover_check_names_the_first_non_adjacent_pair():
    with pytest.raises(GraphError,
                       match=r"\(0, 1, 3, 2\) is not a clique: 0 and 3 are"):
        clique_cover_value(cycle(5), [((0, 1, 3, 2), 1)])
    with pytest.raises(GraphError, match="1 and 1 are not adjacent"):
        clique_cover_value(complete(3), [((0, 1, 1, 2), 1)])


@pytest.mark.parametrize("G,classes,error,match", [
    (cycle(4), [0b0101, 0b1010], GraphError, "0 and 2 are not adjacent"),
    (path(3), [0b011, 0b110], SolverError, "overlap"),  # vertex 1 twice
    (cycle(4), [0b0011, 0b0100], GraphError, "vertex 3 is covered 0"),
], ids=["not-a-clique", "overlap", "missed-vertex"])
def test_sigma_rejects_a_bad_cover(G, classes, error, match):
    # alpha(G) = 2 = the number of classes, so the greedy cover is returned
    with mock.patch("shancap.solvers._greedy_coloring",
                    lambda adj, n: list(classes)):
        with pytest.raises(error, match=match):
            clique_cover_number(G)


# The MIS engine recurses once per vertex it includes; these searches
# include more vertices than the default recursion limit of 1000.

@pytest.mark.parametrize("weights", [None, [3] * 1100], ids=["unit", "w3"])
def test_a_search_1100_levels_deep_is_proven(weights):
    limit = sys.getrecursionlimit()
    verts, proven, upper, _ = _run_engine(empty(1100), SolverConfig(),
                                          weights=weights)
    assert verts == tuple(range(1100)) and proven
    assert upper == (1100 if weights is None else 3300)
    assert sys.getrecursionlimit() == limit


def test_the_recursion_limit_is_restored_when_the_budget_ends_a_search():
    limit = sys.getrecursionlimit()
    _, proven, _, _ = _run_engine(cycle(7), SolverConfig(node_budget=1))
    assert not proven and sys.getrecursionlimit() == limit


def test_the_invariant_search_on_c101_squared_returns_its_set():
    G = cycle(101)
    verts, method = _invariant_set(G, 2, strong_power(G, 2),
                                   SolverConfig(node_budget=3000))
    assert len(verts) == 2502 and method.startswith("invariant under")

"""Vertex ids and coordinates are ints: a bool or a float that compares
equal to one is rejected at every entry point that takes them, through
the one predicate ``graphs.is_index``."""

import pytest

from shancap.graphs import (Board, GraphError, Placement, PlacementError,
                            ProductIndex, clique_cover_value, complete, cycle,
                            from_edges, independent_in_power, is_index)
from shancap.solvers import SolverConfig, SolverError, _run_engine


@pytest.mark.parametrize("x, n, ok", [
    (0, 1, True), (4, 5, True), (5, 5, False), (-1, 5, False),
    (True, 5, False), (False, 5, False), (1.0, 5, False), ("1", 5, False),
])
def test_an_index_is_an_int_in_range(x, n, ok):
    assert is_index(x, n) is ok


@pytest.mark.parametrize("forced", [(True,), (1.0,)])
def test_the_engine_rejects_a_forced_vertex_that_is_not_an_int(forced):
    with pytest.raises(SolverError, match="forced vertices must be ids"):
        _run_engine(cycle(7), SolverConfig(), forced=forced)


def test_the_set_check_rejects_a_bool_coordinate():
    # (True, False) would read as (1, 0), which is adjacent to nothing here
    with pytest.raises(GraphError, match=r"cell \(True, False\) is not"):
        independent_in_power(cycle(5), 2, [(True, False), (3, 3)])


def test_product_index_encodes_and_decodes_ints_only():
    index = ProductIndex((5, 5))
    with pytest.raises(GraphError, match="coordinate 1.0 out of range"):
        index.encode((1.0, 2))
    with pytest.raises(GraphError, match="index True out of range"):
        index.decode(True)
    assert index.decode(index.encode((1, 2))) == (1, 2)


def test_a_placement_rejects_a_bool_coordinate():
    with pytest.raises(PlacementError, match="coordinate True out of range"):
        Placement(Board(5, 2), ((True, 0),))


def test_from_edges_rejects_a_bool_endpoint():
    with pytest.raises(GraphError, match=r"edge \(True,2\) out of range"):
        from_edges(3, [(True, 2)])


def test_a_clique_cover_rejects_a_bool_vertex():
    with pytest.raises(GraphError, match=r"\(True, 0\) is not a set of"):
        clique_cover_value(complete(2), [((True, 0), 1)])

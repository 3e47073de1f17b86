"""Counts are ints: a board side or dimension, a power or a radix that is
a bool or a float is rejected at every entry point that takes one, through
the one predicate ``graphs.is_count``."""

import pytest

from shancap.graphs import (Board, GraphError, PlacementError, ProductIndex,
                            cycle, independent_in_power, is_count,
                            strong_powers)
from shancap.kings import exact_max_kings


@pytest.mark.parametrize("x, least, ok", [
    (1, 1, True), (3, 3, True), (2, 3, False), (0, 1, False),
    (True, 1, False), (3.0, 3, False), ("3", 1, False), (None, 1, False),
])
def test_a_count_is_an_int_at_least_its_floor(x, least, ok):
    assert is_count(x, least) is ok


@pytest.mark.parametrize("p, d, message", [
    (5.0, 2, "cycle length 5.0 is not an int >= 3"),
    (True, 2, "cycle length True is not an int >= 3"),
    (5, 2.0, "dimension 2.0 is not an int >= 1"),
    (5, True, "dimension True is not an int >= 1"),
])
def test_a_board_rejects_a_side_or_dimension_that_is_not_an_int(p, d,
                                                                 message):
    with pytest.raises(PlacementError, match=message):
        Board(p, d)


def test_the_king_search_never_sees_a_float_board():
    # a float board once reached the search and failed there with TypeError
    with pytest.raises(PlacementError, match="cycle length 5.0"):
        exact_max_kings(Board(5.0, 2))


@pytest.mark.parametrize("k", [True, 1.0])
def test_strong_powers_rejects_a_power_that_is_not_an_int(k):
    with pytest.raises(GraphError, match="power k must be >= 1"):
        strong_powers(cycle(5), k)


@pytest.mark.parametrize("k", [True, 1.0])
def test_the_set_check_rejects_a_power_that_is_not_an_int(k):
    with pytest.raises(GraphError, match="positive integer"):
        independent_in_power(cycle(5), k, [(0,), (2,)])


@pytest.mark.parametrize("radices", [(5.0,), (True, 3), (5, "3")])
def test_product_index_rejects_radices_that_are_not_ints(radices):
    with pytest.raises(GraphError, match="radices must be positive"):
        ProductIndex(radices)

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.graphs import cycle, strong_power
from shancap.kings import (Board, Placement, PlacementError,
                           canonical_placement, exact_max_kings,
                           heuristic_max_kings, king_graph,
                           layered_construction, placement_from_json,
                           placement_to_json, render_board,
                           toroidal_chebyshev, verify_placement)
from shancap.solvers import SolverConfig, max_independent_set

CFG = SolverConfig(time_budget=300.0, node_budget=200_000_000)


def test_board_validation():
    with pytest.raises(PlacementError):
        Board(2, 2)
    with pytest.raises(PlacementError):
        Board(5, 0)


def test_king_graph_is_strong_power_of_cycle():
    for p, d in ((5, 2), (7, 2), (4, 3), (3, 1)):
        kg = king_graph(Board(p, d))
        sp = strong_power(cycle(p), d)
        assert kg.adj == sp.adj
        assert kg.labels == sp.labels


def test_king_graph_degrees():
    # oracle: count cells at toroidal Chebyshev distance exactly 1 from origin
    for p, d in ((7, 2), (5, 2), (4, 3)):
        b = Board(p, d)
        origin = (0,) * d
        idx = b.index
        expected = sum(
            1 for i in range(b.cells)
            if toroidal_chebyshev(idx.decode(i), origin, p) == 1)
        G = king_graph(b)
        assert set(G.degree(v) for v in range(G.n)) == {expected}
    assert king_graph(Board(7, 2)).n == 49
    assert king_graph(Board(3, 1)).adj == cycle(3).adj


def test_verify_placement():
    ok, pair = verify_placement(Placement(Board(5, 2), ((0, 0), (2, 2))))
    assert ok and pair is None
    ok, pair = verify_placement(Placement(Board(7, 2), ((0, 0), (0, 1))))
    assert not ok and pair == (0, 1)
    # wrap-around adjacency caught
    ok, pair = verify_placement(Placement(Board(6, 2), ((0, 0), (5, 5))))
    assert not ok
    with pytest.raises(PlacementError):
        Placement(Board(5, 2), ((0, 5),))
    with pytest.raises(PlacementError):
        Placement(Board(5, 2), ((0, 0, 0),))


def test_exact_small_boards():
    expectations = {(4, 2): 4, (5, 2): 5, (3, 2): 1, (4, 1): 2, (7, 1): 3}
    for (p, d), want in expectations.items():
        res = exact_max_kings(Board(p, d), CFG)
        assert res.proven_optimal
        assert res.count == want
        ok, _ = verify_placement(res.placement)
        assert ok


def test_exact_7x7():
    res = exact_max_kings(Board(7, 2), CFG)
    assert res.proven_optimal and res.count == 10
    ok, _ = verify_placement(res.placement)
    assert ok


def test_exact_matches_generic_solver():
    # symmetry-broken path against the plain search, all boards up to 125 cells
    boards = [(p, d) for p in range(3, 12) for d in range(1, 4)
              if p**d <= 125] + [(p, 1) for p in range(12, 30)]
    for p, d in boards:
        b = Board(p, d)
        sym = exact_max_kings(b, CFG)
        gen = max_independent_set(king_graph(b), CFG)
        assert sym.proven_optimal and gen.proven_optimal, (p, d)
        assert sym.count == len(gen.vertices), (p, d)


def test_layered_construction():
    base = exact_max_kings(Board(7, 2), CFG).placement
    assert len(base) == 10
    stacked = layered_construction(base, (0, 2, 4))
    assert stacked.board == Board(7, 3)
    assert len(stacked) == 30
    ok, _ = verify_placement(stacked)
    assert ok

    five = exact_max_kings(Board(5, 2), CFG).placement
    ten = layered_construction(five, (0, 2))
    assert len(ten) == 10 and verify_placement(ten)[0]

    same = layered_construction(five, (0,))
    assert len(same) == len(five) and same.board.d == 3


def test_layered_rejects_adjacent_floors():
    base = exact_max_kings(Board(5, 2), CFG).placement
    with pytest.raises(PlacementError):
        layered_construction(base, (0, 1))
    with pytest.raises(PlacementError):
        layered_construction(base, (0, 2, 4))  # 4 and 0 wrap to distance 1


def test_translation_invariance():
    rng = random.Random(8)
    pl = exact_max_kings(Board(7, 2), CFG).placement
    for _ in range(10):
        shift = tuple(rng.randrange(7) for _ in range(2))
        moved = Placement(pl.board, tuple(
            tuple((c + s) % 7 for c, s in zip(cell, shift)) for cell in pl.cells))
        assert verify_placement(moved)[0]


def test_monotone_in_dimension():
    # value(p, d+1) >= value(p, d) * alpha(C_p)
    for p in (4, 5):
        v1 = exact_max_kings(Board(p, 1), CFG).count
        v2 = exact_max_kings(Board(p, 2), CFG).count
        v3 = exact_max_kings(Board(p, 3), CFG).count
        assert v2 >= v1 * (p // 2)
        assert v3 >= v2 * (p // 2)


def test_heuristic_kings():
    res = heuristic_max_kings(Board(7, 3), SolverConfig(seed=1))
    assert res.count >= 30  # layered floor construction guarantees this
    assert verify_placement(res.placement)[0]


def test_canonicalization_and_json():
    pl = Placement(Board(5, 2), ((2, 2), (4, 4)))
    canon = canonical_placement(pl)
    assert canon.cells[0] == (0, 0)
    text = placement_to_json(pl)
    back = placement_from_json(text)
    assert back.cells == canon.cells
    assert json.loads(text)["p"] == 5
    with pytest.raises(PlacementError):
        placement_from_json('{"p": 5}')


def test_render_ascii():
    pl = exact_max_kings(Board(5, 2), CFG).placement
    art = render_board(pl, "ascii")
    assert art.count("K") == 5
    assert "wrap" in art
    empty = render_board(Placement(Board(4, 2), ()), "ascii")
    assert empty.count("K") == 0

    stacked = layered_construction(exact_max_kings(Board(7, 2), CFG).placement,
                                   (0, 2, 4))
    art3 = render_board(stacked, "ascii")
    assert art3.count("K") == 30
    assert art3.count("layer") == 7


def test_render_svg_and_limits():
    pl = exact_max_kings(Board(5, 2), CFG).placement
    svg = render_board(pl, "svg")
    assert svg.startswith("<svg") and svg.count("<circle") == 5
    with pytest.raises(PlacementError):
        render_board(Placement(Board(3, 4), ()), "ascii")


def test_exact_kings_under_a_tiny_node_budget():
    res = exact_max_kings(Board(7, 3), SolverConfig(node_budget=10))
    assert not res.proven_optimal
    assert verify_placement(res.placement) == (True, None)
    assert res.count >= 30  # the heuristic incumbent survives the cut
    assert res.upper_bound >= res.count


def _brute_canonical(pl):
    """Smallest sorted translate over all p^d shifts."""
    p, d = pl.board.p, pl.board.d
    return min(tuple(sorted(tuple((c + s) % p for c, s in zip(cell, shift))
                            for cell in pl.cells))
               for shift in itertools.product(range(p), repeat=d))


@st.composite
def placements(draw):
    """Any set of distinct cells (not only packings) on a board with
    p <= 9 and d <= 3, the empty set included."""
    p, d = draw(st.integers(3, 9)), draw(st.integers(1, 3))
    cell = st.tuples(*[st.integers(0, p - 1)] * d)
    return Placement(Board(p, d),
                     tuple(draw(st.lists(cell, max_size=8, unique=True))))


@settings(max_examples=200, deadline=None)
@given(placements())
def test_canonical_placement_matches_all_shifts(pl):
    canon = canonical_placement(pl)
    assert canon.board == pl.board
    assert canon.cells == _brute_canonical(pl)


@pytest.mark.parametrize("floors, message", [
    ((), "need at least one floor"),
    ((0, 7), "out of range"),
    ((0, 2, 4), "floors 0 and 4 are adjacent mod 5"),
    ((1, 2), "floors 1 and 2 are adjacent mod 5"),
])
def test_layered_floor_errors(floors, message):
    base = Placement(Board(5, 2), ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3)))
    with pytest.raises(PlacementError, match=message):
        layered_construction(base, floors)


@pytest.mark.parametrize("doc", [
    '{"p": 5, "d": 2, "cells": [[0, 0.7]]}',
    '{"p": 5.5, "d": 2, "cells": []}',
    '{"p": 5, "d": true, "cells": []}',
    '{"p": 5, "d": 2, "cells": [["0", "2"]]}',
    '{"p": 5, "d": 2, "cells": 3}',
])
def test_placement_json_rejects_non_integers(doc):
    with pytest.raises(PlacementError):
        placement_from_json(doc)

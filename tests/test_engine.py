"""The MIS engine behind ``max_independent_set`` and ``exact_max_kings``,
through its driver ``_run_engine``: pinned searches, input checks and the
debug line."""

import logging
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap import solvers
from shancap.graphs import cycle, from_edges, strong_power
from shancap.kings import Board, _stabilizer_orbit, king_graph
from shancap.solvers import (SolverConfig, SolverError, _Budget, _MISEngine,
                             _run_engine)


def _g70():
    rng = random.Random(11)
    return from_edges(70, [(u, v) for u in range(70) for v in range(u + 1, 70)
                           if rng.random() < 0.2])


def _kings_7_2_call():
    """The call ``exact_max_kings`` makes on (7, 2), with its heuristic
    incumbent written out."""
    board = Board(7, 2)
    idx = board.index

    def orbit_mask(v):
        mask = 0
        for cell in _stabilizer_orbit(board, idx.decode(v)):
            mask |= 1 << idx.encode(cell)
        return mask

    return _run_engine(king_graph(board), SolverConfig(),
                       forced=(idx.encode((0, 0)),), orbit_fn=orbit_mask,
                       incumbent=(0, 2, 12, 15, 17, 27, 32, 37, 41, 46), cap=11)


# Whole results, node counts included: a change that claims the same
# search node for node must leave every one of them as it is.
GOLDEN = [
    (lambda: _run_engine(strong_power(cycle(7), 2), SolverConfig()),
     ((2, 11, 15, 20, 24, 28, 33, 37, 46, 48), True, 10, 1061)),
    (lambda: _run_engine(strong_power(cycle(9), 2), SolverConfig()),
     ((1, 3, 14, 16, 18, 20, 31, 33, 37, 44, 48, 50, 54, 61, 65, 67, 78, 80),
      True, 18, 47400)),
    (lambda: _run_engine(strong_power(cycle(5), 3),
                         SolverConfig(node_budget=5000)),
     ((6, 33, 42, 51, 60, 74, 87, 114, 122, 124), False, 27, 5000)),
    (lambda: _run_engine(_g70(), SolverConfig()),
     ((3, 12, 20, 22, 33, 34, 37, 38, 41, 44, 47, 48, 54, 58, 59, 63, 66, 69),
      True, 18, 947)),
    (_kings_7_2_call,
     ((0, 2, 12, 15, 17, 27, 32, 37, 41, 46), True, 10, 26)),
]


@pytest.mark.parametrize("call,expected", GOLDEN,
                         ids=["C7^2", "C9^2", "C5^3-5000", "G70", "kings7x2"])
def test_engine_golden(call, expected):
    assert call() == expected


def test_incumbent_that_is_not_independent_is_rejected():
    # accepted, it would "prove" alpha(C7) = 4; the true value is 3
    with pytest.raises(SolverError, match="not independent"):
        _run_engine(cycle(7), SolverConfig(), incumbent=(0, 1, 2, 3))


def test_incumbent_out_of_range_is_rejected():
    with pytest.raises(SolverError, match="range"):
        _run_engine(cycle(7), SolverConfig(), incumbent=(9, 8, 7, 6))


def test_incumbent_with_a_repeated_vertex_is_rejected():
    with pytest.raises(SolverError, match="repeat"):
        _run_engine(cycle(7), SolverConfig(), incumbent=(0, 0, 3))


def test_negative_forced_vertex_is_rejected():
    with pytest.raises(SolverError, match="range"):
        _run_engine(cycle(7), SolverConfig(), forced=(-1,))


def test_forced_vertex_out_of_range_is_named_as_such():
    with pytest.raises(SolverError, match="range"):
        _run_engine(cycle(7), SolverConfig(), forced=(7,))


def test_one_debug_line_per_search(caplog):
    caplog.set_level(logging.DEBUG, logger="shancap.solvers")
    _run_engine(strong_power(cycle(7), 2), SolverConfig())
    _run_engine(strong_power(cycle(5), 3), SolverConfig(node_budget=5000))
    _run_engine(king_graph(Board(5, 2)), SolverConfig(), cap=5)
    _run_engine(strong_power(cycle(7), 2), SolverConfig(time_budget=1e-9))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "shancap.solvers"]
    assert len(lines) == 4
    assert lines[0].startswith("MIS search: n=49 nodes=1061 ")
    assert "nodes/s" in lines[0]
    assert lines[0].endswith("stop=proven")
    assert lines[1].startswith("MIS search: n=125 nodes=5000 ")
    assert lines[1].endswith("stop=node budget")
    assert lines[2].endswith("stop=cap reached")
    assert lines[3].startswith("MIS search: n=49 nodes=0 ")
    assert lines[3].endswith("stop=time budget")


def _reference_cover(eng, cand):
    classes = []
    rem = cand
    while rem:
        cls = 0
        ext = rem
        while ext:
            b = ext.bit_length()
            cls |= eng.bit[b]
            ext &= eng.adj[b]
        rem ^= cls
        classes.append(cls)
    return classes


def _reference_expand(eng, cand, size, orbit=None):
    """A plain reference for ``_MISEngine.expand``: every node peels its
    cover from scratch."""
    eng.budget.tick()
    classes = _reference_cover(eng, cand)
    while classes and size + len(classes) > eng.best:
        last = classes.pop()
        low = last & -last
        if last ^ low:
            classes.append(last ^ low)
        b = low.bit_length()
        ncand = cand & eng.nonadj[b]
        eng.cur.append(b)
        if size + 1 > eng.best:
            eng.improve(size + 1)
        if ncand:
            _reference_expand(eng, ncand, size + 1)
        eng.cur.pop()
        if orbit is None:
            cand ^= low
        else:
            cand &= ~orbit(b)
            classes = _reference_cover(eng, cand)


def _random_call(data, variant):
    """Draw the arguments of one ``_run_engine`` call of the given variant:
    a king board of at most 125 cells with its origin forced and its
    orbits, or a random graph of 1-130 vertices."""
    budget = data.draw(st.integers(1, 3000), label="node_budget")
    cfg = SolverConfig(node_budget=budget)
    if variant == "orbit":
        board = Board(*data.draw(st.sampled_from(
            [(3, 2), (5, 2), (6, 2), (7, 2), (9, 2), (11, 2), (4, 3), (5, 3)]),
            label="board"))
        idx = board.index

        def orbit_mask(v):
            mask = 0
            for cell in _stabilizer_orbit(board, idx.decode(v)):
                mask |= 1 << idx.encode(cell)
            return mask

        origin = idx.encode((0,) * board.d)
        return king_graph(board), cfg, {"forced": (origin,),
                                        "orbit_fn": orbit_mask}
    n = data.draw(st.integers(1, 130), label="n")
    density = data.draw(st.floats(0.0, 1.0), label="density")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                       if rng.random() < density])
    # a random maximal independent set, cut short
    order = list(range(n))
    rng.shuffle(order)
    indep = []
    for v in order:
        if not any(G.adj[v] >> u & 1 for u in indep):
            indep.append(v)
    kwargs = {"incumbent": tuple(indep[:rng.randrange(len(indep) + 1)])}
    if variant == "forced":
        kwargs["forced"] = tuple(indep[:rng.randint(1, min(3, len(indep)))])
    elif variant == "cap":
        kwargs["cap"] = data.draw(st.integers(1, n), label="cap")
    return G, cfg, kwargs


@pytest.mark.parametrize("variant", ["plain", "forced", "orbit", "cap"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_engine_matches_the_from_scratch_reference(variant, data):
    G, cfg, kwargs = _random_call(data, variant)
    with mock.patch.object(_MISEngine, "expand", _reference_expand):
        expected = _run_engine(G, cfg, **kwargs)
    assert _run_engine(G, cfg, **kwargs) == expected


def _counters(caplog):
    """expanded, replayed, table and clears of the last search's debug
    line."""
    line = [r.getMessage() for r in caplog.records
            if r.name == "shancap.solvers"][-1]
    fields = dict(f.split("=") for f in line.split() if "=" in f)
    return tuple(int(fields[k])
                 for k in ("expanded", "replayed", "table", "clears"))


def test_a_budget_that_ends_inside_a_replay_stops_where_the_ticks_would(
        caplog):
    caplog.set_level(logging.DEBUG, logger="shancap.solvers")
    G = strong_power(cycle(7), 2)  # 1,061 nodes, most of them replayed
    tick, charge = _Budget.tick, _Budget.charge
    ticks = []
    cut = []  # budgets a replay's charge stopped part way through

    def counted_tick(budget):
        tick(budget)
        ticks.append(budget)

    def watched_charge(budget, count):
        if 0 < budget.node_budget - budget.nodes < count:
            cut.append(budget.node_budget)
        charge(budget, count)

    for budget in range(1, 1061, 5):
        cfg = SolverConfig(node_budget=budget)
        with mock.patch.object(_MISEngine, "expand", _reference_expand):
            expected = _run_engine(G, cfg)
        ticks.clear()
        with mock.patch.object(_Budget, "tick", counted_tick), \
                mock.patch.object(_Budget, "charge", watched_charge):
            assert _run_engine(G, cfg) == expected
        assert expected[3] == budget
        expanded, replayed, _, _ = _counters(caplog)
        assert (expanded, replayed) == (len(ticks), budget - len(ticks))
    assert cut


@pytest.mark.parametrize("variant", ["plain", "forced", "orbit", "cap"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_full_table_is_emptied_and_the_search_stays_the_same(variant, data):
    G, cfg, kwargs = _random_call(data, variant)
    with mock.patch.object(_MISEngine, "expand", _reference_expand):
        expected = _run_engine(G, cfg, **kwargs)
    expand = _MISEngine.expand

    def bounded(eng, *args):
        assert len(eng.solved) <= 4
        return expand(eng, *args)

    with mock.patch.object(solvers, "_SOLVED_LIMIT", 4), \
            mock.patch.object(_MISEngine, "expand", bounded):
        assert _run_engine(G, cfg, **kwargs) == expected


def test_the_table_limit_clears_and_keeps_the_golden_search(caplog):
    caplog.set_level(logging.DEBUG, logger="shancap.solvers")
    with mock.patch.object(solvers, "_SOLVED_LIMIT", 4):
        assert GOLDEN[0][0]() == GOLDEN[0][1]
    _, replayed, entries, clears = _counters(caplog)
    assert entries <= 4 and clears > 0 and replayed > 0


def test_no_table_outlives_its_search(caplog):
    caplog.set_level(logging.DEBUG, logger="shancap.solvers")
    G = strong_power(cycle(9), 2)
    cfg = SolverConfig(node_budget=20_000)
    first = _run_engine(G, cfg)
    first_counters = _counters(caplog)
    assert _run_engine(G, cfg) == first
    assert _counters(caplog) == first_counters

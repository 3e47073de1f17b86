"""The MIS engine's memo of peeled cover classes, and pinned results of
the searches and the local search it runs beside."""

import logging
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from shancap import kings, solvers
from shancap.graphs import cycle, from_edges, strong_power
from shancap.kings import Board, exact_max_kings
from shancap.solvers import (SolverConfig, _MISEngine, _run_engine,
                             heuristic_independent_set)


def _scratch_cover(G, cand):
    """Greedy clique cover of cand peeled bit by bit, top bit first, on G's
    labels as engine labels."""
    classes = []
    rem = cand
    while rem:
        cls = 0
        ext = rem
        while ext:
            v = ext.bit_length() - 1
            cls |= 1 << v
            ext &= G.adj[v]
        rem ^= cls
        classes.append(cls)
    return classes


def _check_repeated_covers(n, density, seed, limit):
    rng = random.Random(seed)
    G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                       if rng.random() < density])
    eng = _MISEngine(G.adj, SolverConfig())
    # a few base sets and their shrinking subsets, so that peels repeat
    for _ in range(4):
        cand = rng.getrandbits(n)
        while True:
            expected = _scratch_cover(G, cand)
            assert eng.cover(cand) == expected
            assert len(eng.peels) <= limit
            gone = rng.getrandbits(n) & rng.getrandbits(n)
            assert (eng.cover(cand & ~gone, expected, gone)
                    == _scratch_cover(G, cand & ~gone))
            assert len(eng.peels) <= limit
            if not cand:
                break
            cand &= rng.getrandbits(n) | rng.getrandbits(n)
    return eng


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_memoized_cover_equals_the_peel_from_scratch(n, density, seed):
    limit = solvers._SOLVED_LIMIT
    eng = _check_repeated_covers(n, density, seed, limit)
    assert eng.peel_misses <= eng.classes - eng.inherited
    # every miss is stored, and a store into a full memo empties it first
    assert eng.peel_misses == limit * eng.peel_clears + len(eng.peels)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_a_full_memo_is_emptied_and_the_covers_stay_the_same(
        n, density, seed):
    with mock.patch.object(solvers, "_SOLVED_LIMIT", 4):
        eng = _check_repeated_covers(n, density, seed, 4)
    # every miss is stored, and a store into a full memo empties it first
    assert eng.peel_misses == 4 * eng.peel_clears + len(eng.peels)


def test_the_debug_line_gives_the_peel_hits_before_the_stop_reason(caplog):
    caplog.set_level(logging.DEBUG, logger="shancap.solvers")
    _run_engine(strong_power(cycle(7), 2), SolverConfig())
    with mock.patch.object(solvers, "_SOLVED_LIMIT", 4):
        _run_engine(strong_power(cycle(7), 2), SolverConfig())
    lines = [r.getMessage() for r in caplog.records
             if r.name == "shancap.solvers"]
    fields = [dict(f.split("=") for f in line.split() if "=" in f)
              for line in lines]
    assert [f["stop"] for f in fields] == ["proven", "proven"]
    for line in lines:
        assert line.index(" peel_hits=") < line.index(" peel_clears=") \
            < line.index(" stop=")
    assert 0 < int(fields[0]["peel_hits"].rstrip("%")) <= 100
    assert fields[0]["peel_clears"] == "0"
    assert int(fields[1]["peel_clears"]) > 0


def test_king_search_on_7x3_is_pinned():
    """``exact_max_kings``'s whole engine call on (7, 3), node count
    included; its orbital level makes this search larger than any in
    ``GOLDEN``."""
    results = []
    run = kings._run_engine

    def recorded(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    with mock.patch.object(kings, "_run_engine", recorded):
        exact_max_kings(Board(7, 3), SolverConfig(node_budget=20_000))
    assert results == [(
        (0, 2, 15, 27, 41, 53, 67, 78, 80, 104, 106, 118, 131, 142, 157, 169,
         171, 182, 193, 196, 208, 222, 233, 247, 260, 284, 286, 298, 318,
         330), False, 36, 20000)]


HEURISTIC_C7_3 = {
    0: (5, 9, 18, 23, 36, 49, 69, 81, 83, 94, 108, 113, 127, 145, 159, 172,
        189, 191, 203, 230, 242, 255, 257, 270, 275, 289, 301, 315, 333, 335),
    1: (0, 21, 36, 39, 41, 51, 53, 65, 67, 111, 126, 128, 130, 140, 157, 162,
        193, 197, 208, 220, 222, 233, 259, 273, 284, 293, 296, 298, 310, 312),
    2: (6, 16, 30, 32, 46, 51, 60, 63, 77, 122, 124, 135, 140, 145, 154, 156,
        158, 169, 221, 230, 235, 239, 244, 249, 258, 260, 275, 295, 312, 321,
        335),
    3: (11, 13, 15, 26, 38, 51, 73, 77, 91, 96, 113, 131, 149, 151, 160, 165,
        178, 183, 217, 244, 248, 253, 258, 262, 271, 275, 284, 288, 322, 342),
    4: (8, 17, 22, 35, 44, 53, 55, 75, 80, 89, 106, 115, 119, 133, 151, 153,
        177, 186, 191, 221, 223, 254, 256, 267, 282, 286, 307, 321, 326, 340),
}


def test_local_search_on_c7_cubed_is_pinned_per_seed():
    G = strong_power(cycle(7), 3)
    for seed, expected in HEURISTIC_C7_3.items():
        assert heuristic_independent_set(
            G, SolverConfig(seed=seed)).vertices == expected

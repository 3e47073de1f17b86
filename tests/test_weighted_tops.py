"""The weighted branch loop carries each cover class's largest weight: a
class kept from the parent's cover keeps its top, and a peeled one reads
it from a memo.  Pinned on two orbit graphs of the invariant search,
built here from the cells of C_p^k, and compared, budget by budget, with
a reference that walks every class at every node."""

import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap import solvers
from shancap.graphs import Graph, from_edges
from shancap.solvers import SolverConfig, _MISEngine, _run_engine

BENCH = SolverConfig(time_budget=30.0, node_budget=150_000, seed=0)


def _shift(c):
    return c[1:] + c[:1]


def _negation(p):
    return lambda c: tuple(-x % p for x in c)


def _orbit_graph(p, k, maps):
    """(graph, orbit sizes): the orbits of the cells of C_p^k under the
    group the ``maps`` generate, numbered by their least cell, with the
    orbits holding two adjacent cells left out; two orbits are adjacent
    when a cell of one is adjacent to a cell of the other."""
    def adjacent(a, b):
        return a != b and all((x - y) % p in (0, 1, p - 1)
                              for x, y in zip(a, b))

    seen = set()
    orbits = []
    for cell in product(range(p), repeat=k):
        if cell in seen:
            continue
        orbit = [cell]
        seen.add(cell)
        for c in orbit:  # grows while it is read
            for g in maps:
                if g(c) not in seen:
                    seen.add(g(c))
                    orbit.append(g(c))
        if not any(adjacent(a, b) for a in orbit for b in orbit):
            orbits.append(orbit)
    rows = [0] * len(orbits)
    for i, a in enumerate(orbits):
        for j in range(i):
            if any(adjacent(x, y) for x in a for y in orbits[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(len(orbits), tuple(rows)), [len(o) for o in orbits]


def _c7_cube():
    return _orbit_graph(7, 3, [_shift, _negation(7)])


def _c11_square():
    return _orbit_graph(11, 2, [_negation(11)])


# The tuples of the loop that walked every class at every node, node
# counts included.
PINNED = [
    (_c7_cube, 47, ((0, 2, 13, 19, 36, 40, 43), True, 33, 219)),
    (_c11_square, 57,
     ((0, 4, 7, 14, 16, 21, 23, 30, 36, 39, 43, 45, 51, 56), True, 27, 5588)),
]


@pytest.mark.parametrize("build,n,expected", PINNED,
                         ids=["C7^3-shift-negation", "C11^2-negation"])
def test_the_weighted_search_is_pinned_on_two_orbit_graphs(build, n, expected):
    G, sizes = build()
    assert G.n == n
    assert _run_engine(G, BENCH, weights=sizes) == expected


def _walked_top(eng, cls):
    top = 0
    while cls:
        b = cls.bit_length()
        top = max(top, eng.weight[b])
        cls ^= eng.bit[b]
    return top


def _fresh_cover(eng, cand):
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


def _reference_expand_weighted(eng, cand, size):
    """A plain reference for ``_MISEngine.expand_weighted``: every node
    peels its cover from scratch and walks every class for its top."""
    eng.budget.tick()
    classes = _fresh_cover(eng, cand)
    tops = [_walked_top(eng, cls) for cls in classes]
    while classes and size + sum(tops) > eng.best:
        last = classes.pop()
        tops.pop()
        low = last & -last
        if last ^ low:
            classes.append(last ^ low)
            tops.append(_walked_top(eng, last ^ low))
        b = low.bit_length()
        w = eng.weight[b]
        ncand = cand & eng.nonadj[b]
        eng.cur.append(b)
        if size + w > eng.best:
            eng.improve(size + w)
        if ncand:
            _reference_expand_weighted(eng, ncand, size + w)
        eng.cur.pop()
        cand ^= low


@pytest.mark.parametrize("build,budgets", [
    (_c7_cube, range(1, 230, 3)),
    (_c11_square, range(1, 5600, 173)),
], ids=["C7^3-shift-negation", "C11^2-negation"])
def test_every_node_budget_stops_where_the_walking_loop_does(build, budgets):
    G, sizes = build()
    for budget in budgets:
        cfg = SolverConfig(node_budget=budget)
        with mock.patch.object(_MISEngine, "expand_weighted",
                               _reference_expand_weighted):
            expected = _run_engine(G, cfg, weights=sizes)
        assert _run_engine(G, cfg, weights=sizes) == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 2000))
def test_random_weighted_searches_match_the_walking_loop(n, density, seed,
                                                         budget):
    # weights 1-6 on a random graph: a class often loses its one heaviest
    # vertex as its low bit, the case where its top must be read again
    rng = random.Random(seed)
    G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                       if rng.random() < density])
    weights = [rng.randint(1, 6) for _ in range(n)]
    cfg = SolverConfig(node_budget=budget)
    with mock.patch.object(_MISEngine, "expand_weighted",
                           _reference_expand_weighted):
        expected = _run_engine(G, cfg, weights=weights)
    assert _run_engine(G, cfg, weights=weights) == expected


def test_a_full_memo_of_tops_is_emptied_and_the_search_stays_the_same():
    G, sizes = _c11_square()
    heaviest = _MISEngine._heaviest

    def bounded(eng, cls):
        assert len(eng.tops) <= 4
        return heaviest(eng, cls)

    with mock.patch.object(solvers, "_SOLVED_LIMIT", 4), \
            mock.patch.object(_MISEngine, "_heaviest", bounded):
        assert _run_engine(G, BENCH, weights=sizes) == PINNED[1][2]

"""The incremental minimum-degree greedy and degeneracy order, and the
linear independence check, each against the plain version it replaced."""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.graphs import bits, cycle, from_edges, strong_power
from shancap.solvers import (_greedy_independent, _vertex_order,
                             is_independent_set)


def _min_degree(adj, alive):
    """Vertex of ``alive`` with the fewest neighbours in it; lowest id on
    ties, by a scan of the whole live set."""
    return min(bits(alive), key=lambda v: (adj[v] & alive).bit_count())


def _scan_greedy(G, start=None):
    alive = (1 << G.n) - 1
    out = []
    while alive:
        v = _min_degree(G.adj, alive) if start is None else start
        start = None
        out.append(v)
        alive &= ~(G.adj[v] | (1 << v))
    return out


def _scan_degeneracy(G):
    alive = (1 << G.n) - 1
    order = []
    while alive:
        v = _min_degree(G.adj, alive)
        order.append(v)
        alive &= ~(1 << v)
    return order[::-1]


def _pair_loop(G, vertices):
    vs = list(vertices)
    for i, v in enumerate(vs):
        for u in vs[i + 1:]:
            if u == v or G.adj[v] >> u & 1:
                return False
    return True


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < density])


@settings(max_examples=200, deadline=None)
@given(G=graphs(), data=st.data())
def test_the_greedy_picks_what_the_scan_picks(G, data):
    assert _greedy_independent(G) == _scan_greedy(G)
    start = data.draw(st.integers(0, G.n - 1), label="start")
    assert _greedy_independent(G, start) == _scan_greedy(G, start)


@settings(max_examples=200, deadline=None)
@given(G=graphs())
def test_the_degeneracy_order_is_the_scan_order(G):
    assert _vertex_order(G, "degeneracy") == _scan_degeneracy(G)


def test_the_greedy_is_not_quadratic_on_a_large_power():
    G = strong_power(cycle(51), 2)
    start = time.monotonic()
    found = _greedy_independent(G)
    _vertex_order(G, "degeneracy")
    # 0.04 s on a 2-core Xeon VM, where the scans take 0.9 s and 3.5 s
    assert time.monotonic() - start < 1.0
    assert is_independent_set(G, found)


@settings(max_examples=300, deadline=None)
@given(G=graphs(), data=st.data())
def test_the_independence_check_agrees_with_the_pair_loop(G, data):
    vs = data.draw(st.lists(st.integers(0, G.n - 1), max_size=12),
                   label="vertices")
    assert is_independent_set(G, vs) == _pair_loop(G, vs)


def test_the_independence_check_rejects_repeats_and_adjacent_pairs():
    G = cycle(7)
    assert is_independent_set(G, [0, 2, 4])
    assert is_independent_set(G, [])
    assert not is_independent_set(G, [0, 2, 0])
    assert not is_independent_set(G, [3, 3])
    assert not is_independent_set(G, [0, 2, 3])
    assert not is_independent_set(G, [6, 0])

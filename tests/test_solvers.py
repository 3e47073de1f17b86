import random
import time
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap import solvers
from shancap.graphs import (complement, complete, cycle, disjoint_union,
                            empty, from_edges, strong_power, strong_product)
from shancap.solvers import (CliqueCapExceeded, SolverConfig, SolverError,
                             clique_cover_number, clique_number,
                             enumerate_maximal_cliques,
                             heuristic_independent_set, is_clique,
                             is_independent_set, max_clique,
                             max_independent_set)


def _random_graph(rng, n, p=0.5):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


def _brute_alpha(G):
    best = 0
    for k in range(G.n, 0, -1):
        if any(is_independent_set(G, c) for c in combinations(range(G.n), k)):
            return k
    return best


def test_config_validation():
    with pytest.raises(Exception):
        SolverConfig(time_budget=-1)
    with pytest.raises(Exception):
        SolverConfig(node_budget=0)
    with pytest.raises(Exception):
        SolverConfig(ordering="weird")


def test_alpha_cycles():
    for n in range(3, 12):
        res = max_independent_set(cycle(n))
        assert res.proven_optimal
        assert len(res.vertices) == n // 2
        assert is_independent_set(cycle(n), res.vertices)


def test_alpha_small_powers():
    res = max_independent_set(strong_power(cycle(5), 2))
    assert len(res.vertices) == 5 and res.proven_optimal
    res = max_independent_set(strong_product(cycle(4), cycle(4)))
    assert len(res.vertices) == 4 and res.proven_optimal


def test_alpha_against_brute_force():
    rng = random.Random(101)
    for _ in range(60):
        G = _random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9))
        res = max_independent_set(G)
        assert res.proven_optimal
        assert len(res.vertices) == _brute_alpha(G)
        assert res.upper_bound == len(res.vertices)


def test_alpha_budget_degrades_not_fails():
    G = strong_power(cycle(5), 3)
    res = max_independent_set(G, SolverConfig(node_budget=64))
    assert not res.proven_optimal
    assert is_independent_set(G, res.vertices)
    assert res.upper_bound >= 10  # alpha of this graph


def test_alpha_orderings_agree():
    rng = random.Random(3)
    for _ in range(20):
        G = _random_graph(rng, 8)
        vals = {
            len(max_independent_set(G, SolverConfig(ordering=o)).vertices)
            for o in ("degree", "degeneracy", "label")
        }
        assert len(vals) == 1


def test_clique_number():
    assert clique_number(complete(5)) == 5
    assert clique_number(cycle(7)) == 2
    # oracle: brute force over all triples/quadruples of complement(C7)
    M = complement(cycle(7))
    tri = any(is_clique(M, c) for c in combinations(range(7), 3))
    quad = any(is_clique(M, c) for c in combinations(range(7), 4))
    assert tri and not quad
    assert clique_number(M) == 3
    res = max_clique(M)
    assert is_clique(M, res.vertices) and len(res.vertices) == 3


def test_alpha_equals_omega_of_complement():
    rng = random.Random(2024)
    for _ in range(50):
        G = _random_graph(rng, rng.randint(1, 9))
        assert len(max_independent_set(G).vertices) == clique_number(complement(G))


def test_disjoint_union_alpha_adds():
    U = disjoint_union(cycle(5), cycle(5))
    assert len(max_independent_set(U).vertices) == 4


def test_clique_cover_odd_cycles():
    for n, expect in ((5, 3), (7, 4), (9, 5)):
        value, cover = clique_cover_number(cycle(n))
        assert value == expect and cover.proven_optimal
    value, cover = clique_cover_number(complete(6))
    assert value == 1 and cover.parts == ((0, 1, 2, 3, 4, 5),)


def test_clique_cover_validity_random():
    rng = random.Random(55)
    for _ in range(40):
        G = _random_graph(rng, rng.randint(1, 9))
        value, cover = clique_cover_number(G)
        assert value == len(cover.parts)
        seen = sorted(v for part in cover.parts for v in part)
        assert seen == list(range(G.n))
        assert all(is_clique(G, part) for part in cover.parts)


def test_sandwich_alpha_sigma():
    rng = random.Random(99)
    for _ in range(200):
        G = _random_graph(rng, rng.randint(1, 10), rng.uniform(0.15, 0.85))
        a = len(max_independent_set(G).vertices)
        s, cover = clique_cover_number(G)
        if cover.proven_optimal:
            assert a <= s


def test_superadditivity_strong_product():
    rng = random.Random(13)
    for _ in range(100):
        G = _random_graph(rng, rng.randint(2, 6))
        H = _random_graph(rng, rng.randint(2, 6))
        a_g = len(max_independent_set(G).vertices)
        a_h = len(max_independent_set(H).vertices)
        a_p = len(max_independent_set(strong_product(G, H)).vertices)
        assert a_p >= a_g * a_h


def test_bipartite_power_locks_in():
    rng = random.Random(31337)
    for _ in range(100):
        n = rng.randint(2, 8)
        sides = [rng.randint(0, 1) for _ in range(n)]
        G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if sides[u] != sides[v] and rng.random() < 0.5])
        a = len(max_independent_set(G).vertices)
        a2 = len(max_independent_set(strong_product(G, G)).vertices)
        assert a2 == a * a


def test_enumerate_maximal_cliques():
    cl = enumerate_maximal_cliques(cycle(5))
    assert len(cl) == 5 and all(len(c) == 2 for c in cl)
    cl = enumerate_maximal_cliques(complete(4))
    assert cl == [(0, 1, 2, 3)]
    cl = enumerate_maximal_cliques(strong_product(cycle(5), cycle(5)))
    assert len(cl) == 25
    assert all(len(c) == 4 for c in cl)
    G25 = strong_product(cycle(5), cycle(5))
    for c in cl:
        assert is_clique(G25, c)
        rest = set(range(25)) - set(c)
        assert not any(is_clique(G25, tuple(c) + (v,)) for v in rest)  # maximal


def test_clique_cap():
    # complete multipartite blow-up has 4^4 = 256 maximal cliques
    parts = 4
    size = 4
    n = parts * size
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if u // size != v // size]
    G = from_edges(n, edges)
    with pytest.raises(CliqueCapExceeded):
        enumerate_maximal_cliques(G, cap=100)
    assert len(enumerate_maximal_cliques(G, cap=300)) == 256


def test_heuristic_independent_set():
    assert len(heuristic_independent_set(empty(9)).vertices) == 9
    assert len(heuristic_independent_set(complete(7)).vertices) == 1
    G = strong_power(cycle(7), 2)
    for seed in range(10):
        res = heuristic_independent_set(G, SolverConfig(seed=seed))
        assert len(res.vertices) >= 9  # exact optimum is 10
        assert is_independent_set(G, res.vertices)


def test_heuristic_deterministic_per_seed():
    G = strong_power(cycle(7), 2)
    a = heuristic_independent_set(G, SolverConfig(seed=4))
    b = heuristic_independent_set(G, SolverConfig(seed=4))
    assert a.vertices == b.vertices


def test_clique_cover_honours_time_budget():
    G = strong_power(cycle(5), 3)
    start = time.monotonic()
    value, cover = clique_cover_number(G, SolverConfig(time_budget=1.0))
    assert time.monotonic() - start < 10.0
    assert not cover.proven_optimal
    assert value == len(cover.parts)
    assert sorted(v for part in cover.parts for v in part) == list(range(G.n))
    assert all(is_clique(G, part) for part in cover.parts)


def test_clique_cover_honours_node_budget():
    G = strong_power(cycle(5), 3)
    value, cover = clique_cover_number(G, SolverConfig(node_budget=1))
    assert not cover.proven_optimal
    assert value == len(cover.parts)
    assert sorted(v for part in cover.parts for v in part) == list(range(G.n))
    assert all(is_clique(G, part) for part in cover.parts)


def test_config_rejects_a_nan_budget():
    # nan <= 0 is False, so only ``not budget > 0`` catches a NaN
    with pytest.raises(SolverError):
        SolverConfig(time_budget=float("nan"))


@st.composite
def budgeted_graphs(draw):
    """A G(n, p) with n <= 60 and a config whose node budget may be 1."""
    n = draw(st.integers(1, 60))
    p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]))
    G = _random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)
    cfg = SolverConfig(node_budget=draw(st.integers(1, 2000)),
                       seed=draw(st.integers(0, 5)))
    return G, cfg


@settings(max_examples=150, deadline=None)
@given(budgeted_graphs())
def test_search_never_returns_less_than_its_local_search(case):
    # the search is seeded by the local search, so no budget leaves it below
    G, cfg = case
    res = max_independent_set(G, cfg)
    assert len(res.vertices) >= len(heuristic_independent_set(G, cfg).vertices)
    assert len(res.vertices) <= res.upper_bound


def test_local_search_starts_no_restart_once_the_budget_is_spent():
    # the first restart always completes; on C7^2 seed 0 it finds 9 of 10
    G = strong_power(cycle(7), 2)
    spent = heuristic_independent_set(G, SolverConfig(time_budget=1e-9))
    with mock.patch.object(solvers, "_RESTARTS", 1):
        one = heuristic_independent_set(G, SolverConfig())
    assert spent == one
    assert len(one.vertices) == 9


def test_clique_cover_gets_the_node_budget_it_is_given():
    with mock.patch.object(solvers, "_Budget", wraps=solvers._Budget) as spy:
        clique_cover_number(cycle(7), SolverConfig(node_budget=3_000_000))
    assert spy.call_args.args[0] == 3_000_000

"""``max_independent_set`` relabels at most once: it searches the caller's
graph when the requested order is the identity, and otherwise builds each
relabelled row from the vertex's own row.  Either way the engine must see
the rows, and give the result and node count, of the edge-list relabel
kept here as the reference."""

import random
from unittest import mock

import pytest

from shancap import solvers
from shancap.graphs import Graph, cycle, from_edges, path, strong_power
from shancap.solvers import (IndependentSet, SolverConfig,
                             heuristic_independent_set, max_independent_set)


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)
                          if (j - i) % q in squares])


def _gnp(n, seed):
    rng = random.Random(seed)
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])


def _edge_relabel(G, order):
    """G with vertex order[i] renamed i, built from ``G.edges()``, and the
    renaming as a dict."""
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * G.n
    for u, v in G.edges():
        rows[pos[u]] |= 1 << pos[v]
        rows[pos[v]] |= 1 << pos[u]
    return Graph(G.n, tuple(rows)), pos


def _reference(G, cfg):
    """``max_independent_set`` through the edge-list relabel: (the engine's
    graph, the result, the engine's node count)."""
    order = solvers._vertex_order(G, cfg.ordering)
    Gr, pos = _edge_relabel(G, order)
    local = [pos[v] for v in heuristic_independent_set(G, cfg).vertices]
    seed = max(solvers._greedy_independent(Gr), local, key=len)
    verts, proven, upper, nodes = solvers._run_engine(Gr, cfg, incumbent=seed)
    back = tuple(sorted(order[v] for v in verts))
    return Gr, IndependentSet(back, proven, upper), nodes


@pytest.mark.parametrize("G, cfg", [
    (strong_power(cycle(7), 2), SolverConfig()),
    (strong_power(cycle(5), 3), SolverConfig(node_budget=2000)),
    (_paley(17), SolverConfig()),
    (cycle(9), SolverConfig(ordering="label")),
], ids=["C7^2", "C5^3", "Paley(17)", "C9-label"])
def test_an_identity_order_searches_the_callers_graph(G, cfg):
    assert solvers._vertex_order(G, cfg.ordering) == list(range(G.n))
    with mock.patch.object(solvers, "_run_engine",
                           wraps=solvers._run_engine) as spy:
        res = max_independent_set(G, cfg)
    assert spy.call_count == 1
    assert spy.call_args.args[0] is G
    assert res == _reference(G, cfg)[1]


def _star(n, centre):
    return from_edges(n, [(centre, v) for v in range(n) if v != centre])


REORDERED = ([(f"G({n},1/2)#{seed}", _gnp(n, seed))
              for n, seed in ((8, 1), (13, 2), (20, 3), (24, 4), (30, 5))]
             + [("path(7)", path(7)), ("star(9)", _star(9, 4))])


@pytest.mark.parametrize("ordering", ["degree", "degeneracy", "label"])
@pytest.mark.parametrize("node_budget", [50_000_000, 7])
@pytest.mark.parametrize("name, G", REORDERED, ids=[n for n, _ in REORDERED])
def test_relabelled_rows_and_results_match_the_edge_list_relabel(
        name, G, ordering, node_budget):
    cfg = SolverConfig(node_budget=node_budget, seed=3, ordering=ordering)
    Gr, want, want_nodes = _reference(G, cfg)
    seen = []
    real = solvers._run_engine

    def recorder(H, *args, **kwargs):
        out = real(H, *args, **kwargs)
        seen.append((H, out[3]))
        return out

    with mock.patch.object(solvers, "_run_engine", recorder):
        res = max_independent_set(G, cfg)
    [(H, nodes)] = seen
    assert (H is G) == (ordering == "label")
    assert H.adj == Gr.adj
    assert (res, nodes) == (want, want_nodes)


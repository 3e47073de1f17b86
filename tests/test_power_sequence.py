"""G, G^2, ..., G^k come from one ``strong_powers`` call, each power built
once, and both drivers take their powers from it."""

from functools import reduce
from unittest import mock

import pytest

from shancap import graphs
from shancap.graphs import (Graph, GraphError, VertexLimitError, cycle, path,
                            strong_power, strong_powers, strong_product)
from shancap.kings import Board, exact_max_kings
from shancap.report import compute_bounds
from shancap.solvers import SolverConfig

CFG = SolverConfig(time_budget=30.0, node_budget=5000, seed=0)


@pytest.mark.parametrize("G", [cycle(5), strong_product(path(2), cycle(3))],
                         ids=["C5", "P2xC3"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_sequence_is_the_powers(G, k):
    base = G if G.labels is not None else Graph(
        G.n, G.adj, tuple((v,) for v in range(G.n)))
    powers = strong_powers(G, k)
    assert len(powers) == k
    for j, Gj in enumerate(powers, 1):
        for Hj in (strong_power(G, j), reduce(strong_product, [base] * j)):
            assert (Gj.n, Gj.adj, Gj.labels) == (Hj.n, Hj.adj, Hj.labels)


@pytest.mark.parametrize("k, limit, error, match", [
    (0, 10**5, GraphError, r"power k must be >= 1"),
    (4, 600, VertexLimitError,
     r"product would have 625 vertices \(> limit 600\)"),
], ids=["k=0", "over-limit"])
def test_a_bad_power_fails_before_anything_is_built(k, limit, error, match):
    G = cycle(5)
    with mock.patch.object(graphs, "strong_product",
                           wraps=graphs.strong_product) as product, \
         mock.patch.object(graphs, "Graph", wraps=graphs.Graph) as graph:
        for build in (strong_powers, strong_power):
            with pytest.raises(error, match=match):
                build(G, k, limit)
    product.assert_not_called()
    graph.assert_not_called()


def test_the_report_builds_each_power_once():
    # C5^2 and C5^3, one product each; one strong_power call per row
    # built 0 + 1 + 2 of them
    with mock.patch.object(graphs, "strong_product",
                           wraps=graphs.strong_product) as product:
        report = compute_bounds(cycle(5), 3, CFG)
    assert product.call_count == 2
    assert [r.k for r in report.table] == [1, 2, 3]


def test_the_king_search_builds_each_power_once():
    with mock.patch.object(graphs, "strong_product",
                           wraps=graphs.strong_product) as product:
        res = exact_max_kings(Board(5, 4), CFG)
    assert product.call_count == 3
    assert res.count == 25 and res.proven_optimal


def test_a_power_over_the_limit_is_skipped_and_named():
    report = compute_bounds(cycle(7), 3, CFG, vertex_limit=100)
    assert [r.k for r in report.table] == [1, 2]
    assert report.provenance[2] == (
        "power 3 skipped: product would have 343 vertices (> limit 100); "
        "pass a larger vertex_limit to override")

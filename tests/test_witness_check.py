"""The one witness check: ``independent_in_power`` reads G's adjacency
coordinate by coordinate, and ``verify_report`` runs it on every witness
of a report, whatever its method, without building G^k."""

import math
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.graphs import (DEFAULT_VERTEX_LIMIT, Graph, GraphError, cycle,
                            disjoint_union, from_edges, independent_in_power,
                            strong_power, strong_product)
from shancap.kings import Board, Placement, PlacementError, toroidal_chebyshev
from shancap.report import (CertificateRejected, LowerBound, ReportError,
                            _check_witness, combine_external_certificate,
                            compute_bounds, verify_report)
from shancap.solvers import SolverConfig, is_independent_set

CFG = SolverConfig(time_budget=120.0, seed=0)


@st.composite
def graph_power_cells(draw, max_n=6, max_k=3, max_cells=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    k = draw(st.integers(1, max_k))
    cell = st.tuples(*[st.integers(0, n - 1)] * k)
    cells = draw(st.lists(cell, max_size=max_cells))
    if cells and draw(st.booleans()):  # repeat a drawn cell somewhere
        at = draw(st.integers(0, len(cells)))
        cells.insert(at, draw(st.sampled_from(cells)))
    return from_edges(n, edges), k, cells


def _first_pair(cells, clash):
    return next(((i, j) for i in range(len(cells))
                 for j in range(i + 1, len(cells)) if clash(cells[i], cells[j])),
                None)


@settings(max_examples=300, deadline=None)
@given(graph_power_cells())
def test_agrees_with_the_independent_set_test_on_the_built_power(case):
    G, k, cells = case
    Gk = strong_power(G, k)
    ids = {Gk.label_of(v): v for v in range(Gk.n)}
    verts = [ids[c] for c in cells]
    pair = independent_in_power(G, k, cells)
    assert (pair is None) == is_independent_set(Gk, verts)
    assert pair == _first_pair(
        verts, lambda u, v: u == v or Gk.has_edge(u, v))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 8).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.tuples(*[st.integers(0, p - 1)] * d),
                             max_size=8))))))
def test_on_cycles_the_pair_is_the_first_at_chebyshev_distance_below_two(case):
    p, (d, cells) = case
    assert independent_in_power(cycle(p), d, cells) == _first_pair(
        cells, lambda a, b: toroidal_chebyshev(a, b, p) < 2)


@pytest.mark.parametrize("cells", [
    [(0, 5)], [(0,)], [(0, 1, 2)], [[0, 1]], [(0, 1.0)], [(-1, 0)],
    [("0", 1)]])
def test_a_cell_off_the_power_is_rejected(cells):
    with pytest.raises(GraphError, match="is not a vertex of G\\^2"):
        independent_in_power(cycle(5), 2, [(2, 2)] + cells)


def test_a_power_below_one_is_rejected():
    with pytest.raises(GraphError, match="positive integer"):
        independent_in_power(cycle(5), 0, [])


def _house():
    return from_edges(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)])


@pytest.mark.parametrize("method", ["placement", "heuristic", "exact"])
def test_verify_report_checks_the_witness_on_the_report_graph(method):
    # (0, 0) ~ (0, 2) in house^2 through the chord 0-2, although the two
    # cells are at distance 2 on the 5-cycle the house graph contains
    rep = compute_bounds(_house(), max_power=1, cfg=CFG, graph_desc="house")
    cells = ((0, 0), (0, 2), (2, 0), (2, 2))
    bad = replace(rep, lower=LowerBound(2.0, 2, cells, False, method))
    with pytest.raises(ReportError, match=r"pair \(0, 1\) adjacent"):
        verify_report(bad)


@pytest.mark.parametrize("method", ["heuristic", "placement"])
def test_verify_report_checks_a_power_too_large_to_build(method):
    k = 6
    assert 7 ** k > DEFAULT_VERTEX_LIMIT
    cells = tuple(product((0, 2, 4), repeat=k))
    rep = compute_bounds(cycle(7), max_power=2, cfg=CFG, graph_desc="cycle:7")
    big = replace(rep, lower=LowerBound(len(cells) ** (1.0 / k), k, cells,
                                        False, method))
    assert math.isclose(big.lower.value, 3)
    assert verify_report(big)
    clash = replace(big, lower=replace(big.lower,
                                       witness=cells[:-1] + ((1,) * k,)))
    with pytest.raises(ReportError, match=r"pair \(0, 728\) adjacent"):
        verify_report(clash)


def _with_row(rep, index, **changes):
    table = list(rep.table)
    table[index] = replace(table[index], **changes)
    return replace(rep, table=tuple(table))


def test_verify_report_checks_every_table_row():
    rep = compute_bounds(cycle(5), max_power=2, cfg=CFG, graph_desc="cycle:5")
    assert verify_report(rep)
    row = rep.table[1]
    more = row.alpha_best + 1
    with pytest.raises(ReportError, match="row k=2 .* size or root"):
        verify_report(_with_row(rep, 1, alpha_best=more,
                                root=more ** (1.0 / row.k)))
    with pytest.raises(ReportError, match="row k=2 .* size or root"):
        verify_report(_with_row(rep, 1, root=row.root + 1e-9))
    with pytest.raises(ReportError, match=r"row k=2 witness pair \(0, \d+\)"):
        verify_report(_with_row(rep, 1, witness=row.witness[:-1] + ((0, 1),)))
    with pytest.raises(ReportError, match="row k=1 witness cell"):
        verify_report(_with_row(rep, 0, witness=((0, 0),)))


@pytest.mark.parametrize("cells", [([0, 1],), ((0, 1.5),), ((0,),)])
def test_a_placement_holds_only_integer_coordinate_tuples(cells):
    # so verify_placement always gets cells of C_p^d and returns (ok, pair)
    with pytest.raises(PlacementError):
        Placement(Board(5, 2), cells)


def test_verify_report_reads_cells_by_the_labels_of_a_labelled_graph():
    # strong_product labels its vertices (a, b), so at k = 1 a witness cell
    # is a pair of labels, and at k = 2 four of them
    G = strong_product(cycle(5), cycle(5))
    rep = compute_bounds(G, max_power=1, cfg=CFG, graph_desc="C5xC5")
    assert all(len(cell) == 2 for cell in rep.lower.witness)
    assert verify_report(rep)
    cells = ((0, 0, 0, 0), (0, 0, 2, 2))
    assert verify_report(replace(rep, lower=LowerBound(
        math.sqrt(2), 2, cells, False, "heuristic"), table=()))
    bad = replace(rep, lower=LowerBound(
        math.sqrt(2), 2, ((0, 0, 0, 0), (0, 1, 1, 1)), False, "heuristic"))
    with pytest.raises(ReportError, match=r"pair \(0, 1\) adjacent"):
        verify_report(bad)
    odd = replace(rep, lower=replace(rep.lower, witness=((0,),)))
    with pytest.raises(ReportError, match=r"cell \(0,\) is not a vertex"):
        verify_report(odd)


def _permuted_path():
    # vertex 1 is labelled (2,) and vertex 2 is labelled (1,)
    return from_edges(3, [(0, 1), (1, 2)], labels=((0,), (2,), (1,)))


def test_a_witness_names_vertices_by_label_not_by_id():
    rep = compute_bounds(_permuted_path(), max_power=2, cfg=CFG,
                         graph_desc="path")
    assert rep.lower.witness == ((0,), (1,))  # the ends: vertices 0 and 2
    assert verify_report(rep)
    for method in ("heuristic", "placement"):
        # labels (0,) and (2,) are vertices 0 and 1, which are adjacent
        bad = replace(rep, lower=replace(rep.lower, witness=((0,), (2,)),
                                         method=method))
        with pytest.raises(ReportError, match=r"pair \(0, 1\) adjacent"):
            verify_report(bad)
    unknown = replace(rep, lower=replace(rep.lower, witness=((0,), (3,))))
    with pytest.raises(ReportError, match=r"cell \(3,\) is not a vertex"):
        verify_report(unknown)


def test_an_ambiguous_cell_is_rejected():
    # (0,) + (0, 0) and (0, 0) + (0,) both spell (0, 0, 0)
    G = from_edges(2, [], labels=((0,), (0, 0)))
    rep = compute_bounds(G, max_power=1, cfg=CFG, graph_desc="E2")
    assert verify_report(rep)
    two = replace(rep, lower=LowerBound(1.0, 2, ((0, 0, 0),), False, "x"),
                  table=())
    with pytest.raises(ReportError, match="is not a vertex of G\\^2"):
        verify_report(two)


def test_labels_that_concatenate_ambiguously_stop_the_report():
    G = from_edges(2, [], labels=((0,), (0, 0)))
    with pytest.raises(GraphError, match="both read \\(0, 0, 0\\)"):
        compute_bounds(G, max_power=2, cfg=CFG)


def test_an_imported_placement_is_named_by_the_graph_labels():
    labels = tuple((v * 3 % 5,) for v in range(5))  # C5 with relabelled cells
    G = Graph(5, cycle(5).adj, labels)
    rep = compute_bounds(G, max_power=1, cfg=CFG, graph_desc="C5")
    cells = ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))
    out = combine_external_certificate(rep, Placement(Board(5, 2), cells))
    assert out.lower.method == "placement"
    assert out.lower.witness == tuple(labels[a] + labels[b] for a, b in cells)
    assert verify_report(out)


@settings(max_examples=200, deadline=None)
@given(graph_power_cells(max_n=5, max_k=2), st.randoms(use_true_random=False),
       st.booleans())
def test_a_labelled_witness_is_checked_on_the_vertices_it_names(case, rng,
                                                                pairs):
    G, k, cells = case
    ids = list(range(G.n))
    rng.shuffle(ids)
    labels = tuple(divmod(i, 2) if pairs else (i,) for i in ids)
    L = Graph(G.n, G.adj, labels)
    Lk = strong_power(L, k)
    witness = tuple(Lk.label_of(sum(c * G.n ** (k - 1 - t)
                                    for t, c in enumerate(cell)))
                    for cell in cells)
    assert witness == tuple(sum((labels[c] for c in cell), ()) for cell in cells)
    size = len(witness)
    try:
        _check_witness("w", L, k, witness, size, size ** (1.0 / k))
        ok = True
    except ReportError:
        ok = False
    assert ok == (independent_in_power(G, k, cells) is None)


def _c5_plus_k1():
    return disjoint_union(cycle(5), from_edges(1, []))  # alpha 3, theta 3.236


TEN = ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3), (5, 0), (5, 2), (0, 5), (2, 5),
       (5, 5))


def test_a_packing_imports_on_the_power_of_any_graph():
    rep = compute_bounds(_c5_plus_k1(), max_power=1, cfg=CFG, graph_desc="C5+K1")
    assert rep.lower.value == 3.0
    out = combine_external_certificate(rep, Placement(Board(6, 2), TEN))
    assert out.lower.value == math.sqrt(10)
    assert out.lower.method == "placement"
    assert verify_report(out)


def test_an_imported_packing_is_rejected_at_its_first_clash():
    rep = compute_bounds(_c5_plus_k1(), max_power=1, cfg=CFG, graph_desc="C5+K1")
    clash = TEN[:-1] + ((4, 4),)  # (4, 4) touches (0, 0) across C5's edge 0-4
    with pytest.raises(CertificateRejected, match=r"pair \(0, 9\)"):
        combine_external_certificate(rep, Placement(Board(6, 2), clash))
    with pytest.raises(CertificateRejected, match="graph has 6 vertices"):
        combine_external_certificate(rep, Placement(Board(7, 2), TEN))

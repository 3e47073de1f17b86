"""The orbit-reduced row search: the engine's weighted branch loop, the
group and orbits of G^k, and the rows and reports it produces."""

import logging
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.graphs import (Graph, cycle, from_edges, independent_in_power,
                            path, strong_power)
from shancap.report import (ReportError, _power_group, compute_bounds,
                            report_to_dict, verify_report)
from shancap.solvers import SolverConfig, SolverError, _MISEngine, _run_engine

BENCH = SolverConfig(time_budget=30.0, node_budget=150_000, seed=0)


def _random_graph(data, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if data.draw(st.booleans(), label=f"edge {u}-{v}")]
    return from_edges(n, edges)


def _brute_force(G, weights):
    """Largest total weight of an independent set, over all subsets."""
    best = 0
    for mask in range(1 << G.n):
        if all(not G.adj[v] & mask for v in range(G.n) if mask >> v & 1):
            best = max(best, sum(weights[v] for v in range(G.n)
                                 if mask >> v & 1))
    return best


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_weighted_search_matches_brute_force(data):
    n = data.draw(st.integers(1, 10), label="n")
    G = _random_graph(data, n)
    weights = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n),
                        label="weights")
    best = _brute_force(G, weights)
    verts, proven, upper, _ = _run_engine(G, SolverConfig(), weights=weights)
    assert proven and upper == best
    assert sum(weights[v] for v in verts) == best
    assert not independent_in_power(G, 1, [(v,) for v in verts])
    # a binding budget leaves a valid set and a bound that still holds
    budget = data.draw(st.integers(1, 4), label="node budget")
    verts, proven, upper, nodes = _run_engine(
        G, SolverConfig(node_budget=budget), weights=weights)
    found = sum(weights[v] for v in verts)
    assert nodes <= budget
    assert found <= best <= upper
    assert not proven or found == upper


class _Forgetful(dict):
    """A table of solved subtrees that never replays one."""

    def get(self, key, default=None):
        return default


def _without_replay(G, cfg, **kwargs):
    init = _MISEngine.__init__

    def forgetful_init(eng, *args, **kw):
        init(eng, *args, **kw)
        eng.solved = _Forgetful()

    with mock.patch.object(_MISEngine, "__init__", forgetful_init):
        return _run_engine(G, cfg, **kwargs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weighted_replay_is_the_search_without_it(data):
    n = data.draw(st.integers(8, 24), label="n")
    G = _random_graph(data, n)
    weights = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n),
                        label="weights")
    cfg = SolverConfig(node_budget=data.draw(st.integers(1, 300),
                                             label="node budget"))
    assert (_run_engine(G, cfg, weights=weights)
            == _without_replay(G, cfg, weights=weights))


@pytest.mark.parametrize("G,cfg", [
    (strong_power(cycle(7), 2), SolverConfig()),
    (strong_power(cycle(5), 3), SolverConfig(node_budget=5000)),
])
def test_unit_weights_search_node_for_node_as_the_plain_loop(G, cfg):
    assert _run_engine(G, cfg, weights=[1] * G.n) == _run_engine(G, cfg)


def test_weighted_search_logs_one_debug_line(caplog):
    caplog.set_level(logging.DEBUG, logger="shancap.solvers")
    _run_engine(cycle(5), SolverConfig(), weights=[1, 2, 3, 4, 5])
    lines = [r.getMessage() for r in caplog.records
             if r.name == "shancap.solvers"]
    assert len(lines) == 1
    assert lines[0].startswith("MIS search: n=5 ")
    assert lines[0].endswith("stop=proven")


def test_weighted_search_reads_the_cap_in_weight_units():
    # C5 weighted 1..5: the best set is {2, 4} of weight 8
    assert _run_engine(cycle(5), SolverConfig(), weights=[1, 2, 3, 4, 5],
                       cap=8)[:3] == ((2, 4), True, 8)


@pytest.mark.parametrize("weights,match", [
    ([1, 1, 1, 1], "5 positive ints"),
    ([1, 1, 0, 1, 1], "5 positive ints"),
    ([1, 1, 1.5, 1, 1], "5 positive ints"),
])
def test_bad_weights_are_rejected(weights, match):
    with pytest.raises(SolverError, match=match):
        _run_engine(cycle(5), SolverConfig(), weights=weights)


def test_weights_and_orbital_branching_are_rejected_together():
    with pytest.raises(SolverError, match="unit weights"):
        _run_engine(cycle(5), SolverConfig(), weights=[1] * 5,
                    orbit_fn=lambda v: 1 << v)


# -- the group of G^k ---------------------------------------------------------


def test_the_group_of_an_odd_cycle_cube_is_shift_and_negation():
    gens, name = _power_group(cycle(7), 3)
    assert name == "<shift, negation> of order 6"
    shift, negate = gens
    assert shift((0, 1, 2)) == (1, 2, 0)
    assert negate((0, 1, 2)) == (0, 6, 5)


def test_negation_joins_only_when_it_is_an_automorphism():
    # on the path 0-1-2-3, v -> -v mod 4 sends the edge 0-1 to 0-3
    gens, name = _power_group(path(4), 2)
    assert len(gens) == 1 and name == "<shift> of order 2"
    assert _power_group(path(4), 1)[0] == []
    # on two vertices -v mod 2 is the identity, which adds nothing
    assert _power_group(path(2), 1)[0] == []
    assert _power_group(cycle(5), 1)[1] == "<negation> of order 2"


# -- rows and reports ---------------------------------------------------------


def test_the_cube_of_c7_reaches_33_under_the_benchmark_budget():
    rep = compute_bounds(cycle(7), max_power=3, cfg=BENCH, graph_desc="C7")
    row = rep.table[2]
    assert (row.k, row.alpha_best, row.exact) == (3, 33, False)
    assert len(row.witness) == 33 and row.root == 33 ** (1 / 3)
    assert row.method == "invariant under <shift, negation> of order 6"
    assert rep.lower.witness == row.witness
    assert (rep.lower.power, rep.lower.proven) == (3, False)
    assert rep.lower.method == row.method
    assert ("alpha(G^3) >= 33 (invariant under <shift, negation> of order 6)"
            in rep.provenance)
    assert verify_report(rep)
    # the witness is a union of orbits: closed under both generators
    cells = set(row.witness)
    assert {c[1:] + c[:1] for c in cells} == cells
    assert {tuple(-x % 7 for x in c) for c in cells} == cells
    # the table's JSON schema is unchanged
    assert all(set(r) == {"k", "alpha", "root", "exact"}
               for r in report_to_dict(rep)["table"])


def test_the_invariant_row_is_read_through_the_graph_labels():
    # orbits are taken on vertex ids; labels only name the witness cells
    G = cycle(7)
    labelled = Graph(7, G.adj, tuple((f"v{v}",) for v in range(7)))
    rep = compute_bounds(labelled, max_power=3, cfg=BENCH)
    assert rep.table[2].alpha_best == 33
    assert rep.table[2].witness[0] == ("v0", "v0", "v0")
    assert verify_report(rep)


def test_verify_report_rejects_an_invariant_witness_with_a_cell_moved():
    rep = compute_bounds(cycle(7), max_power=3, cfg=BENCH)
    cells = list(rep.lower.witness)
    # cells[0] moves next to cells[1], one step along the first coordinate
    cells[0] = ((cells[1][0] + 1) % 7,) + cells[1][1:]
    assert cells[0] not in rep.lower.witness
    bad = replace(rep, lower=replace(rep.lower, witness=tuple(cells)))
    with pytest.raises(ReportError, match="lower witness pair"):
        verify_report(bad)


def test_a_proven_row_runs_no_invariant_search():
    with mock.patch("shancap.report._invariant_set") as search:
        rep = compute_bounds(cycle(7), max_power=2, cfg=BENCH)
    search.assert_not_called()
    assert [r.method for r in rep.table] == ["exact", "exact"]


def test_a_smaller_invariant_set_leaves_the_generic_row():
    # C5^3: the generic search's 10 beats the best invariant set
    rep = compute_bounds(cycle(5), max_power=3, cfg=BENCH)
    row = rep.table[2]
    assert (row.alpha_best, row.method) == (10, "heuristic")


def test_the_invariant_search_runs_under_the_node_budget():
    tiny = SolverConfig(node_budget=3, seed=0)
    nodes = []
    run = _run_engine

    def counted(*args, **kwargs):
        out = run(*args, **kwargs)
        nodes.append(out[3])
        return out

    with mock.patch("shancap.report._run_engine", counted):
        rep = compute_bounds(cycle(7), max_power=3, cfg=tiny)
    assert nodes == [3, 3]  # rows k = 2 and 3 are unproven
    assert [r.method for r in rep.table] == ["exact", "heuristic", "heuristic"]
    assert verify_report(rep)

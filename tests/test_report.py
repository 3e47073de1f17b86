import json
import math
import random
from dataclasses import replace
from unittest import mock

import pytest

from shancap import report, theta
from shancap.graphs import complete, cycle, from_edges
from shancap.haemers import adjacency_certificate, fitting_matrix
from shancap.kings import Board, Placement, exact_max_kings, layered_construction
from shancap.report import (CertificateRejected, ReportError,
                            combine_external_certificate,
                            compute_bounds, lockin_scan, render_lockin,
                            render_report, report_to_dict, report_to_json,
                            verify_report)
from shancap.solvers import SolverConfig
from shancap.theta import ThetaError
from shancap.umbrella import VectorUmbrella, odd_cycle_umbrella

import numpy as np

CFG = SolverConfig(time_budget=120.0, seed=0)


def closed_form(n):
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def test_bounds_heptagon_interval():
    rep = compute_bounds(cycle(7), max_power=2, cfg=CFG, graph_desc="cycle:7")
    assert rep.lower.value == math.sqrt(10)
    assert rep.lower.proven and rep.lower.power == 2
    assert abs(rep.upper.value - closed_form(7)) < 1e-5
    assert f"{rep.lower.value:.7g}".startswith("3.162278")
    assert f"{rep.upper.value:.6f}".startswith("3.31767")
    verify_report(rep)


def test_bounds_pentagon_capacity_determined():
    rep = compute_bounds(cycle(5), max_power=2, cfg=CFG, graph_desc="cycle:5")
    root5 = math.sqrt(5)
    assert abs(rep.lower.value - root5) < 1e-7
    assert abs(rep.upper.value - root5) < 1e-6
    assert rep.upper.value - rep.lower.value < 1e-6
    verify_report(rep)


def test_bounds_c4_tight():
    rep = compute_bounds(cycle(4), max_power=2, cfg=CFG, graph_desc="cycle:4")
    assert rep.lower.value == 2.0
    assert abs(rep.upper.value - 2.0) < 1e-6
    verify_report(rep)


def test_lower_monotone_in_max_power():
    r1 = compute_bounds(cycle(7), max_power=1, cfg=CFG)
    r2 = compute_bounds(cycle(7), max_power=2, cfg=CFG)
    assert r2.lower.value >= r1.lower.value


def test_report_json_deterministic():
    a = report_to_json(compute_bounds(cycle(7), max_power=2, cfg=CFG,
                                      graph_desc="cycle:7"))
    b = report_to_json(compute_bounds(cycle(7), max_power=2, cfg=CFG,
                                      graph_desc="cycle:7"))
    assert a == b
    doc = json.loads(a)
    assert doc["lower"]["witness_size"] == 10
    assert doc["upper"]["source"] == "theta"
    assert doc["seed"] == 0


def test_budget_degradation_is_flagged_not_silent():
    tight = SolverConfig(node_budget=64, seed=0)
    rep = compute_bounds(cycle(7), max_power=2, cfg=tight, graph_desc="cycle:7")
    assert any(not r.exact for r in rep.table)
    verify_report(rep)  # witnesses still valid, just not proven optimal


def test_lockin_scan_pentagon_and_heptagon():
    t5 = lockin_scan(cycle(5), p_max=2, cfg=CFG, graph_desc="cycle:5")
    assert t5.locked_at == 2
    assert t5.rows[1].meets_upper
    t7 = lockin_scan(cycle(7), p_max=2, cfg=CFG, graph_desc="cycle:7")
    assert t7.locked_at is None
    assert "gap" in render_lockin(t7)
    t4 = lockin_scan(cycle(4), p_max=2, cfg=CFG, graph_desc="cycle:4")
    assert t4.locked_at == 1


def test_import_umbrella_tightens_upper():
    rep = compute_bounds(cycle(7), max_power=1, cfg=CFG, graph_desc="cycle:7")
    out = combine_external_certificate(rep, odd_cycle_umbrella(7))
    assert out.upper.value <= 3.3176699
    assert out.upper.value >= 3.31766


def test_import_placement_raises_lower():
    rep = compute_bounds(cycle(7), max_power=1, cfg=CFG, graph_desc="cycle:7")
    assert rep.lower.value == 3.0
    base = exact_max_kings(Board(7, 2), CFG).placement
    stacked = layered_construction(base, (0, 2, 4))
    out = combine_external_certificate(rep, stacked)
    assert abs(out.lower.value - 30 ** (1 / 3)) < 1e-12
    assert abs(out.lower.value - 3.1072325) < 1e-6
    verify_report(out)
    # but it does not beat the 2-power bound sqrt(10)
    rep2 = compute_bounds(cycle(7), max_power=2, cfg=CFG, graph_desc="cycle:7")
    out2 = combine_external_certificate(rep2, stacked)
    assert out2.lower.value == math.sqrt(10)


def test_import_invalid_placement_rejected():
    rep = compute_bounds(cycle(7), max_power=1, cfg=CFG, graph_desc="cycle:7")
    bad = Placement(Board(7, 2), ((0, 0), (0, 1)))
    with pytest.raises(CertificateRejected):
        combine_external_certificate(rep, bad)
    # wrong base graph rejected too
    five = Placement(Board(5, 2), ((0, 0), (2, 2)))
    with pytest.raises(CertificateRejected):
        combine_external_certificate(rep, five)


def test_import_invalid_umbrella_rejected():
    rep = compute_bounds(cycle(5), max_power=1, cfg=CFG, graph_desc="cycle:5")
    u = odd_cycle_umbrella(5)
    states = u.states.copy()
    states[0] = states[1]
    with pytest.raises(CertificateRejected):
        combine_external_certificate(rep, VectorUmbrella(3, u.handle, states))


def test_import_fitting_matrix():
    G = from_edges(3, [(0, 1), (1, 2), (0, 2)])  # triangle
    rep = compute_bounds(G, max_power=1, cfg=CFG, graph_desc="K3")
    B = fitting_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    out = combine_external_certificate(rep, B)
    assert out.upper.value == 1.0
    bad = fitting_matrix([[0, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(CertificateRejected):
        combine_external_certificate(rep, bad)


def test_render_text():
    rep = compute_bounds(cycle(7), max_power=2, cfg=CFG, graph_desc="cycle:7")
    text = render_report(rep)
    assert "3.162278" in text and "3.317667" in text
    assert "10^(1/2)" in text


def test_report_dict_schema():
    rep = compute_bounds(cycle(5), max_power=2, cfg=CFG, graph_desc="cycle:5")
    doc = report_to_dict(rep)
    for key in ("graph", "lower", "upper", "table", "provenance", "seed",
                "budget"):
        assert key in doc
    assert doc["lower"]["witness"]
    assert all(len(cell) == doc["lower"]["power"]
               for cell in doc["lower"]["witness"])


def test_lockin_skips_powers_over_the_vertex_limit():
    t = lockin_scan(cycle(7), p_max=2, cfg=CFG, vertex_limit=10)
    assert [r.k for r in t.rows] == [1]
    assert t.locked_at is None


def test_lockin_reports_the_bounds_upper_value():
    t = lockin_scan(cycle(7), p_max=2, cfg=CFG)
    rep = compute_bounds(cycle(7), max_power=2, cfg=CFG)
    assert t.upper == rep.upper.value
    assert [(r.k, r.alpha_best, r.root, r.exact) for r in t.rows] == \
        [(r.k, r.alpha_best, r.root, r.exact) for r in rep.table]


def test_sigma_is_not_an_upper_candidate():
    rep = compute_bounds(cycle(7), max_power=1, cfg=CFG)
    assert not any("sigma" in line for line in rep.provenance)


def test_closed_interval_keeps_theta_unrounded():
    # Petersen graph: theta = alpha = 4, and theta (not rho = 5) is the source
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    rep = compute_bounds(from_edges(10, outer + spokes + inner), max_power=1,
                         cfg=CFG, graph_desc="petersen")
    assert rep.upper.source == "theta"
    assert rep.lower.value == 4
    assert rep.upper.value - rep.lower.value < 1e-6


def test_verify_report_rejects_a_witness_cell_off_the_power():
    rep = compute_bounds(cycle(5), max_power=2, cfg=CFG, graph_desc="cycle:5")
    bad = replace(rep, lower=replace(
        rep.lower, witness=rep.lower.witness[:-1] + ((0, 9),)))
    with pytest.raises(ReportError, match=r"\(0, 9\) is not a vertex"):
        verify_report(bad)


def test_heptagon_cube_row_under_the_benchmark_budget():
    # within 150k nodes the search improves on neither seed of C7^3: the
    # greedy set has 27 vertices and the local search's ten runs find 30
    cfg = SolverConfig(time_budget=30, node_budget=150_000, seed=0)
    row = compute_bounds(cycle(7), 3, cfg).table[2]
    assert row.k == 3 and row.alpha_best == len(row.witness) >= 30


def test_theta_refuses_before_any_power_is_searched():
    # 3,003 edges: a Schur matrix of order 3,004, over theta's limit
    with mock.patch.object(report, "max_independent_set") as search:
        with pytest.raises(ThetaError, match="m = 3003 edges"):
            compute_bounds(complete(78), max_power=1, cfg=CFG)
    search.assert_not_called()


def _gnp(n, seed):
    rng = random.Random(seed)
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)
                          if (j - i) % q in squares])


def _petersen():
    return from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


GAP_CASES = [
    *((f"cycle:{n}", cycle(n), 2) for n in range(5, 12)),
    ("paley:17", _paley(17), 1),
    ("G(20,1/2) #3", _gnp(20, "G(20,1/2) #3"), 1),
    ("G(24,1/2) #3", _gnp(24, "G(24,1/2) #3"), 1),
    ("petersen", _petersen(), 1),
]


@pytest.mark.parametrize("desc, G, k", GAP_CASES,
                         ids=[desc for desc, _, _ in GAP_CASES])
def test_a_tighter_theta_gap_prints_the_same_report(desc, G, k, monkeypatch):
    cfg = SolverConfig(node_budget=20_000, seed=0)
    text = render_report(compute_bounds(G, k, cfg, desc))
    monkeypatch.setattr(theta, "GAP_STOP", 1e-12)
    assert render_report(compute_bounds(G, k, cfg, desc)) == text

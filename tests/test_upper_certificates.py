"""One upper-bound path: theta in the report, certified umbrella values,
and the re-check of every upper certificate in verify_report."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.cli import run
from shancap.fractional import rosenfeld_number
from shancap.graphs import (cycle, empty, from_edges, strong_power,
                            strong_product)
from shancap.haemers import fitting_matrix
from shancap.report import (CertificateRejected, ReportError, _check_order,
                            combine_external_certificate, compute_bounds,
                            verify_report)
from shancap.solvers import SolverConfig
from shancap.theta import ThetaBracket, lovasz_theta
from shancap.umbrella import (DensityUmbrella, VectorUmbrella,
                              odd_cycle_umbrella, purify_umbrella,
                              tensor_umbrella, umbrella_to_json,
                              umbrella_value, verify_umbrella)

CFG = SolverConfig(time_budget=120.0, seed=0)


def closed_form(n):
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def near_orthogonal_umbrella(n=200, a=9e-10):
    """States with pairwise products a, all inside the 1e-9 screen."""
    states = np.linalg.cholesky((1 - a) * np.eye(n) + a * np.ones((n, n)))
    handle = states.sum(axis=0)
    return VectorUmbrella(n, handle / np.linalg.norm(handle), states)


def mixed_pentagon_umbrella():
    """0.4 u_i u_i^T + 0.6 e_i e_i^T: the C5 states mixed with fresh
    directions e_i orthogonal to the handle; value 5.59 by tr(C A_i)."""
    u = odd_cycle_umbrella(5)
    dim = 8
    states = []
    for i, s in enumerate(u.states):
        v = np.zeros(dim)
        v[:3] = s
        e = np.zeros(dim)
        e[3 + i] = 1.0
        states.append(0.4 * np.outer(v, v) + 0.6 * np.outer(e, e))
    c = np.zeros(dim)
    c[:3] = u.handle
    return DensityUmbrella(dim, np.outer(c, c), np.stack(states))


def test_near_orthogonal_umbrella_certifies_no_less_than_alpha():
    u = near_orthogonal_umbrella()
    rep = verify_umbrella(u, empty(200))
    assert rep.valid  # the tolerances let it through ...
    assert umbrella_value(u) < 200  # ... with a nominal value below alpha
    assert rep.value >= 200  # but the certified value is sound


def test_certified_values_of_cycle_umbrellas():
    for n in (5, 7, 9, 11):
        rep = verify_umbrella(odd_cycle_umbrella(n), cycle(n))
        assert rep.value >= umbrella_value(odd_cycle_umbrella(n))
        assert abs(rep.value - closed_form(n)) < 1e-9
    u5 = odd_cycle_umbrella(5)
    u125 = tensor_umbrella(tensor_umbrella(u5, u5), u5)
    rep = verify_umbrella(u125, strong_power(cycle(5), 3))
    assert abs(rep.value - 5 ** 1.5) < 1e-9


def test_invalid_umbrella_has_no_certified_value():
    rep = verify_umbrella(odd_cycle_umbrella(5), cycle(7))
    assert not rep.valid and rep.value == math.inf


def test_density_value_uses_the_weighted_gram():
    # tr(A_i^2 C) = 0.16 (c.u_i)^2 < tr(A_i C): the certified value is the
    # pure umbrella's sqrt(5), not tr C / min tr(C A_i) = 5.59
    u = mixed_pentagon_umbrella()
    rep = verify_umbrella(u, cycle(5))
    assert rep.valid
    assert abs(umbrella_value(u) - math.sqrt(5) / 0.4) < 1e-9
    assert abs(rep.value - math.sqrt(5)) < 1e-9


def test_purify_keeps_a_valid_umbrella_valid():
    res = purify_umbrella(mixed_pentagon_umbrella())
    assert verify_umbrella(res.umbrella, cycle(5)).valid
    assert abs(res.value_before - math.sqrt(5) / 0.4) < 1e-9
    assert abs(res.value_after - math.sqrt(5)) < 1e-9


def _density(entries, dim):
    V = np.array(entries, dtype=float).reshape(dim, -1)
    A = V @ V.T
    return A / np.trace(A) if np.trace(A) > 0 else np.eye(dim) / dim


@st.composite
def density_umbrellas(draw):
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    grid = st.integers(-2, 2).map(float)
    B = np.array(draw(st.lists(grid, min_size=dim * dim, max_size=dim * dim)))
    C = B.reshape(dim, dim) @ B.reshape(dim, dim).T + np.eye(dim)
    states = []
    for _ in range(n):
        rank = draw(st.integers(1, dim))
        entries = draw(st.lists(grid, min_size=dim * rank, max_size=dim * rank))
        states.append(_density(entries, dim))
    return DensityUmbrella(dim, C / np.trace(C), np.stack(states))


@settings(max_examples=60, deadline=None)
@given(density_umbrellas())
def test_purification_never_raises_the_value(u):
    res = purify_umbrella(u)
    assert res.value_after <= res.value_before * (1 + 1e-9)


def test_bounds_has_no_rho_candidate():
    rep = compute_bounds(cycle(7), max_power=2, cfg=CFG, graph_desc="cycle:7")
    assert not any("rho" in line for line in rep.provenance)
    assert isinstance(rep.upper.certificate, ThetaBracket)
    assert rep.upper.source == "theta"


def test_verify_report_rechecks_the_theta_certificate():
    rep = compute_bounds(cycle(7), max_power=2, cfg=CFG)
    hi = rep.upper.certificate.hi
    verify_report(replace(rep, upper=replace(rep.upper, value=hi)))
    with pytest.raises(ReportError):
        verify_report(replace(rep, upper=replace(rep.upper, value=hi - 1e-9)))


def test_verify_report_has_no_order_margin():
    rep = compute_bounds(cycle(7), max_power=2, cfg=CFG)
    below = replace(rep, upper=replace(rep.upper, value=rep.lower.value - 1e-12))
    with pytest.raises(ReportError):
        verify_report(below)
    with pytest.raises(ReportError):
        _check_order(below)
    # float sqrt(10) squares to just above 10: the exact test accepts it
    _check_order(replace(rep, upper=replace(rep.upper, value=math.sqrt(10))))


def test_imported_umbrella_reports_its_certified_value():
    rep = compute_bounds(cycle(5), max_power=1, cfg=CFG)
    u = mixed_pentagon_umbrella()
    out = combine_external_certificate(rep, u)
    assert out.upper.source == "umbrella"
    assert out.upper.value == verify_umbrella(u, cycle(5)).value
    verify_report(out)
    with pytest.raises(ReportError):  # the certificate does not prove less
        verify_report(replace(out, upper=replace(out.upper, value=2.236)))


def test_imported_fitting_matrix_is_rechecked():
    K3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    rep = compute_bounds(K3, max_power=1, cfg=CFG)
    out = combine_external_certificate(rep, fitting_matrix([[1] * 3] * 3))
    assert (out.upper.source, out.upper.value) == ("haemers", 1.0)
    verify_report(out)
    with pytest.raises(CertificateRejected):
        combine_external_certificate(rep, rep.table)


def test_umbrella_verify_cli_prints_the_certified_value(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(umbrella_to_json(mixed_pentagon_umbrella()))
    assert run(["umbrella", "verify", str(path), "--graph", "cycle:5",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value"] - math.sqrt(5)) < 1e-9
    assert run(["umbrella", "verify", str(path), "--graph", "cycle:5"]) == 0
    assert "value 2.236067977" in capsys.readouterr().out


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_every_small_report_verifies(G):
    rep = compute_bounds(G, max_power=2, cfg=CFG)
    assert verify_report(rep)
    bracket = rep.upper.certificate
    alpha = rep.table[0].alpha_best
    assert rep.table[0].exact
    assert alpha <= bracket.hi
    rho, _ = rosenfeld_number(G)
    assert bracket.lo <= rho


def theta_umbrella(bracket):
    """The umbrella of theta's dual certificate M with bound hi: rows v_i
    of V with V V^T = hi*I - M, states (1, v_i)/sqrt(hi), handle e_0."""
    hi, M = bracket.hi, bracket.dual_certificate
    w, Q = np.linalg.eigh(hi * np.eye(len(M)) - M)
    V = Q * np.sqrt(np.clip(w, 0.0, None))
    states = np.hstack([np.ones((len(M), 1)), V]) / math.sqrt(hi)
    handle = np.zeros(len(M) + 1)
    handle[0] = 1.0
    return VectorUmbrella(len(M) + 1, handle, states)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=9))
def test_theta_dual_certificate_is_an_umbrella(G):
    bracket = lovasz_theta(G)
    hi = bracket.hi
    u = theta_umbrella(bracket)
    check = verify_umbrella(u, G)
    assert check.valid, check.violations
    assert abs(check.value - hi) <= 1e-9 * hi
    if G.n <= 6:
        square = verify_umbrella(tensor_umbrella(u, u), strong_product(G, G))
        assert square.valid, square.violations
        assert abs(square.value - hi * hi) <= 1e-9 * hi * hi

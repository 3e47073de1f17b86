"""The screened θ loop certifies only iterates that can still win, yet
returns the bracket a check of every iterate gives: the same lo, hi,
certificate matrices, iterations and converged flag, bit for bit."""

import logging
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap import theta
from shancap.graphs import cycle, from_edges
from shancap.theta import (GAP_STOP, POOL, STALL, _dual_matrix, _dual_screen,
                           _primal_screen, _step, lovasz_theta)
from shancap.umbrella import (verify_dual_certificate,
                              verify_primal_certificate)


def gnp(n, seed):
    rng = random.Random(seed)
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)
                          if (j - i) % q in squares])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


def _edge_arrays(G):
    return np.array(G.edges(), dtype=np.intp).reshape(-1, 2).T


def _iterates(G, max_iterations=100):
    """Every (X, M) the interior-point loop visits, stopping as
    ``lovasz_theta`` does without a time budget."""
    n, m = G.n, G.num_edges
    iu, iv = _edge_arrays(G)
    b = np.zeros(m + 1)
    b[0] = 1.0
    X = np.eye(n) / n
    y = np.zeros(m + 1)
    y[0] = n + 1.0
    best_gap, stalled, it = math.inf, 0, 0
    while True:
        M = _dual_matrix(y, n, iu, iv)
        yield X, M
        S = y[0] * np.eye(n) - M
        gap = float(np.vdot(X, S))
        if gap < best_gap / 2.0:
            best_gap, stalled = gap, 0
        else:
            stalled += 1
        if gap <= GAP_STOP * y[0] or stalled >= STALL or it >= max_iterations:
            return
        try:
            dX, ap, dy, ad = _step(X, S, b, iu, iv)
        except np.linalg.LinAlgError:
            return
        X = X + ap * dX
        y = y + ad * dy
        it += 1


def _reference(G, tol=1e-6, max_iterations=100):
    """Verify every iterate; keep the first of the best on each side."""
    best_lo, best_hi, count = -math.inf, math.inf, 0
    for X, M in _iterates(G, max_iterations):
        lo, P = verify_primal_certificate(X, G, tol=1.0)
        if lo > best_lo:
            best_lo, best_primal = lo, P
        hi = verify_dual_certificate(M, G)
        if hi < best_hi:
            best_hi, best_dual = hi, M
        count += 1
    return theta.ThetaBracket(best_lo, best_hi, best_primal, best_dual,
                              best_hi - best_lo <= tol, count - 1)


def _assert_identical(got, want):
    assert got.lo.hex() == want.lo.hex() and got.hi.hex() == want.hi.hex()
    for a, b in ((got.primal_certificate, want.primal_certificate),
                 (got.dual_certificate, want.dual_certificate)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged


FIXED = [cycle(5), cycle(7), paley(13), gnp(24, "G(24,1/2) #3")]


@pytest.mark.parametrize("G", FIXED, ids=repr)
@pytest.mark.parametrize("max_iterations", [0, 1, 3, 9, 100])
def test_fixed_graphs_match_the_reference(G, max_iterations):
    _assert_identical(lovasz_theta(G, max_iterations=max_iterations),
                      _reference(G, max_iterations=max_iterations))


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.sampled_from([2, 6, 100]),
       st.sampled_from([1e-6, 1e-12]))
def test_small_graphs_match_the_reference(G, max_iterations, tol):
    _assert_identical(
        lovasz_theta(G, tol=tol, max_iterations=max_iterations),
        _reference(G, tol=tol, max_iterations=max_iterations))


@pytest.mark.parametrize("budget", [1e-9, 0.01])
def test_time_budget_stop_matches_the_reference(budget):
    # a budget stop after k iterations visits the iterates of a
    # max_iterations=k run
    G = FIXED[-1]
    got = lovasz_theta(G, time_budget=budget)
    _assert_identical(got, _reference(G, max_iterations=got.iterations))
    if budget < 1e-6:
        assert got.iterations == 0


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_screens_bound_every_certified_value(G):
    iu, iv = _edge_arrays(G)
    for X, M in _iterates(G):
        assert verify_dual_certificate(M, G) > _dual_screen(M)
        assert verify_primal_certificate(X, G, tol=1.0)[0] <= \
            _primal_screen(X, iu, iv)


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.integers(0, 2**32 - 1))
def test_screens_bound_off_path_matrices(G, seed):
    # matrices no iterate reaches: negative entries off the edges make
    # T/tr < 1 and a repair shift > 0 likely
    rng = np.random.default_rng(seed)
    n = G.n
    iu, iv = _edge_arrays(G)
    A = rng.uniform(-1.0, 1.0, (n, n)) / n
    X = (A + A.T) / 2.0
    X[iu, iv] = X[iv, iu] = rng.uniform(-0.5, 0.5, len(iu))
    X[np.diag_indices(n)] = 1.0 / n
    try:
        lo = verify_primal_certificate(X, G, tol=1.0)[0]
    except theta.CertificateError:
        lo = -math.inf
    assert lo <= _primal_screen(X, iu, iv)
    M = np.ones((n, n))
    M[iu, iv] = M[iv, iu] = rng.uniform(-2.0 * n, 2.0 * n, len(iu))
    assert verify_dual_certificate(M, G) > _dual_screen(M)


def test_verifiers_run_at_most_once_per_iterate():
    # checking every iterate calls the two verifiers twice per iterate
    G = FIXED[-1]
    with mock.patch.object(theta, "verify_primal_certificate",
                           wraps=theta.verify_primal_certificate) as p, \
            mock.patch.object(theta, "verify_dual_certificate",
                              wraps=theta.verify_dual_certificate) as d:
        b = lovasz_theta(G)
    assert 0 < p.call_count + d.call_count <= b.iterations + 1


def test_pools_hold_at_most_pool_iterates():
    sizes = []
    add = theta._Pool.add

    def spy(self, *args):
        add(self, *args)
        sizes.append(len(self.waiting))

    with mock.patch.object(theta._Pool, "add", spy):
        b = lovasz_theta(FIXED[-1])
    assert len(sizes) == 2 * (b.iterations + 1)
    assert max(sizes) <= POOL


@pytest.mark.parametrize("kwargs, reason", [
    ({}, ("gap", "stall")),
    ({"max_iterations": 2}, ("max iterations",)),
    ({"time_budget": 1e-9}, ("time budget",)),
])
def test_one_debug_line_per_solve(caplog, kwargs, reason):
    caplog.set_level(logging.DEBUG, logger="shancap.theta")
    b = lovasz_theta(cycle(7), **kwargs)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "shancap.theta"]
    assert len(lines) == 1
    line = lines[0]
    assert line.startswith(f"theta: n=7 m=7 iterations={b.iterations} ")
    assert line.rsplit("stop=", 1)[1] in reason
    assert f"lo={b.lo:.12g} hi={b.hi:.12g}" in line


def test_breakdown_is_named_in_the_debug_line(caplog):
    caplog.set_level(logging.DEBUG, logger="shancap.theta")
    with mock.patch.object(theta, "_step",
                           side_effect=np.linalg.LinAlgError("test")):
        b = lovasz_theta(cycle(5))
    assert b.iterations == 0
    assert caplog.records[-1].getMessage().endswith("stop=breakdown")

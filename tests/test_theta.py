import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shancap.graphs import complement, complete, cycle, empty, from_edges
from shancap.solvers import max_independent_set
from shancap.theta import (CertificateError, lovasz_theta,
                           verify_dual_certificate, verify_primal_certificate)


def closed_form(n):
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def test_theta_pentagon():
    b = lovasz_theta(cycle(5), tol=1e-7)
    assert b.converged
    root5 = math.sqrt(5)
    assert abs(b.hi - root5) <= 1e-6
    assert abs(b.lo - root5) <= 1e-6
    assert b.lo <= b.hi


def test_theta_odd_cycle_closed_form():
    for n in (5, 7, 9, 11):
        b = lovasz_theta(cycle(n), tol=1e-7)
        assert abs(b.hi - closed_form(n)) <= 1e-5
        assert abs(b.lo - closed_form(n)) <= 1e-5


def test_theta_complete_and_empty():
    for n in (2, 5, 8):
        b = lovasz_theta(complete(n), tol=1e-7)
        assert abs(b.hi - 1.0) <= 1e-6 and abs(b.lo - 1.0) <= 1e-6
        b = lovasz_theta(empty(n), tol=1e-7)
        assert abs(b.hi - n) <= 1e-6 and abs(b.lo - n) <= 1e-6


def test_theta_even_cycle():
    b = lovasz_theta(cycle(4), tol=1e-7)
    assert abs(b.hi - 2.0) <= 1e-6


def test_certificates_reverify():
    G = cycle(7)
    b = lovasz_theta(G, tol=1e-7)
    lo, _ = verify_primal_certificate(b.primal_certificate, G)
    hi = verify_dual_certificate(b.dual_certificate, G)
    assert abs(lo - b.lo) <= 1e-9
    assert hi <= b.hi + 1e-9


def test_primal_verifier_rejects_bad_matrices():
    G = cycle(5)
    X = np.eye(5) / 5
    X[0, 1] = X[1, 0] = 0.3  # nonzero on an edge
    with pytest.raises(CertificateError):
        verify_primal_certificate(X, G)
    X = np.eye(5)  # trace 5
    with pytest.raises(CertificateError):
        verify_primal_certificate(X, G)
    X = -np.eye(5) / 5
    with pytest.raises(CertificateError):
        verify_primal_certificate(X, G)


def test_dual_verifier_rejects_bad_pattern():
    G = cycle(5)
    M = np.ones((5, 5))
    M[0, 0] = 2.0
    with pytest.raises(CertificateError):
        verify_dual_certificate(M, G)
    M = np.ones((5, 5))
    M[0, 2] = 0.5  # non-edge entry must be 1 (and this breaks symmetry too)
    with pytest.raises(CertificateError):
        verify_dual_certificate(M, G)


def test_dual_bound_sound_for_any_feasible_pattern():
    # every matrix with the required pattern upper-bounds alpha
    rng = random.Random(17)
    G = cycle(7)
    alpha = len(max_independent_set(G).vertices)
    for _ in range(20):
        M = np.ones((7, 7))
        for u, v in G.edges():
            val = rng.uniform(-3, 3)
            M[u, v] = M[v, u] = val
        hi = verify_dual_certificate(M, G)
        assert hi >= alpha - 1e-9


def test_bracket_sound_on_random_graphs():
    rng = random.Random(424242)
    for _ in range(100):
        n = rng.randint(1, 10)
        G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 0.4])
        alpha = len(max_independent_set(G).vertices)
        b = lovasz_theta(G, tol=1e-4, max_iterations=4000)
        assert b.lo <= b.hi
        assert alpha <= b.hi + 1e-6
        # sandwich lower side: theta >= alpha always, so lo can be below
        # alpha but hi never


def test_theta_of_complement_times_theta_at_least_n():
    # classic vertex-transitive identity spot-checked on cycles
    for n in (5, 7):
        a = lovasz_theta(cycle(n), tol=1e-7).hi
        bb = lovasz_theta(complement(cycle(n)), tol=1e-7).hi
        assert a * bb >= n - 1e-4


def test_dual_bound_tight_when_top_eigenvalues_nearly_coincide():
    # eigenvalues 2 and 2.001 on top: no margin beyond rounding may be added
    M = np.eye(4)
    M[0, 1] = M[1, 0] = 1.0
    M[2, 3] = M[3, 2] = 1.001
    hi = verify_dual_certificate(M, complete(4))
    assert 2.001 <= hi < 2.001 + 1e-9


def test_dual_verifier_rejects_nonfinite_and_inexact_pattern():
    G = cycle(5)  # (0,1) is an edge, (0,2) is not
    for bad in (math.inf, -math.inf, math.nan):
        M = np.ones((5, 5))
        M[0, 1] = M[1, 0] = bad
        with pytest.raises(CertificateError):
            verify_dual_certificate(M, G)
    M = np.ones((5, 5))
    M[0, 2] = M[2, 0] = 1.0 + 1e-13
    with pytest.raises(CertificateError):
        verify_dual_certificate(M, G)


def test_primal_verifier_rejects_nonfinite():
    for bad in (math.inf, math.nan):
        X = np.eye(3) / 3
        X[0, 1] = X[1, 0] = bad
        with pytest.raises(CertificateError):
            verify_primal_certificate(X, empty(3))


def _positive_definite_exact(B):
    """Sylvester's criterion in exact rationals: every leading principal
    minor is positive.  Bareiss elimination leaves the k-th leading minor
    as the k-th pivot."""
    A = [row[:] for row in B]
    n = len(A)
    prev = Fraction(1)
    for k in range(n):
        if A[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) / prev
        prev = A[k][k]
    return True


def test_dual_bound_proven_by_exact_rational_check():
    rng = random.Random(20240)
    for _ in range(50):
        n = rng.randint(1, 8)
        G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 0.5])
        M = np.ones((n, n))
        for u, v in G.edges():
            M[u, v] = M[v, u] = rng.uniform(-3, 3)
        t = verify_dual_certificate(M, G)
        assert t - float(np.linalg.eigvalsh(M)[-1]) < 1e-9
        B = [[(Fraction(t) if i == j else 0) - Fraction(float(M[i, j]))
              for j in range(n)] for i in range(n)]
        assert _positive_definite_exact(B)

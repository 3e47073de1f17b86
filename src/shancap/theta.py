"""Certified two-sided brackets for the Lovász number.

theta(G) is the common optimum of the semidefinite pair

    max <J,X>  s.t.  tr X = 1,  X_ij = 0 on every edge ij,  X PSD;
    min t      s.t.  t*I - M(y) PSD,

where M(y) is the all-ones matrix J with a free value on each edge.
``lovasz_theta`` solves the pair with a primal-dual interior-point method:
HKM search directions (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J.
Optim. 1996) with Mehrotra's predictor-corrector (SIAM J. Optim. 1992),
from the strictly feasible start X = I/n, M = J, t = n + 1, which exists
for every graph.  Each iteration factors one Schur matrix of order m + 1
(m edges), built by index gathers over the edge arrays.  The loop stops
at a duality gap of ``GAP_STOP`` = 1e-10 relative to t, reached in 9
iterations on odd cycles and Paley graphs and in 15-16 on random graphs
of order 20-24.  Pushed on to 1e-12, those random graphs stall at
certified widths near 1e-10 anyway, after 21-24 iterations, and no
printed report changes: the extra iterations buy nothing.

The bracket is the best pair of iterates as ``verify_primal_certificate``
and ``verify_dual_certificate`` certify them, so it is sound wherever the
iteration stops.  Only iterates that can still win are certified.  A cheap
screen bounds each certified value from the side that matters: a dual
iterate M certifies more than eigvalsh(M)'s largest value, and a primal
iterate X certifies at most max(1, T/tr), for the rounded sums T of all
entries and tr of the diagonal that the primal check forms from X
symmetrized with its edges zeroed.  Each side holds at most ``POOL``
unverified iterates; when a pool is full, and at the end, its most
promising iterate is verified, and every iterate whose screen shows it can
neither beat nor tie the best verified value is dropped.  Ties go to the
earliest iterate, so the bracket is the one a check of every iterate would
give.  Both checks live in ``umbrella``, not here: M is an umbrella
certificate of G and X the Gram matrix of an umbrella of the complement,
and a check that shares no code with this solver cannot inherit its
mistakes.  They are imported here for the pools and offered from here with
``CertificateError``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .umbrella import (CertificateError, verify_dual_certificate,
                       verify_primal_certificate)

MATRIX_LIMIT = 3000  # largest order of the Schur matrix (m + 1) and of X (n)
GAP_STOP = 1e-10  # duality gap, relative to t, at which the iteration stops
STALL = 3  # iterations that fail to halve the smallest gap before a stop
STEP_FRACTION = 0.95  # share of the step to the boundary of the PSD cone
POOL = 8  # unverified iterates held per side before the best is verified

logger = logging.getLogger(__name__)


class ThetaError(ValueError):
    pass


@dataclass(frozen=True)
class ThetaBracket:
    """Proven lo <= theta(G) <= hi with the matrices that prove them;
    ``iterations`` counts interior-point iterations."""

    lo: float
    hi: float
    primal_certificate: np.ndarray
    dual_certificate: np.ndarray
    converged: bool
    iterations: int

    @property
    def width(self):
        return self.hi - self.lo


def _dual_matrix(y, n, iu, iv):
    """M(y): J with 1 - y_e on edge e, so t*I - M(y) = A^T(y) - J."""
    M = np.ones((n, n))
    M[iu, iv] = M[iv, iu] = 1.0 - y[1:]
    return M


def _constraints(P, iu, iv):
    """A(P): the trace and P_ij + P_ji on each edge.  P need not be
    symmetric (the corrector's right-hand side is not), so both halves are
    read."""
    return np.concatenate(([np.trace(P)], P[iu, iv] + P[iv, iu]))


def _schur(X, Z, iu, iv):
    """H_ab = tr(A_a X A_b Z) for A_0 = I and A_e = E_ij + E_ji, by index
    gathers over the edge arrays."""
    m = len(iu)
    H = np.empty((m + 1, m + 1))
    W = X @ Z
    H[0, 0] = np.trace(W)
    H[0, 1:] = H[1:, 0] = W[iu, iv] + W[iv, iu]
    Xu, Xv, Zu, Zv = X[iu], X[iv], Z[iu], Z[iv]
    # tr(E_e X E_f Z) = X_jk Z_li + X_jl Z_ki + X_ik Z_lj + X_il Z_kj
    # for e = ij, f = kl
    H[1:, 1:] = (Xv[:, iu] * Zu[:, iv] + Xv[:, iv] * Zu[:, iu]
                 + Xu[:, iu] * Zv[:, iv] + Xu[:, iv] * Zv[:, iu])
    return H


def _inverse_factor(A):
    """L^-1 for the Cholesky factor L of A; raises LinAlgError unless A is
    numerically positive definite."""
    return np.linalg.inv(np.linalg.cholesky(A))


def _step_to_boundary(Li, D):
    """Largest a with A + a*D PSD, for A = L L^T (inf when D is PSD)."""
    lam = float(np.linalg.eigvalsh(Li @ D @ Li.T)[0])
    return math.inf if lam >= 0.0 else -1.0 / lam


def _direction(X, Z, H, RZ, rp, iu, iv):
    """HKM direction for dX S + X dS = R with A(dX) = rp and dS = A^T(dy),
    given RZ = R S^-1: H dy = A(RZ) - rp and dX = RZ - X dS Z, symmetrized."""
    dy = np.linalg.solve(H, _constraints(RZ, iu, iv) - rp)
    dS = dy[0] * np.eye(X.shape[0])
    dS[iu, iv] = dS[iv, iu] = dy[1:]
    dX = RZ - X @ dS @ Z
    return (dX + dX.T) / 2.0, dy, dS


def _step(X, S, b, iu, iv):
    """One Mehrotra predictor-corrector step: (dX, primal step length, dy,
    dual step length).  Raises LinAlgError when X, S or the Schur matrix is
    no longer numerically positive definite, or the step is not finite."""
    n = X.shape[0]
    Xi, Si = _inverse_factor(X), _inverse_factor(S)
    Z = Si.T @ Si
    H = _schur(X, Z, iu, iv)
    np.linalg.cholesky(H)  # the definiteness test; the solves use H itself
    rp = b - _constraints(X, iu, iv)
    mu = float(np.vdot(X, S)) / n
    # predictor: the affine-scaling direction, aimed at mu = 0 (R = -XS)
    dXa, _, dSa = _direction(X, Z, H, -X, rp, iu, iv)
    ap = min(1.0, _step_to_boundary(Xi, dXa))
    ad = min(1.0, _step_to_boundary(Si, dSa))
    mu_aff = float(np.vdot(X + ap * dXa, S + ad * dSa)) / n
    sigma = min(1.0, (mu_aff / mu) ** 3)
    # corrector: centring at sigma*mu plus the predictor's second-order term
    dX, dy, dS = _direction(X, Z, H, sigma * mu * Z - X - dXa @ dSa @ Z,
                            rp, iu, iv)
    if not (np.isfinite(dX).all() and np.isfinite(dy).all()):
        raise np.linalg.LinAlgError("interior-point step is not finite")
    return (dX, min(1.0, STEP_FRACTION * _step_to_boundary(Xi, dX)),
            dy, min(1.0, STEP_FRACTION * _step_to_boundary(Si, dS)))


def _dual_screen(M):
    """A float below the bound ``verify_dual_certificate`` proves for M,
    which starts strictly above this eigvalsh estimate."""
    return float(np.linalg.eigvalsh(M)[-1])


def _primal_screen(X, iu, iv):
    """A float at least the bound ``verify_primal_certificate`` proves for
    X.  That bound is (T + n*s)/(tr + n*s) with s >= 0, rounded down, for
    the rounded sums T and tr it forms from X symmetrized with its edges
    zeroed, so it never exceeds max(1, T/tr)."""
    S = (X + X.T) / 2.0
    S[iu, iv] = S[iv, iu] = 0.0
    total = math.nextafter(math.fsum(S.ravel()), -math.inf)
    trace = math.nextafter(math.fsum(np.diag(S)), math.inf)
    return max(1.0, total / trace)


class _Pool:
    """One side's unverified iterates, at most ``POOL``, and its best
    verified one.  Values are signed so that the larger wins, and each
    screen is at least its iterate's value; ties go to the earlier
    iterate, so entries compare as (value or screen, -index)."""

    def __init__(self, verify):
        self.verify = verify  # iterate -> (signed value, certificate)
        self.waiting = []  # (screen, -index, iterate)
        self.best = (-math.inf, 0, None)  # (value, -index, certificate)
        self.calls = 0

    def add(self, screen, index, iterate):
        if len(self.waiting) == POOL:
            self.verify_next()
        if (screen, -index) > self.best[:2]:
            self.waiting.append((screen, -index, iterate))

    def verify_next(self):
        """Verify the most promising iterate, then drop every iterate that
        can no longer beat or tie the best."""
        k = max(range(len(self.waiting)), key=lambda k: self.waiting[k][:2])
        _, neg, iterate = self.waiting.pop(k)
        value, certificate = self.verify(iterate)
        self.calls += 1
        if (value, neg) > self.best[:2]:
            self.best = (value, neg, certificate)
        self.waiting = [w for w in self.waiting if w[:2] > self.best[:2]]

    def drain(self):
        while self.waiting:
            self.verify_next()
        return self.best[0], self.best[2]


def lovasz_theta(G, tol=1e-6, max_iterations=100, time_budget=None):
    """Certified bracket [lo, hi] around the Lovász number of G.

    Interior-point iterations (see the module docstring) stop when the
    duality gap <X, t*I - M> falls to ``GAP_STOP`` (1e-10) relative to t;
    when ``STALL`` iterations in a row fail to halve the smallest gap so
    far; when X, S or the Schur matrix is no longer numerically positive
    definite; after ``max_iterations`` iterations; or once
    ``time_budget`` seconds (None: no limit) have passed.  The clock
    is read once per iteration, so the budget is overrun by at most one
    iteration (which verifies at most one iterate per side) and the
    emptying of the two pools (at most ``POOL`` verifications each).

    The best ``lo`` and ``hi`` of all iterates are returned with their
    certificates wherever the loop stops, the earliest iterate winning a
    tie; only iterates whose screen can still beat or tie the best are
    verified (see the module docstring).  ``tol`` only decides
    ``converged`` (hi - lo <= tol); it does not steer the loop, whose
    certified widths end near 1e-11 to 1e-10 relative to theta, so a
    ``tol`` below about 1e-10 relative usually gives ``converged`` False
    (C5 at tol=1e-12 ends at a width of 1.7e-11).  ``iterations`` counts
    interior-point iterations.  One debug line per solve goes to the
    ``shancap.theta`` logger: verifications per side, the bracket, the
    time and the stop reason.

    Raises ``ThetaError``, before anything is allocated, when the Schur
    matrix (order m + 1 for m edges) or X (order n) would exceed
    ``MATRIX_LIMIT``, or when ``time_budget`` is given and not positive.
    """
    if time_budget is not None and not time_budget > 0:
        raise ThetaError(f"time budget must be positive, got {time_budget!r}")
    n, m = G.n, G.num_edges
    if max(n, m + 1) > MATRIX_LIMIT:
        raise ThetaError(
            f"theta needs dense matrices of order m + 1 = {m + 1} (m = {m} "
            f"edges) and n = {n}; the limit is {MATRIX_LIMIT}")
    start = time.monotonic()
    deadline = None if time_budget is None else start + time_budget
    iu, iv = np.array(G.edges(), dtype=np.intp).reshape(-1, 2).T
    b = np.zeros(m + 1)  # right-hand sides of tr X = 1 and X_e = 0
    b[0] = 1.0
    X = np.eye(n) / n
    y = np.zeros(m + 1)  # y[0] = t, y[1:] = 1 - M on the edges
    y[0] = n + 1.0
    primal = _Pool(lambda A: verify_primal_certificate(A, G, tol=1.0))
    # the dual side is signed -hi; hi > screen gives -hi <= -nextafter(screen)
    dual = _Pool(lambda A: (-verify_dual_certificate(A, G), A))
    best_gap, stalled = math.inf, 0
    it = 0
    while True:
        primal.add(_primal_screen(X, iu, iv), it, X)
        M = _dual_matrix(y, n, iu, iv)
        dual.add(-math.nextafter(_dual_screen(M), math.inf), it, M)
        S = y[0] * np.eye(n) - M
        gap = float(np.vdot(X, S))
        if gap < best_gap / 2.0:
            best_gap, stalled = gap, 0
        else:
            stalled += 1
        stop = ("gap" if gap <= GAP_STOP * y[0]
                else "stall" if stalled >= STALL
                else "max iterations" if it >= max_iterations
                else "time budget" if deadline is not None
                and time.monotonic() > deadline else None)
        if stop:
            break
        try:
            dX, ap, dy, ad = _step(X, S, b, iu, iv)
        except np.linalg.LinAlgError:
            stop = "breakdown"
            break
        X = X + ap * dX
        y = y + ad * dy
        it += 1
    best_lo, best_primal = primal.drain()
    neg_hi, best_dual = dual.drain()
    best_hi = -neg_hi
    logger.debug("theta: n=%d m=%d iterations=%d verified primal=%d dual=%d "
                 "lo=%.12g hi=%.12g %.3f s stop=%s", n, m, it, primal.calls,
                 dual.calls, best_lo, best_hi, time.monotonic() - start, stop)
    if best_lo > best_hi:
        raise ThetaError("certified bracket inverted; tolerance bookkeeping bug")
    return ThetaBracket(best_lo, best_hi, best_primal, best_dual,
                        best_hi - best_lo <= tol, it)

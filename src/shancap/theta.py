"""Certified two-sided brackets for the Lovász number.

The semidefinite program max <J,X> over {X PSD, tr X = 1, X zero on edges}
is solved by an operator-splitting iteration that alternates projection
onto the affine set with projection onto the PSD cone, carrying a scaled
multiplier.  The multiplier yields a matrix M with unit diagonal and unit
non-edge entries whose largest eigenvalue upper-bounds the optimum; a
subgradient sweep over the free edge entries of M then tightens that bound.
Both certificates are re-verified before the bracket is reported, so the
interval is sound even when the iteration is stopped early; the dual bound
is proven by one floating-point Cholesky with an a priori error bound and
no heuristic margin (``_lambda_max_certified``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DENSE_LIMIT = 400


class ThetaError(ValueError):
    pass


class CertificateError(ThetaError):
    pass


@dataclass(frozen=True)
class ThetaBracket:
    lo: float
    hi: float
    primal_certificate: np.ndarray
    dual_certificate: np.ndarray
    converged: bool
    iterations: int

    @property
    def width(self):
        return self.hi - self.lo


def _edge_arrays(G):
    edges = G.edges()
    iu = np.array([e[0] for e in edges], dtype=np.intp)
    iv = np.array([e[1] for e in edges], dtype=np.intp)
    return iu, iv


def _project_affine(V, iu, iv):
    W = (V + V.T) / 2.0
    n = W.shape[0]
    if len(iu):
        W[iu, iv] = 0.0
        W[iv, iu] = 0.0
    W[np.diag_indices(n)] -= (np.trace(W) - 1.0) / n
    return W


def _project_psd(V):
    w, Q = np.linalg.eigh((V + V.T) / 2.0)
    return (Q * np.clip(w, 0.0, None)) @ Q.T


def _lambda_max_certified(M):
    """A float t > lambda_max(M) for a symmetric M, proven by one float
    Cholesky of A = t*I - M - c*I, its diagonal formed exactly and rounded
    down.  A Cholesky that completes with a finite R gives R^T R = A + E,
    ||E||_2 <= g/(1-g) tr(A), g = gamma_{n+1} = (n+1)u/(1-(n+1)u), u = 2^-53
    (Demmel; Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3; Rump, BIT 2006), so c = 2g/(1-g) sum(t - M_ii) + n*2^-1000
    (underflow) proves t*I - M > 0.  Assumes IEEE doubles rounded to nearest
    and LAPACK potrf as a standard Cholesky.  t starts just above the
    eigvalsh estimate; each failed Cholesky quadruples the step."""
    if not np.isfinite(M).all():
        raise CertificateError("dual certificate has a non-finite entry")
    n = M.shape[0]
    diag = [Fraction(float(x)) for x in np.diag(M)]
    g = Fraction(n + 1, 2**53 - n - 1)
    est = float(np.linalg.eigvalsh(M)[-1])
    step = n * (n + 1) * 2.0**-52 * (abs(est) + 1.0)
    while math.isfinite(est + step):
        t = Fraction(est + step)
        c = 2 * g / (1 - g) * sum(t - d for d in diag) + Fraction(n, 2**1000)
        A = -M
        A[np.diag_indices(n)] = [math.nextafter(float(t - d - c), -math.inf)
                                 for d in diag]  # float() rounds to nearest
        try:
            if np.isfinite(np.linalg.cholesky(A)).all():
                return float(t)
        except np.linalg.LinAlgError:
            pass
        step *= 4.0
    raise CertificateError("no finite upper bound on lambda_max")


def verify_dual_certificate(M, G):
    """Check the pattern exactly (symmetric, unit diagonal, unit non-edge
    entries), then return a sound upper bound from the certified largest
    eigenvalue, which also rejects non-finite entries."""
    n = G.n
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise CertificateError("dual certificate has wrong shape")
    if not np.array_equal(M, M.T, equal_nan=True):  # nan: rejected below
        raise CertificateError("dual certificate not symmetric")
    for i in range(n):
        if M[i, i] != 1.0:
            raise CertificateError(f"dual certificate diagonal {i} is not 1")
        row = G.adj[i]
        for j in range(i + 1, n):
            if not row >> j & 1 and M[i, j] != 1.0:
                raise CertificateError(
                    f"dual certificate non-edge entry ({i},{j}) is not 1")
    return _lambda_max_certified(M)


def verify_primal_certificate(X, G, tol=1e-9):
    """Check symmetry, eigenvalue floor, trace, and edge zeros within
    ``tol``; return a proven lower bound on theta from the repaired matrix
    (edges zeroed, lifted to PSD by a certified shift), with that matrix."""
    n = G.n
    X = np.asarray(X, dtype=float)
    if X.shape != (n, n):
        raise CertificateError("primal certificate has wrong shape")
    if not np.isfinite(X).all():
        raise CertificateError("primal certificate has a non-finite entry")
    if np.max(np.abs(X - X.T)) > tol:
        raise CertificateError("primal certificate not symmetric")
    S = (X + X.T) / 2.0
    iu, iv = _edge_arrays(G)
    if len(iu) and float(np.max(np.abs(S[iu, iv]))) > tol:
        raise CertificateError("primal certificate nonzero on an edge")
    if abs(np.trace(S) - 1.0) > tol:
        raise CertificateError("primal certificate trace is not 1")
    lam_min = float(np.linalg.eigvalsh(S)[0])
    if lam_min < -tol:
        raise CertificateError("primal certificate not PSD within tolerance")
    # repair: zero edges exactly; X = S + shift*I is PSD by a proven shift,
    # and <J,X>/tr X is bounded below from the exactly rounded sums
    if len(iu):
        S[iu, iv] = 0.0
        S[iv, iu] = 0.0
    shift = Fraction(max(0.0, _lambda_max_certified(-S)))
    total = Fraction(math.nextafter(math.fsum(S.ravel()), -math.inf))
    trace = Fraction(math.nextafter(math.fsum(np.diag(S)), math.inf))
    value = max(total + n * shift, Fraction(0)) / (trace + n * shift)
    lo = float(value)
    if Fraction(lo) > value:
        lo = math.nextafter(lo, -math.inf)
    S[np.diag_indices(n)] += float(shift)
    return lo, S / np.trace(S)


def _dual_from_multiplier(Y, G):
    n = G.n
    M = np.ones((n, n))
    iu, iv = _edge_arrays(G)
    if len(iu):
        M[iu, iv] = Y[iu, iv]
        M[iv, iu] = Y[iv, iu]
    return (M + M.T) / 2.0


def _polish_dual(M, iu, iv, steps):
    """Subgradient sweep on the free edge entries to shrink the largest
    eigenvalue; keeps the best iterate."""
    best = M.copy()
    cur = M.copy()
    w, Q = np.linalg.eigh(cur)
    best_val = float(w[-1])
    lr = 0.25
    for _ in range(steps):
        v = Q[:, -1]
        trial = cur.copy()
        g = 2.0 * v[iu] * v[iv]
        trial[iu, iv] -= lr * g
        trial[iv, iu] -= lr * g
        tw, tQ = np.linalg.eigh(trial)
        val = float(tw[-1])
        if val < best_val - 1e-15:
            cur, w, Q = trial, tw, tQ
            best = trial.copy()
            best_val = val
            lr *= 1.15
        else:
            if val < w[-1]:
                cur, w, Q = trial, tw, tQ
            lr *= 0.6
            if lr < 1e-13:
                break
    return best


def _uniform_dual(G):
    """min over t of lambda_max(J - t*A); exact for edge-transitive graphs
    and a strong warm start elsewhere."""
    n = G.n
    J = np.ones((n, n))
    A = np.zeros((n, n))
    for u, v in G.edges():
        A[u, v] = A[v, u] = 1.0

    def f(t):
        return float(np.linalg.eigvalsh(J - t * A)[-1])

    a, b = 0.0, float(n)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(90):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    t = (a + b) / 2.0
    return J - t * A


def lovasz_theta(G, tol=1e-6, max_iterations=20000):
    """Certified bracket [lo, hi] around the Lovász number of G.

    When the bracket fails to reach ``tol`` within the iteration budget the
    widest verified bracket is returned with converged=False; both sides
    are sound regardless.
    """
    if G.n > DENSE_LIMIT:
        raise ThetaError(f"graph too large for the dense solver (> {DENSE_LIMIT})")
    n = G.n
    iu, iv = _edge_arrays(G)
    J = np.ones((n, n))
    rho = 1.0
    Z = np.eye(n) / n
    U = np.zeros((n, n))
    best_lo = 0.0
    best_primal = np.eye(n) / n
    best_dual = _uniform_dual(G)
    best_hi = verify_dual_certificate(best_dual, G)
    converged = False
    it = 0
    check_every = 100
    while it < max_iterations:
        stop = min(it + check_every, max_iterations)
        while it < stop:
            X = _project_affine(Z - U + J / rho, iu, iv)
            Z_old = Z
            Z = _project_psd(X + U)
            U = U + X - Z
            it += 1
        lo, S = verify_primal_certificate(_project_affine(Z, iu, iv), G, tol=1.0)
        if lo > best_lo:
            best_lo, best_primal = lo, S
        M = _polish_dual(_dual_from_multiplier(rho * U, G), iu, iv, steps=40)
        hi = verify_dual_certificate(M, G)
        if hi < best_hi:
            best_hi, best_dual = hi, M
        if best_hi - best_lo <= tol:
            converged = True
            break
        r = float(np.linalg.norm(X - Z))
        s = rho * float(np.linalg.norm(Z - Z_old))
        if r > 10.0 * s:
            rho *= 2.0
            U /= 2.0
        elif s > 10.0 * r:
            rho /= 2.0
            U *= 2.0
    if not converged:
        # final heavier polish before giving up
        M = _polish_dual(best_dual, iu, iv, steps=200)
        hi = verify_dual_certificate(M, G)
        if hi < best_hi:
            best_hi, best_dual = hi, M
        converged = best_hi - best_lo <= tol
    if best_lo > best_hi:
        raise ThetaError("certified bracket inverted; tolerance bookkeeping bug")
    return ThetaBracket(best_lo, best_hi, best_primal, best_dual, converged, it)

"""Umbrella certificates: per-vertex states orthogonal across non-edges.

A vector umbrella assigns a unit state to every vertex plus a unit handle;
a density umbrella uses symmetric PSD trace-1 matrices with the
Hilbert-Schmidt inner product instead.  For a verified umbrella the value
1/(smallest handle correlation) is a sound upper bound on the independence
number, and it multiplies under tensor products, so it also bounds the
capacity.  Correlation with the handle means (c.u)^2 for vector states and
tr(C A) for density states: with that pairing the rank-1 embedding of a
vector umbrella keeps the value unchanged.

``verify_umbrella`` screens validity with tolerances (norms, traces, PSD
floor, orthogonality), but the value it reports uses none of them: it is
the value of an exact umbrella built from the Gram matrix of handle and
states, with the non-edge entries set to 0, the diagonal set to 1 and the
smallest eigenvalue certified (``_certified_value``).

The matrices of ``theta.lovasz_theta`` are umbrella certificates too, and
their checks live here.  A dual matrix M with t*I - M = V^T V PSD gives the
umbrella of G with handle e_0 and states (1, v_i)/sqrt(t), value t
(Lovász, IEEE Trans. IT 1979, Thm 5): ``verify_dual_certificate``.  A
primal matrix X is the Gram matrix of an umbrella of the complement:
``verify_primal_certificate``.  All three checks rest on one certified
largest eigenvalue (``_lambda_max_certified``) and share no code with a
solver: this module imports no other ``shancap`` module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_ORTHOGONALITY_TOL = 1e-9
UNIT_TOL = 1e-9  # slack on norms, traces and symmetry in the validity screen
PSD_FLOOR = 1e-9  # most negative eigenvalue a density state may have
PURIFY_TOL = 1e-9  # purify: relative eigenvalue size for range(A) and ties


class UmbrellaError(ValueError):
    pass


class DensityMatrixError(UmbrellaError):
    pass


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class VectorUmbrella:
    dim: int
    handle: np.ndarray
    states: np.ndarray  # shape (n, dim)

    @property
    def n(self):
        return len(self.states)

    kind = "vector"


@dataclass(frozen=True)
class DensityUmbrella:
    dim: int
    handle: np.ndarray  # (dim, dim)
    states: np.ndarray  # (n, dim, dim)

    @property
    def n(self):
        return len(self.states)

    kind = "density"


@dataclass(frozen=True)
class UmbrellaReport:
    valid: bool
    violations: tuple
    max_orthogonality_residual: float
    value: float = math.inf  # certified; infinite unless valid


@dataclass(frozen=True)
class PurifyResult:
    umbrella: DensityUmbrella
    degenerate_states: tuple
    value_before: float
    value_after: float


def handle_correlations(u):
    """Correlation of every state with the handle: (c.u)^2 for vectors,
    tr(C A) for densities.  Exact for arrays of Fractions."""
    if isinstance(u, VectorUmbrella):
        return [np.dot(u.handle, s) ** 2 for s in u.states]
    return [np.sum(u.handle * s) for s in u.states]


def umbrella_opening(u):
    """Smallest handle correlation over the states."""
    return min(handle_correlations(u))


def umbrella_value(u):
    """Reciprocal opening, scaled by the handle weight ((c.c) for vectors,
    tr C for densities).  Infinite when some state decorrelates from the
    handle, in which case the umbrella certifies nothing."""
    corr = handle_correlations(u)
    m = min(corr)
    if not m > 0:
        return math.inf
    weight = np.dot(u.handle, u.handle) if isinstance(u, VectorUmbrella) else np.trace(u.handle)
    val = weight / m
    return val.item() if hasattr(val, "item") else val


def odd_cycle_umbrella(n):
    """Optimal umbrella for an odd cycle, value n*cos(pi/n)/(1+cos(pi/n)).

    Built from the circulant optimizer of the dual eigenvalue program: the
    states are Fourier ribs over the non-extremal characters plus one
    constant coordinate, living in dimension n-2 (the familiar 3-d cone for
    n=5).  Orthogonality across non-adjacent pairs holds to machine
    precision by the inverse-DFT identity of the construction.
    """
    if n < 5 or n % 2 == 0:
        raise UmbrellaError("odd cycle umbrellas need odd n >= 5")
    k = (n - 1) // 2
    cos = math.cos(math.pi / n)
    y = n / (2.0 * (1.0 + cos))
    lam = 2.0 * y * cos  # the closed-form value
    ts = [t for t in range(1, k)]  # characters with nonzero weight
    dim = 2 * len(ts) + 1
    states = np.zeros((n, dim))
    for t_idx, t in enumerate(ts):
        q_t = lam + 2.0 * y * math.cos(2.0 * math.pi * t / n)
        amp = math.sqrt(2.0 * q_t / n)
        for i in range(n):
            ang = 2.0 * math.pi * t * i / n
            states[i, 2 * t_idx] = amp * math.cos(ang)
            states[i, 2 * t_idx + 1] = amp * math.sin(ang)
    states[:, -1] = 1.0
    states /= math.sqrt(lam)
    handle = np.zeros(dim)
    handle[-1] = 1.0
    return VectorUmbrella(dim, handle, states)


def trivial_umbrella(n, dim=1):
    """All states equal to the handle: valid for complete graphs, value 1."""
    handle = np.zeros(dim)
    handle[0] = 1.0
    states = np.tile(handle, (n, 1))
    return VectorUmbrella(dim, handle.copy(), states)


def verify_umbrella(u, G, orth_tol=DEFAULT_ORTHOGONALITY_TOL):
    """Check every umbrella invariant against G; lists each violation with
    its residual.  A valid umbrella carries its certified ``value``, which
    the report assembler accepts as an upper bound."""
    if u.n != G.n:
        return UmbrellaReport(False, (("count", (u.n, G.n), 0.0),), 0.0)
    shape = (u.dim,) if isinstance(u, VectorUmbrella) else (u.dim, u.dim)
    if np.shape(u.handle) != shape or np.shape(u.states)[1:] != shape:
        return UmbrellaReport(False, (("dimension", u.dim, 0.0),), 0.0)
    violations = []
    if isinstance(u, VectorUmbrella):
        vectors = [("handle_norm", None, u.handle)] + \
            [("state_norm", i, s) for i, s in enumerate(u.states)]
        for kind, where, s in vectors:
            r = abs(np.dot(s, s) - 1)
            if r > UNIT_TOL:
                violations.append((kind, where, float(r)))
    else:
        for name, A in [("handle", u.handle)] + [(i, s) for i, s in enumerate(u.states)]:
            problem = _density_violation(A)
            if problem:
                violations.append((f"density_{problem}", name, 0.0))
    flat = np.asarray(u.states, dtype=float).reshape(u.n, -1)
    pair = flat @ flat.T  # dot products, or Hilbert-Schmidt ones
    non_edges = [(a, b) for a in range(G.n) for b in range(a + 1, G.n)
                 if not G.adj[a] >> b & 1]
    max_resid = 0.0
    for a, b in non_edges:
        r = abs(float(pair[a, b]))
        max_resid = max(max_resid, r)
        if r > orth_tol:
            violations.append(("orthogonality", (a, b), r))
    for i, corr in enumerate(handle_correlations(u)):
        if not corr > 0:
            violations.append(("handle_correlation_zero", i, float(corr)))
    if violations:
        return UmbrellaReport(False, tuple(violations), max_resid)
    return UmbrellaReport(True, (), max_resid, _certified_value(u, non_edges))


def _certified_value(u, non_edges):
    """(1 + eta)^2 / min K_0i^2, rounded up, from the Gram matrix K of the
    normalized handle (index 0) and states, its diagonal set to exactly 1
    and its non-edge entries to exactly 0.  Density states enter as the
    vectors vec(A_i C^1/2) and the handle as vec(C^1/2), so K_0i^2 =
    tr(A_i C)^2/(tr C tr(A_i^2 C)) >= tr(A_i C)/tr C, as A_i^2 <= A_i.
    eta >= -lambda_min(K) is certified by ``_lambda_max_certified``, so
    (K + eta I)/(1 + eta) is the Gram matrix of an exact umbrella with
    handle correlations K_0i^2/(1 + eta)^2, whatever rounding went into K.
    No tolerance enters, and the bound holds for the capacity."""
    if isinstance(u, VectorUmbrella):
        X = np.vstack([u.handle, u.states]).astype(float)
    else:
        w, Q = np.linalg.eigh(np.asarray(u.handle, dtype=float))
        root = (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.T
        X = np.concatenate([root[None], np.asarray(u.states, dtype=float) @ root])
        X = X.reshape(u.n + 1, -1)
    K = X @ X.T
    norms = np.sqrt(np.diag(K))
    if not (np.isfinite(K).all() and (norms > 0).all()):
        return math.inf
    K = K / np.outer(norms, norms)
    K[np.diag_indices(u.n + 1)] = 1.0
    for a, b in non_edges:
        K[a + 1, b + 1] = K[b + 1, a + 1] = 0.0
    opening = min(Fraction(float(x)) ** 2 for x in K[0, 1:])
    if opening == 0:
        return math.inf
    eta = max(Fraction(0), Fraction(_lambda_max_certified(-K)))
    value = (1 + eta) ** 2 / opening
    up = float(value)
    return up if Fraction(up) >= value else math.nextafter(up, math.inf)


def _density_violation(A):
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A - A.T)) > UNIT_TOL:
        return "not_symmetric"
    if abs(np.trace(A) - 1.0) > UNIT_TOL:
        return "trace_not_one"
    if float(np.linalg.eigvalsh(A)[0]) < -PSD_FLOOR:
        return "not_psd"
    return None


def tensor_umbrella(u, v):
    """Umbrella for the strong product, states U(x) (x) V(y) indexed in
    product order; the value multiplies."""
    if isinstance(u, VectorUmbrella) != isinstance(v, VectorUmbrella):
        u = density_from_vector(u) if isinstance(u, VectorUmbrella) else u
        v = density_from_vector(v) if isinstance(v, VectorUmbrella) else v
    kind = VectorUmbrella if isinstance(u, VectorUmbrella) else DensityUmbrella
    states = np.stack([np.kron(su, sv) for su in u.states for sv in v.states])
    return kind(u.dim * v.dim, np.kron(u.handle, v.handle), states)


def density_from_vector(u):
    """Rank-1 embedding u -> u u^T; handle correlations and hence the value
    are unchanged."""
    if not isinstance(u, VectorUmbrella):
        raise UmbrellaError("expected a vector umbrella")
    states = np.stack([np.outer(s, s) for s in u.states])
    return DensityUmbrella(u.dim, np.outer(u.handle, u.handle), states)


def purity(A):
    """tr(A^2) of a density matrix; 1 exactly for pure (rank-1) states."""
    A = np.asarray(A, dtype=float)
    problem = _density_violation(A)
    if problem:
        raise DensityMatrixError(f"not a density matrix: {problem}")
    return float(np.sum(A * A))


def purify_umbrella(u):
    """Replace each state A = V D V^T (V spanning range(A): eigenvalues above
    ``PURIFY_TOL`` times the top) by the projector onto the top eigenvector
    of the handle compressed to range(A), V^T C V.  HS-orthogonal PSD
    matrices have orthogonal ranges, so orthogonality survives, and the new
    correlation lambda_max(V^T C V) >= tr(V^T C V D) = tr(C A), so the
    value never rises.  Ties for that top eigenvalue (relative gap below
    ``PURIFY_TOL``) are flagged and pick the lowest-index eigenvector."""
    if not isinstance(u, DensityUmbrella):
        raise UmbrellaError("expected a density umbrella")
    value_before = umbrella_value(u)
    C = np.asarray(u.handle, dtype=float)
    new_states = []
    degenerate = []
    for i, A in enumerate(u.states):
        w, Q = np.linalg.eigh(np.asarray(A, dtype=float))
        keep = w > PURIFY_TOL * w[-1]
        keep[-1] = True
        V = Q[:, keep]
        hw, hQ = np.linalg.eigh(V.T @ C @ V)
        tied = np.flatnonzero(hw >= hw[-1] - PURIFY_TOL * abs(hw[-1]))
        if len(tied) > 1:
            degenerate.append(i)
        vec = V @ hQ[:, tied[0]]
        new_states.append(np.outer(vec, vec))
    out = DensityUmbrella(u.dim, C, np.stack(new_states))
    return PurifyResult(out, tuple(degenerate), value_before, umbrella_value(out))


# -- theta's matrices -------------------------------------------------------


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
    diag_sum = sum(diag)
    g = Fraction(n + 1, 2**53 - n - 1)
    est = float(np.linalg.eigvalsh(M)[-1])
    step = n * (n + 1) * 2.0**-52 * (abs(est) + 1.0)
    while math.isfinite(est + step):
        t = Fraction(est + step)
        c = 2 * g / (1 - g) * (n * t - diag_sum) + Fraction(n, 2**1000)
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
    iu, iv = np.array(G.edges(), dtype=np.intp).reshape(-1, 2).T
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


# -- JSON -------------------------------------------------------------------


def umbrella_to_json(u):
    """Numbers are stored as shortest round-trip decimal strings; loading
    re-verifies against a graph instead of trusting any stored flags."""
    text = np.vectorize(lambda x: repr(float(x)), otypes=[object])
    doc = {"dim": u.dim, "kind": u.kind, "handle": text(u.handle).tolist(),
           "states": text(u.states).tolist()}
    return json.dumps(doc, sort_keys=True)


def umbrella_from_json(text):
    doc = json.loads(text)
    try:
        kind = {"vector": VectorUmbrella, "density": DensityUmbrella}.get(doc["kind"])
        if kind is not None:
            if type(doc["dim"]) is not int:
                raise ValueError(f"dim must be an integer, not {doc['dim']!r}")
            return kind(doc["dim"], np.array(doc["handle"], dtype=float),
                        np.array(doc["states"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise UmbrellaError(f"malformed umbrella JSON: {exc}")
    raise UmbrellaError(f"unknown umbrella kind {doc.get('kind')!r}")

"""Exact rational linear programming and the clique-constrained fractional
relaxation of the independence number.

Everything here runs on Fractions; there is no floating point in this
module.  The simplex uses Bland's rule, so it terminates on degenerate
programs, and infeasible/unbounded inputs raise distinct exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .solvers import enumerate_maximal_cliques

ZERO = Fraction(0)
ONE = Fraction(1)


class LPError(ValueError):
    pass


class LPInfeasible(LPError):
    pass


class LPUnbounded(LPError):
    pass


@dataclass(frozen=True)
class FractionalWeighting:
    weights: tuple  # Fractions, one per vertex

    def total(self):
        return sum(self.weights, ZERO)

    def clique_sums(self, cliques):
        return [sum((self.weights[v] for v in x), ZERO) for x in cliques]

    def is_feasible(self, cliques):
        if any(w < 0 for w in self.weights):
            return False
        return all(s <= 1 for s in self.clique_sums(cliques))


def _simplex(tableau, basis, ncols):
    """Primal simplex on a tableau whose last row holds reduced costs of a
    maximization and last column the rhs.  Bland's rule both ways."""
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise LPUnbounded("objective unbounded above")
        _pivot(tableau, leave, enter)
        basis[leave] = enter


def _pivot(tableau, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            factor = r[col]
            tableau[i] = [x - factor * y for x, y in zip(r, tableau[row])]


def lp_solve_exact(objective, constraints, rhs):
    """maximize objective . x  s.t.  constraints x <= rhs, x >= 0.

    All data is coerced to Fraction; returns (optimal value, solution
    tuple), both exact.  Raises LPInfeasible / LPUnbounded.
    """
    c = [Fraction(x) for x in objective]
    A = [[Fraction(x) for x in row] for row in constraints]
    b = [Fraction(x) for x in rhs]
    n = len(c)
    m = len(A)
    for row in A:
        if len(row) != n:
            raise LPError("constraint arity mismatch")
    if len(b) != m:
        raise LPError("rhs length mismatch")
    # rows with negative rhs get sign-flipped surplus + artificial variables
    neg = [i for i in range(m) if b[i] < 0]
    n_slack = m
    n_art = len(neg)
    ncols = n + n_slack + n_art
    tableau = []
    basis = []
    art_cols = {}
    for k, i in enumerate(neg):
        art_cols[i] = n + n_slack + k
    for i in range(m):
        row = [ZERO] * (ncols + 1)
        sign = -1 if i in art_cols else 1
        for j in range(n):
            row[j] = sign * A[i][j]
        row[n + i] = Fraction(sign)
        row[-1] = sign * b[i]
        if i in art_cols:
            row[art_cols[i]] = ONE
            basis.append(art_cols[i])
        else:
            basis.append(n + i)
        tableau.append(row)
    if n_art:
        # phase 1: maximize -(sum of artificials); with the artificials
        # basic, the reduced-cost row is the sum of their rows, zeroed at
        # the artificial columns themselves
        row = [ZERO] * (ncols + 1)
        for i in art_cols:
            for j in range(ncols + 1):
                row[j] += tableau[i][j]
        for col in art_cols.values():
            row[col] = ZERO
        tableau.append(row)
        _simplex(tableau, basis, ncols)
        if tableau[-1][-1] != 0:
            raise LPInfeasible("no feasible point")
        tableau.pop()
        # drive any residual artificial out of the basis
        for i in range(m):
            if basis[i] in art_cols.values():
                for j in range(n + n_slack):
                    if tableau[i][j] != 0:
                        _pivot(tableau, i, j)
                        basis[i] = j
                        break
        ncols = n + n_slack
        tableau = [row[:ncols] + [row[-1]] for row in tableau]
    # phase 2 objective row: c reduced against the current basis
    obj = [ZERO] * (ncols + 1)
    for j in range(n):
        obj[j] = c[j]
    for i in range(m):
        coeff = c[basis[i]] if basis[i] < n else ZERO
        if coeff != 0:
            obj = [x - coeff * y for x, y in zip(obj, tableau[i])]
    tableau.append(obj)
    _simplex(tableau, basis, ncols)
    value = -tableau[-1][-1]
    x = [ZERO] * n
    for i in range(len(basis)):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    return value, tuple(x)


def rosenfeld_number(G):
    """Exact optimum of: maximize sum f(v) over f >= 0 with sum of f over
    every clique at most 1.  Constraints range over maximal cliques only,
    which dominate all clique constraints.

    Returns (value, FractionalWeighting); the weighting is re-verified
    feasible and attaining before it is returned.
    """
    cliques = enumerate_maximal_cliques(G)
    n = G.n
    objective = [ONE] * n
    constraints = []
    for x in cliques:
        row = [ZERO] * n
        for v in x:
            row[v] = ONE
        constraints.append(row)
    rhs = [ONE] * len(cliques)
    value, sol = lp_solve_exact(objective, constraints, rhs)
    weighting = FractionalWeighting(tuple(sol))
    if not weighting.is_feasible(cliques):
        raise LPError("internal error: optimal weighting infeasible")
    if weighting.total() != value:
        raise LPError("internal error: weighting does not attain the optimum")
    return value, weighting

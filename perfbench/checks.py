"""Output checks that share no code with the solvers.

Every check works from the harness's own copy of the inputs
(``workloads``) and from plain coordinate arithmetic, closed forms,
published values and ``networkx``; nothing here imports ``shancap``.
"""

from __future__ import annotations

import math

# Published independence numbers of strong powers of odd cycles, which
# equal the king-packing numbers of the p^d torus.  alpha(C_p) = (p-1)/2;
# alpha(C_p^2) = floor(p*floor(p/2)/2) (Hales 1973); alpha(C5^3) = 10,
# alpha(C5^4) = 25 and alpha(C7^3) = 33 (Baumert et al. 1971).
KNOWN_ALPHA = {
    (5, 1): 2, (5, 2): 5, (5, 3): 10, (5, 4): 25,
    (7, 1): 3, (7, 2): 10, (7, 3): 33,
    (9, 1): 4, (9, 2): 18,
    (11, 1): 5, (11, 2): 27,
}

# Relative slack for comparing a float against a closed form; covers
# double rounding only, not any solver tolerance.
REL = 1e-12


def theta_cycle(p):
    """Lovász number of the odd cycle C_p (Lovász 1979)."""
    c = math.cos(math.pi / p)
    return p * c / (1 + c)


def alpha_networkx(n, edges):
    """alpha(G) as the maximum clique of the complement, by networkx."""
    import networkx as nx

    H = nx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from(edges)
    clique, _ = nx.max_weight_clique(nx.complement(H), weight=None)
    return len(clique)


def _cells_ok(cells, p, d):
    """Problems with the shape of a witness: arity, range, repeats."""
    if len(set(map(tuple, cells))) != len(cells):
        return ["witness repeats a cell"]
    for cell in cells:
        if len(cell) != d or not all(0 <= c < p for c in cell):
            return [f"witness cell {cell} is not on the {p}^{d} torus"]
    return []


def toroidal_independent(cells, p):
    """No two cells within toroidal Chebyshev distance 1 of each other."""
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            if max(min(abs(x - y), p - abs(x - y)) for x, y in zip(a, b)) < 2:
                return False
    return True


def power_independent(cells, edges):
    """No two cells adjacent in the strong power of the graph ``edges``:
    distinct tuples are adjacent iff every coordinate is equal or joined
    by an edge."""
    joined = {frozenset(e) for e in edges}
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            if all(x == y or frozenset((x, y)) in joined for x, y in zip(a, b)):
                return False
    return True


def _alpha_ok(label, value, proven, truth):
    if truth is None:
        return []
    if proven and value != truth:
        return [f"{label}: proven {value}, known value {truth}"]
    if value > truth:
        return [f"{label}: {value} exceeds the known optimum {truth}"]
    return []


def check_bounds(item, res, reference_alpha=None):
    """Problems with one ``compute_bounds`` result (empty list: none)."""
    problems = []
    rows = res["rows"]
    n, p = item.n, item.p
    for row in rows:
        k, cells = row["k"], row["witness"]
        where = f"{item.label} k={k}"
        if len(cells) != row["alpha"]:
            problems.append(f"{where}: witness has {len(cells)} cells, "
                            f"alpha says {row['alpha']}")
        problems += _cells_ok(cells, n, k)
        independent = (toroidal_independent(cells, p) if item.family == "cycle"
                       else power_independent(cells, item.edges))
        if not independent:
            problems.append(f"{where}: witness is not independent")
        if item.family == "cycle":
            truth = KNOWN_ALPHA.get((p, k))
        else:
            truth = reference_alpha if k == 1 else None
        problems += _alpha_ok(where, row["alpha"], row["exact"], truth)
    lower, upper = res["lower"], res["upper"]
    if rows:
        best = max(row["alpha"] ** (1.0 / row["k"]) for row in rows)
        if abs(best - lower) > REL * best:
            problems.append(f"{item.label}: lower {lower!r} is not the best "
                            f"row root {best!r}")
    if lower > upper * (1 + REL):
        problems.append(f"{item.label}: lower {lower!r} > upper {upper!r}")
    if item.family == "cycle" and upper < theta_cycle(p) * (1 - REL):
        problems.append(f"{item.label}: upper {upper!r} is below "
                        f"theta(C{p}) = {theta_cycle(p)!r}")
    if item.family == "paley":
        root = math.sqrt(p)
        bracket = res["theta"]
        if bracket is None:
            problems.append(f"{item.label}: no theta bracket reported")
        elif not (bracket[0] <= root * (1 + REL)
                  and bracket[1] >= root * (1 - REL)):
            problems.append(f"{item.label}: theta bracket {bracket} "
                            f"misses sqrt({p})")
        if upper < root * (1 - REL):
            problems.append(f"{item.label}: upper {upper!r} < sqrt({p})")
    return problems


def check_kings(item, res):
    """Problems with one ``exact_max_kings`` result (empty list: none)."""
    p, d = item.p, item.d
    cells = res["cells"]
    problems = _cells_ok(cells, p, d)
    if len(cells) != res["count"]:
        problems.append(f"{item.label}: {len(cells)} cells, count {res['count']}")
    if not toroidal_independent(cells, p):
        problems.append(f"{item.label}: two kings attack each other")
    if res["count"] > res["upper_bound"]:
        problems.append(f"{item.label}: count {res['count']} > upper bound "
                        f"{res['upper_bound']}")
    truth = KNOWN_ALPHA.get((p, d))
    problems += _alpha_ok(item.label, res["count"], res["proven"], truth)
    if truth is not None and res["upper_bound"] < truth:
        problems.append(f"{item.label}: upper bound {res['upper_bound']} "
                        f"below the known optimum {truth}")
    return problems

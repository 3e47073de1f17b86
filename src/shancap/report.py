"""Assembles the bound families into a certified capacity interval.

Lower bounds come from independent sets in strong powers (value is the
k-th root of the witness size); the upper bound is theta's ``hi``, unless an
imported certificate proves less.  Each power k gets the seeded generic
search; a row it leaves unproven also gets the invariant search: the
independent sets of G^k that are unions of orbits of a group, found as
maximum-weight independent sets of the orbit graph (Mathew & Östergård,
Des. Codes Cryptogr. 2017).  The group (``_power_group``) is generated by
the diagonal negation v -> -v mod n, when that is an automorphism of G,
and by the cyclic shift of the k coordinates for k >= 3; at k = 2 the
shift joins only when negation is not an automorphism.  On C7^3 the
group reaches 33, the known alpha, where the generic search stops at 30;
on C11^2 and C13^2 negation alone reaches Hales' 27 and 39, where the
coarser orbits of the shift and negation together stop at 25 and 36.
The row keeps the generic set unless the invariant one is strictly
larger, and then names the group as its method and stays unproven.  rho and sigma are not computed: theta <=
rho <= sigma always holds, so neither can tighten the interval.  The theta
bracket is computed once on the base graph; it already bounds every power
because it multiplies.  Every reported bound carries a machine-checkable
witness, and reports with identical seed and budget serialize
byte-for-byte identically.  ``verify_report`` re-checks them all: every
cell witness (the lower one and each table row's, whatever its method),
read back into G's vertices through G's labels, by one coordinate-wise
check on G's adjacency, with no G^k built, and the upper certificate
through ``certified_upper``, which also vets imports.  An imported
packing on the (G.n, d) board is a witness of G^d like any other.

Upper bounds are rounded outward, never to the nearest value: the chosen
upper value is rounded up to 6 significant digits, unless the reported
interval has already closed (upper minus lower is at most ``CLOSED_TOL``),
in which case it is kept unrounded so that the interval stays tight.  Printed
upper values are rounded up to 7 significant digits, and a printed theta
bracket is rounded outward (``lo`` down, ``hi`` up).  Rounding up only
weakens a sound upper bound, so every number shown is still certified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from fractions import Fraction

from .graphs import (DEFAULT_VERTEX_LIMIT, Graph, GraphError, ProductIndex,
                     VertexLimitError, bits, independent_in_power,
                     strong_power)
from .haemers import FittingError, FittingMatrix, haemers_certificate
from .kings import Placement
from .solvers import SolverConfig, _run_engine, max_independent_set
from .theta import ThetaBracket, lovasz_theta
from .umbrella import (CertificateError, DensityUmbrella, VectorUmbrella,
                       verify_dual_certificate, verify_umbrella)


CLOSED_TOL = 1e-6  # theta's convergence width; a narrower interval is closed
MEET_TOL = 1e-5  # a lock-in row this close to the upper value meets it


class ReportError(ValueError):
    pass


class CertificateRejected(ReportError):
    pass


@dataclass(frozen=True)
class PowerRow:
    k: int
    alpha_best: int
    root: float
    exact: bool
    witness: tuple
    method: str  # "exact", "heuristic" or "invariant under <group>"


@dataclass(frozen=True)
class LowerBound:
    value: float
    power: int
    witness: tuple
    proven: bool
    method: str


@dataclass(frozen=True)
class UpperBound:
    value: float
    source: str
    certificate: object


@dataclass(frozen=True)
class BoundsReport:
    graph: Graph
    graph_desc: str
    lower: LowerBound
    upper: UpperBound
    table: tuple
    provenance: tuple
    seed: int
    budget: tuple  # (time_budget, node_budget)

    def interval(self):
        return (self.lower.value, self.upper.value)


def _round_out(x, digits, rounding=ROUND_CEILING):
    """x rounded to ``digits`` significant digits in the direction
    ``rounding`` (up by default), as a float never on the wrong side of x.

    Rounding starts from repr(x), the shortest decimal that reads back as
    x, so a float that already is a short decimal (3.31767) stays as it
    is, and float() of the result is monotone in that decimal."""
    if x == 0 or not math.isfinite(x):
        return x
    short = Decimal(repr(x))
    step = Decimal(1).scaleb(short.adjusted() - digits + 1)
    return float(short.quantize(step, rounding=rounding))


def _upper_display(value):
    return f"{_round_out(value, 7):.7g}"


def _power_group(G, k):
    """(generators, name) of the group the invariant search uses on G^k,
    each generator a map of coordinate tuples.  The diagonal negation
    v -> -v mod n joins when it is an automorphism of G other than the
    identity (checked on ``G.adj``); the cyclic shift of the k coordinates
    joins for k >= 3, and at k = 2 only when negation does not.  At k = 2
    negation alone leaves orbits of at most two cells, enough freedom to
    reach Hales' alpha(C_p^2) = floor(p floor(p/2) / 2) on C5^2 to C13^2
    under the benchmark's 150k nodes (27 on C11^2 in 5,588 nodes, 39 on
    C13^2 in 72,713), where adding the shift stops at 25 and 36.  The
    generators commute, so the group's order is the product of theirs."""
    n = G.n
    negation = n > 2 and all(
        sum(1 << -u % n for u in bits(G.adj[v])) == G.adj[-v % n]
        for v in range(n))
    gens, names, order = [], [], 1
    if k > 2 or k == 2 and not negation:
        gens.append(lambda t: t[1:] + t[:1])
        names.append("shift")
        order *= k
    if negation:
        gens.append(lambda t: tuple(-c % n for c in t))
        names.append("negation")
        order *= 2
    return gens, f"<{', '.join(names)}> of order {order}"


def _invariant_set(G, k, Gk, cfg):
    """(vertices of Gk, method) of the largest independent set of G^k that
    is a union of orbits of ``_power_group`` found within ``cfg``'s
    budgets, or None when the group is trivial.  Orbits are taken on the
    ``ProductIndex`` tuples that number the vertices of ``strong_power``,
    the orbits with two adjacent members are dropped, and the rest are
    searched as the vertices of their quotient graph, weighted by size.
    The union is checked coordinate-wise on G before it is returned.
    ``Gk`` must be numbered as ``strong_power`` numbers G^k.  Two callers:
    ``_power_row`` on each unproven row, and ``kings.exact_max_kings`` on
    each unproven board, with G = C_p and Gk its king graph.  At k = 2 the
    group is the negation alone, whose orbits of at most two cells give
    the odd squares C5^2 to C13^2 Hales' alpha under the benchmark's
    budget."""
    gens, name = _power_group(G, k)
    if not gens:
        return None
    index = ProductIndex((G.n,) * k)
    orbit_of = [-1] * index.size  # vertex of G^k -> number of its orbit
    orbits = []
    for v in range(index.size):
        if orbit_of[v] >= 0:
            continue
        orbit_of[v] = len(orbits)
        orbit = [v]
        for u in orbit:  # grows while it is read
            t = index.decode(u)
            for g in gens:
                w = index.encode(g(t))
                if orbit_of[w] < 0:
                    orbit_of[w] = len(orbits)
                    orbit.append(w)
        orbits.append(orbit)
    # the group acts by automorphisms of G^k, so each member of an orbit
    # meets the same orbits as its first one does
    near = [{orbit_of[w] for w in bits(Gk.adj[orbit[0]])} for orbit in orbits]
    # an orbit near itself has two adjacent members; (0, ..., 0) is fixed
    # by the group, so at least one orbit stays
    kept = {i: j for j, i in enumerate(
        i for i in range(len(orbits)) if i not in near[i])}
    rows = tuple(sum(1 << kept[o] for o in near[i] if o in kept)
                 for i in kept)
    found, _, _, _ = _run_engine(Graph(len(kept), rows), cfg,
                                 weights=[len(orbits[i]) for i in kept])
    numbers = list(kept)
    verts = sorted(u for j in found for u in orbits[numbers[j]])
    cells = [index.decode(u) for u in verts]
    if independent_in_power(G, k, cells) is not None:
        raise ReportError("internal error: invariant set not independent")
    return tuple(verts), f"invariant under {name}"


def _power_row(G, k, cfg, vertex_limit):
    """The row of G^k: the generic search's set, unless that is unproven
    and the invariant search finds a strictly larger one."""
    Gk = strong_power(G, k, vertex_limit=vertex_limit)
    res = max_independent_set(Gk, cfg)
    verts = res.vertices
    method = "exact" if res.proven_optimal else "heuristic"
    if not res.proven_optimal:
        invariant = _invariant_set(G, k, Gk, cfg)
        if invariant is not None and len(invariant[0]) > len(verts):
            verts, method = invariant
    size = len(verts)
    witness = tuple(Gk.label_of(v) for v in verts)  # coordinate tuples
    return PowerRow(k, size, size ** (1.0 / k), res.proven_optimal, witness,
                    method)


def compute_bounds(G, max_power=2, cfg=None, graph_desc="graph",
                   vertex_limit=DEFAULT_VERTEX_LIMIT):
    """Certified interval around the capacity of G, with per-power table.
    One seeded ``max_independent_set`` search per power, and theta, each
    run under ``cfg``'s budgets.  A power whose search ends unproven also
    gets the invariant search under the same budgets: the best union of
    orbits of ``_power_group``'s group, taken only when it is strictly
    larger, with method "invariant under <group>".  The group is the
    diagonal negation v -> -v mod n when that is an automorphism of G,
    joined by the coordinate shift for k >= 3 (and at k = 2 only when
    negation is not one): on C11^2 and C13^2 negation alone reaches
    Hales' 27 and 39, where adding the shift stops at 25 and 36.  Theta runs
    first, so a graph too large for it raises ``ThetaError`` before any
    search time is spent."""
    cfg = cfg or SolverConfig()
    bracket = lovasz_theta(G, tol=CLOSED_TOL, time_budget=cfg.time_budget)
    table = []
    provenance = []
    lower = None
    for k in range(1, max_power + 1):
        try:
            row = _power_row(G, k, cfg, vertex_limit)
        except VertexLimitError as exc:  # too large to build: flag, move on
            provenance.append(f"power {k} skipped: {exc}")
            continue
        table.append(row)
        provenance.append(
            f"alpha(G^{k}) {'=' if row.exact else '>='} {row.alpha_best} "
            f"({row.method})")
        if lower is None or row.root > lower.value:
            lower = LowerBound(row.root, k, row.witness, row.exact,
                               row.method)
    if lower is None:
        raise ReportError("no power produced a lower bound")
    value = bracket.hi
    provenance.append(
        f"theta bracket [{bracket.lo!r}, {bracket.hi!r}]"
        f"{'' if bracket.converged else ' (not converged)'}")
    if value - lower.value > CLOSED_TOL:  # interval still open: round outward
        rounded = _round_out(value, 6)
        if rounded != value:
            provenance.append(f"upper {value!r} rounded up to {rounded!r}")
        value = rounded
    upper = UpperBound(value, "theta", bracket)
    report = BoundsReport(G, graph_desc, lower, upper, tuple(table),
                          tuple(provenance), cfg.seed,
                          (cfg.time_budget, cfg.node_budget))
    _check_order(report)
    return report


def _check_order(report):
    lower, upper = report.lower, report.upper.value
    if len(lower.witness) > Fraction(upper) ** lower.power:  # exact
        raise ReportError(f"lower bound {lower.value} exceeds upper bound "
                          f"{upper}; a certificate is wrong")


@dataclass(frozen=True)
class LockinRow:
    k: int
    alpha_best: int
    root: float
    exact: bool
    meets_upper: bool


@dataclass(frozen=True)
class LockinTable:
    graph_desc: str
    upper: float
    rows: tuple
    locked_at: object  # power k, or None


def lockin_scan(G, p_max=2, cfg=None, graph_desc="graph",
                vertex_limit=DEFAULT_VERTEX_LIMIT):
    """The power table of ``compute_bounds``, each row marked when it
    already meets the reported upper bound within ``MEET_TOL``."""
    report = compute_bounds(G, p_max, cfg, graph_desc, vertex_limit)
    upper = report.upper.value
    rows = tuple(LockinRow(r.k, r.alpha_best, r.root, r.exact,
                           r.root >= upper - MEET_TOL) for r in report.table)
    locked = next((r.k for r in rows if r.meets_upper), None)
    return LockinTable(graph_desc, upper, rows, locked)


def certified_upper(G, cert):
    """(source, value): the bound on the capacity of G that ``cert`` proves:
    the certified lambda_max of theta's dual matrix, an umbrella's certified
    value or a fitting matrix's rank.  CertificateRejected if none."""
    if isinstance(cert, ThetaBracket):
        try:
            return "theta", verify_dual_certificate(cert.dual_certificate, G)
        except CertificateError as exc:
            raise CertificateRejected(f"theta certificate rejected: {exc}")
    if isinstance(cert, (VectorUmbrella, DensityUmbrella)):
        check = verify_umbrella(cert, G)
        if not check.valid or check.value == math.inf:
            raise CertificateRejected(
                f"umbrella rejected: {check.violations[:3]}")
        return "umbrella", check.value
    if isinstance(cert, FittingMatrix):
        try:
            return "haemers", float(haemers_certificate(G, cert))
        except FittingError as exc:
            raise CertificateRejected(f"fitting matrix rejected: {exc}")
    raise CertificateRejected(f"unsupported certificate type {type(cert)!r}")


def combine_external_certificate(report, cert):
    """Fold an imported certificate into a report.

    Umbrellas and fitting matrices tighten the upper bound; a packing on
    the (G.n, d) board, its cells read as vertices of G^d, raises the
    lower bound once it passes ``independent_in_power`` on G.  Anything
    that fails verification is rejected and the report stays as it was.
    """
    G = report.graph
    if isinstance(cert, Placement):
        board = cert.board
        if board.p != G.n:
            raise CertificateRejected(f"placement on a {board.p}-wide board; "
                                      f"the report graph has {G.n} vertices")
        pair = independent_in_power(G, board.d, cert.cells)
        if pair is not None:
            raise CertificateRejected(f"placement invalid at cell pair {pair}")
        value = len(cert) ** (1.0 / board.d)
        if value > report.lower.value:  # cells of G^d, named as strong_power does
            witness = tuple(sum(map(G.label_of, cell), ()) for cell in cert.cells)
            report = replace(
                report,
                lower=LowerBound(value, board.d, witness, False, "placement"),
                provenance=report.provenance +
                (f"imported {len(cert)}-king packing on ({board.p},{board.d})",))
    else:
        source, value = certified_upper(G, cert)
        if value < report.upper.value:
            report = replace(report, upper=UpperBound(value, source, cert),
                             provenance=report.provenance +
                             (f"imported {source} upper bound {value!r}",))
    _check_order(report)
    return report


def _check_witness(what, G, k, witness, size, root):
    """ReportError unless ``witness`` is an independent set of G^k of
    ``size`` cells whose k-th root is ``root``.  A cell names a vertex of
    G^k as ``strong_power`` labels it, by the k labels of its coordinates
    in G concatenated; it must read as such in exactly one way."""
    ids = {G.label_of(v): v for v in range(G.n)}
    lengths = sorted({len(label) for label in ids})

    def readings(cell, k):
        if k < 1:
            return [()] if k == 0 and cell == () else []
        return [(ids[cell[:m]],) + rest for m in lengths
                if m <= len(cell) and cell[:m] in ids
                for rest in readings(cell[m:], k - 1)]

    cells = []
    for cell in witness:
        read = readings(cell, k) if isinstance(cell, tuple) else []
        if len(read) != 1:
            raise ReportError(f"{what} cell {cell!r} is not a vertex of G^{k}")
        cells += read
    try:
        pair = independent_in_power(G, k, cells)
    except GraphError as exc:
        raise ReportError(f"{what} {exc}") from None
    if pair is not None:
        raise ReportError(f"{what} pair {pair} adjacent")
    if size != len(witness) or root != size ** (1.0 / k):
        raise ReportError(f"{what} does not match the stated size or root")


def verify_report(report):
    """Re-check the witnesses independent of how the report was assembled:
    the lower witness and every table row's witness, whatever the method,
    must be an independent set of the stated power (each cell read back
    into G's vertices through G's labels, then checked on G's own
    adjacency; G^k is never built) that matches its stated size and root;
    the upper certificate must prove the stated upper value; and the pair
    must still bracket."""
    G, lower = report.graph, report.lower
    _check_witness("lower witness", G, lower.power, lower.witness,
                   len(lower.witness), lower.value)
    for r in report.table:
        _check_witness(f"row k={r.k} witness", G, r.k, r.witness,
                       r.alpha_best, r.root)
    _, proven = certified_upper(report.graph, report.upper.certificate)
    if proven > report.upper.value:
        raise ReportError(
            f"upper certificate proves {proven!r}, not the stated "
            f"{report.upper.value!r}")
    _check_order(report)
    return True


# -- rendering ----------------------------------------------------------------


def report_to_dict(report):
    return {
        "graph": {"desc": report.graph_desc, "n": report.graph.n,
                  "m": report.graph.num_edges},
        "lower": {
            "value": report.lower.value,
            "display": f"{report.lower.value:.7g}",
            "power": report.lower.power,
            "witness_size": len(report.lower.witness),
            "witness": [list(cell) for cell in report.lower.witness],
            "proven": report.lower.proven,
            "method": report.lower.method,
        },
        "upper": {
            "value": report.upper.value,
            "display": _upper_display(report.upper.value),
            "source": report.upper.source,
        },
        "table": [{"k": r.k, "alpha": r.alpha_best, "root": r.root,
                   "exact": r.exact} for r in report.table],
        "provenance": list(report.provenance),
        "seed": report.seed,
        "budget": {"time": report.budget[0], "nodes": report.budget[1]},
    }


def report_to_json(report):
    return json.dumps(report_to_dict(report), sort_keys=True)


def render_report(report):
    lo, hi = report.interval()
    hi_text = _upper_display(hi)
    upper_line = f"  upper: {hi_text} from {report.upper.source}"
    if report.upper.source == "theta":
        bracket = report.upper.certificate
        upper_line += (
            f" (theta bracket [{_round_out(bracket.lo, 7, ROUND_FLOOR):.7g}, "
            f"{_upper_display(bracket.hi)}])")
    lines = [
        f"capacity bounds for {report.graph_desc} "
        f"(n={report.graph.n}, m={report.graph.num_edges})",
        f"  interval: [{lo:.7g}, {hi_text}]",
        f"  lower: {lo:.7g} = {len(report.lower.witness)}^(1/{report.lower.power})"
        f" [{report.lower.method}{'' if report.lower.proven else ', not proven optimal'}]",
        upper_line,
        "  powers:",
    ]
    for r in report.table:
        lines.append(f"    k={r.k}: alpha{'=' if r.exact else '>='}"
                     f"{r.alpha_best}  root={r.root:.7g}")
    return "\n".join(lines) + "\n"


def render_lockin(table):
    lines = [f"lock-in scan for {table.graph_desc}; "
             f"upper bound {_upper_display(table.upper)}"]
    for r in table.rows:
        mark = "  <-- meets upper bound" if r.meets_upper else ""
        lines.append(f"  k={r.k}: alpha{'=' if r.exact else '>='}{r.alpha_best}"
                     f"  root={r.root:.7g}{mark}")
    if table.locked_at is None:
        gap = table.upper - max(r.root for r in table.rows)
        lines.append(f"  no power meets the upper bound; gap {gap:.7g}")
    return "\n".join(lines) + "\n"


def lockin_to_dict(table):
    return {
        "graph": table.graph_desc,
        "upper": table.upper,
        "rows": [{"k": r.k, "alpha": r.alpha_best, "root": r.root,
                  "exact": r.exact, "meets_upper": r.meets_upper}
                 for r in table.rows],
        "locked_at": table.locked_at,
    }

"""Spans around the public functions of each shancap layer.

``Tracer.install`` replaces every module binding of each wrapped function
(``heuristic_independent_set``, for one, is imported into ``solvers``,
``report``, ``kings`` and the package root), so calls through any of them
are recorded.  A function a later refactor removes is skipped and its
metrics read 0.  Spans stay in memory, one list per pass:
``[name, start, end, parent index or -1, summary of the result]``.

``layer_metrics`` turns one pass of spans into the per-layer metrics.  A
span's self time is its duration minus its children's; because the calls
nest on one thread, the self times of all spans add up to the time of the
outermost spans.
"""

from __future__ import annotations

import functools
import sys
import time


def _mis(r):
    return {"proven": r.proven_optimal, "gap": r.upper_bound - len(r.vertices)}


def _sigma(r):
    return {"proven": r[1].proven_optimal}


def _theta(r):
    return {"iterations": r.iterations, "width": r.hi - r.lo,
            "converged": r.converged}


def _cliques(r):
    return {"count": len(r)}


def _kings(r):
    return {"proven": r.proven_optimal, "gap": r.upper_bound - r.count}


def _report(r):
    return {"skipped": sum("skipped" in line for line in r.provenance)}


# (module defining the function, its name, span name, result summary)
TARGETS = (
    ("shancap.graphs", "strong_power", "graphs.strong_power", None),
    ("shancap.kings", "king_graph", "kings.king_graph", None),
    ("shancap.solvers", "max_independent_set", "solvers.mis", _mis),
    ("shancap.solvers", "heuristic_independent_set", "solvers.heuristic", None),
    ("shancap.solvers", "clique_cover_number", "solvers.sigma", _sigma),
    ("shancap.theta", "lovasz_theta", "theta", _theta),
    ("shancap.theta", "verify_dual_certificate", "theta.verify_dual", None),
    ("shancap.fractional", "rosenfeld_number", "fractional.rho", None),
    ("shancap.solvers", "enumerate_maximal_cliques", "fractional.cliques",
     _cliques),
    ("shancap.fractional", "lp_solve_exact", "fractional.lp", None),
    ("shancap.kings", "exact_max_kings", "kings.exact", _kings),
    ("shancap.kings", "heuristic_max_kings", "kings.heuristic", None),
    ("shancap.kings", "canonical_placement", "kings.canonical", None),
    ("shancap.report", "compute_bounds", "report", _report),
)

# Per-layer metrics with their units; layer_metrics fills every one.
UNITS = {
    "graphs.strong_power.s": "s",
    "kings.king_graph.s": "s",
    "solvers.mis.s": "s",
    "solvers.mis.self_s": "s",
    "solvers.mis.calls": "count",
    "solvers.mis.proven_frac": "ratio",
    "solvers.mis.gap": "count",
    "solvers.heuristic.s": "s",
    "solvers.heuristic.calls": "count",
    "solvers.sigma.s": "s",
    "solvers.sigma.proven_frac": "ratio",
    "theta.s": "s",
    "theta.iterations": "count",
    "theta.width": "1",
    "theta.converged_frac": "ratio",
    "theta.verify_dual.s": "s",
    "theta.verify_dual.calls": "count",
    "fractional.rho.s": "s",
    "fractional.cliques.s": "s",
    "fractional.cliques.count": "count",
    "fractional.lp.s": "s",
    "kings.exact.s": "s",
    "kings.exact.self_s": "s",
    "kings.heuristic.s": "s",
    "kings.canonical.s": "s",
    "kings.proven_frac": "ratio",
    "kings.gap": "count",
    "report.self_s": "s",
    "report.skipped_powers": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.passes = []
        self.summary_errors = 0
        self._stack = []

    def new_pass(self):
        self.passes.append([])

    def install(self):
        """Wrap every ``shancap`` module binding of each target function."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "shancap" or name.startswith("shancap.")]
        for module, name, span, summarize in TARGETS:
            original = getattr(sys.modules.get(module), name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span, summarize)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fn, name, summarize):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.passes[-1]
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if summarize is not None:
                try:
                    record[4] = summarize(result)
                except (AttributeError, TypeError, IndexError):
                    self.summary_errors += 1
            return result

        return wrapper


def layer_metrics(spans):
    """Per-layer metrics of one pass (every key of ``UNITS`` except the
    ``trace.*`` ones, which need the pass's wall time), plus
    ``self_total``: the summed self time of all spans."""
    self_time = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start

    def outermost(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    def of(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in of(name) if outermost(i))

    def own(name):
        return sum(self_time[i] for i in of(name))

    def infos(name, key):
        return [spans[i][4][key] for i in of(name) if spans[i][4] is not None]

    def frac(name, key):
        values = infos(name, key)
        return sum(map(bool, values)) / len(values) if values else 0.0

    return {
        "graphs.strong_power.s": total("graphs.strong_power"),
        "kings.king_graph.s": total("kings.king_graph"),
        "solvers.mis.s": total("solvers.mis"),
        "solvers.mis.self_s": own("solvers.mis"),
        "solvers.mis.calls": len(of("solvers.mis")),
        "solvers.mis.proven_frac": frac("solvers.mis", "proven"),
        "solvers.mis.gap": sum(infos("solvers.mis", "gap")),
        "solvers.heuristic.s": total("solvers.heuristic"),
        "solvers.heuristic.calls": len(of("solvers.heuristic")),
        "solvers.sigma.s": total("solvers.sigma"),
        "solvers.sigma.proven_frac": frac("solvers.sigma", "proven"),
        "theta.s": total("theta"),
        "theta.iterations": sum(infos("theta", "iterations")),
        "theta.width": sum(infos("theta", "width")),
        "theta.converged_frac": frac("theta", "converged"),
        "theta.verify_dual.s": total("theta.verify_dual"),
        "theta.verify_dual.calls": len(of("theta.verify_dual")),
        "fractional.rho.s": total("fractional.rho"),
        "fractional.cliques.s": total("fractional.cliques"),
        "fractional.cliques.count": sum(infos("fractional.cliques", "count")),
        "fractional.lp.s": total("fractional.lp"),
        "kings.exact.s": total("kings.exact"),
        "kings.exact.self_s": own("kings.exact"),
        "kings.heuristic.s": total("kings.heuristic"),
        "kings.canonical.s": total("kings.canonical"),
        "kings.proven_frac": frac("kings.exact", "proven"),
        "kings.gap": sum(infos("kings.exact", "gap")),
        "report.self_s": own("report"),
        "report.skipped_powers": sum(infos("report", "skipped")),
        "self_total": sum(self_time),
    }

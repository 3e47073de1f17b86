"""Command-line interface.

Exit codes: 0 success, 1 invalid input, 2 when --strict is set and any
result degraded to an unproven bound, 3 (``EXIT_INTERNAL``) when a report
that ``bounds`` computed fails ``verify_report``: an internal error, with
nothing on stdout.  --json emits machine-readable output on stdout;
--seed makes every randomized component reproducible byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graphio
from .fractional import rosenfeld_number
from .graphs import (DEFAULT_VERTEX_LIMIT, GraphError, complement,
                     conormal_product, disjoint_union, generate,
                     strong_power, strong_product)
from .haemers import fitting_from_json, haemers_certificate, verify_fitting
from .kings import (RENDER_FORMATS, Board, canonical_placement,
                    capped_result, exact_max_kings, heuristic_max_kings,
                    layered_construction, placement_from_json, render_board)
from .report import (ReportError, compute_bounds, lockin_to_dict,
                     lockin_scan, render_lockin, render_report,
                     report_to_dict, verify_report)
from .solvers import (SolverConfig, clique_cover_number, max_clique,
                      max_independent_set)
from .theta import lovasz_theta
from .umbrella import (odd_cycle_umbrella, tensor_umbrella, umbrella_from_json,
                       umbrella_to_json, verify_umbrella)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DEGRADED = 2
EXIT_INTERNAL = 3


class SpecParseError(GraphError):
    pass


def graph_spec_parse(spec, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """Grammar: cycle:n | path:n | complete:n | empty:n | file:<path>
    | complement(<spec>) | strong(<spec>,<spec>) | power(<spec>,k)."""
    spec = spec.strip()

    def fail(msg, token):
        raise SpecParseError(f"{msg} at {token!r} in graph spec {spec!r}")

    def split_args(body):
        parts, depth, cur = [], 0, []
        for ch in body:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    fail("unbalanced parenthesis", body)
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        if depth != 0:
            fail("unbalanced parenthesis", body)
        parts.append("".join(cur))
        return parts

    def parse(s):
        s = s.strip()
        if not s:
            fail("empty spec", s)
        if "(" in s and s.endswith(")"):
            head, body = s.split("(", 1)
            head = head.strip()
            body = body[:-1]
            args = split_args(body)
            if head == "complement":
                if len(args) != 1:
                    fail("complement takes one argument", s)
                return complement(parse(args[0]))
            if head == "strong":
                if len(args) != 2:
                    fail("strong takes two arguments", s)
                return strong_product(parse(args[0]), parse(args[1]),
                                      vertex_limit=vertex_limit)
            if head == "power":
                if len(args) != 2:
                    fail("power takes a spec and an integer", s)
                try:
                    k = int(args[1])
                except ValueError:
                    fail("power exponent must be an integer", args[1])
                return strong_power(parse(args[0]), k, vertex_limit=vertex_limit)
            fail("unknown operator", head)
        if ":" in s:
            head, _, arg = s.partition(":")
            head = head.strip()
            if head == "file":
                try:
                    return graphio.load_graph(arg.strip(), vertex_limit)
                except OSError as exc:
                    fail(f"cannot read graph file ({exc})", arg)
            if head in ("cycle", "path", "complete", "empty"):
                try:
                    n = int(arg)
                except ValueError:
                    fail("size must be an integer", arg)
                return generate(head, n, vertex_limit)
            fail("unknown generator", head)
        fail("unrecognized token", s)

    return parse(spec)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _emit(args, doc, text):
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cfg(args):
    return SolverConfig(time_budget=args.time_budget,
                        node_budget=args.node_budget,
                        seed=getattr(args, "seed", 0))


def _graph_arg(args):
    if args.graph and args.graph_pos:
        raise SpecParseError(f"two graph specs given ({args.graph_pos!r} and "
                             f"--graph {args.graph!r}); give one")
    spec = args.graph if args.graph else args.graph_pos
    if not spec:
        raise SpecParseError("a graph spec is required (positional or --graph)")
    return graph_spec_parse(spec, vertex_limit=args.vertex_limit), spec


_OPTIONS = {
    "json": dict(action="store_true", help="machine-readable JSON on stdout"),
    "seed": dict(type=int, default=0),
    "strict": dict(action="store_true",
                   help="exit 2 when any result is not proven optimal"),
    "time-budget": dict(type=float, default=SolverConfig.time_budget),
    "node-budget": dict(type=int, default=SolverConfig.node_budget),
    "vertex-limit": dict(type=int, default=DEFAULT_VERTEX_LIMIT),
}

_PRODUCTS = {"strong": strong_product, "conormal": conormal_product,
             "union": disjoint_union}


def _options(*names):
    """Parent parser holding the shared options a verb reads, by name."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        parent.add_argument(f"--{name}", **_OPTIONS[name])
    return parent


def build_parser():
    io = _options("json", "vertex-limit")
    solve = _options(*_OPTIONS)

    graphful = argparse.ArgumentParser(add_help=False)
    graphful.add_argument("graph_pos", nargs="?", metavar="GRAPH",
                          help="graph spec, e.g. cycle:7 or power(cycle:5,2)")
    graphful.add_argument("--graph", help="graph spec (alternative to positional)")

    p = _Parser(prog="shancap",
                description="certified Shannon-capacity bounds for graphs")
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("gen", parents=[_options("vertex-limit"), graphful],
                        help="generate/compose a graph and write it out")
    sp.add_argument("--format", choices=graphio.FORMATS, default="json")
    sp.add_argument("-o", "--output")

    sub.add_parser("complement", parents=[io, graphful],
                   help="complement of a graph (JSON to stdout)")

    sp = sub.add_parser("product", parents=[io],
                        help="strong/conormal/union product of two specs")
    sp.add_argument("kind", choices=_PRODUCTS)
    sp.add_argument("left")
    sp.add_argument("right")

    sp = sub.add_parser("power", parents=[io, graphful],
                        help="strong power of a graph")
    sp.add_argument("k", type=int)

    for verb, options, help_text in (
            ("alpha", solve, "independence number"),
            ("omega", solve, "clique number"),
            ("sigma", _options("json", "strict", "time-budget", "node-budget",
                               "vertex-limit"), "clique cover number"),
            ("rho", io, "fractional clique-constrained optimum"),
            ("theta", _options("json", "strict", "time-budget", "vertex-limit"),
             "certified theta bracket")):
        sp = sub.add_parser(verb, parents=[options, graphful], help=help_text)
        if verb == "theta":
            sp.add_argument(
                "--tol", type=float, default=1e-6,
                help="width at which the bracket counts as converged; the "
                     "solver stops at widths near 1e-11 to 1e-10 relative "
                     "to theta whatever the value, so a --tol below that "
                     "is reported not converged (and --strict exits 2)")

    sp = sub.add_parser("kings", parents=[solve],
                        help="king packings on a toroidal board")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--method", choices=("exact", "layered", "heuristic"),
                    default="exact")
    sp.add_argument("--render", choices=RENDER_FORMATS)
    sp.add_argument("--force-exact", action="store_true",
                    help="run the exact search even on boards declared out "
                         "of the default budget")

    sp = sub.add_parser("umbrella",
                        help="generate / verify / tensor umbrella certificates")
    usub = sp.add_subparsers(dest="action", required=True)
    g = usub.add_parser("gen-cycle")
    g.add_argument("n", type=int)
    g.add_argument("-o", "--output")
    v = usub.add_parser("verify", parents=[io, graphful])
    v.add_argument("file")
    t = usub.add_parser("tensor")
    t.add_argument("left")
    t.add_argument("right")
    t.add_argument("-o", "--output")

    sp = sub.add_parser("haemers",
                        help="verify a fitting matrix and report its rank")
    hsub = sp.add_subparsers(dest="action", required=True)
    hv = hsub.add_parser("verify", parents=[io, graphful])
    hv.add_argument("--matrix", required=True)

    sp = sub.add_parser("bounds", parents=[solve, graphful],
                        help="certified capacity interval")
    sp.add_argument("--max-power", type=int, default=2)

    sp = sub.add_parser("lockin", parents=[solve, graphful],
                        help="normalized independence numbers of powers")
    sp.add_argument("--p-max", type=int, default=2)

    sp = sub.add_parser("render", help="draw a placement JSON file")
    sp.add_argument("file")
    sp.add_argument("--format", choices=RENDER_FORMATS, default="ascii")
    return p


def _write_out(args, payload):
    if getattr(args, "output", None):
        mode = "wb" if isinstance(payload, bytes) else "w"
        with open(args.output, mode) as fh:
            fh.write(payload)
    else:
        if isinstance(payload, bytes):
            sys.stdout.write(payload.decode("ascii"))
            sys.stdout.write("\n")
        else:
            print(payload)


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        return _dispatch(args)
    except (GraphError, ValueError, OSError) as exc:
        return _fail(str(exc))


def _dispatch(args):
    degraded = False
    verb = args.verb

    if verb == "gen":
        G, _ = _graph_arg(args)
        _write_out(args, graphio.write_graph(G, args.format))
        return EXIT_OK

    if verb == "complement":
        G, _ = _graph_arg(args)
        print(graphio.write_json(complement(G)))
        return EXIT_OK

    if verb == "product":
        L = graph_spec_parse(args.left, vertex_limit=args.vertex_limit)
        R = graph_spec_parse(args.right, vertex_limit=args.vertex_limit)
        print(graphio.write_json(
            _PRODUCTS[args.kind](L, R, vertex_limit=args.vertex_limit)))
        return EXIT_OK

    if verb == "power":
        G, _ = _graph_arg(args)
        print(graphio.write_json(
            strong_power(G, args.k, vertex_limit=args.vertex_limit)))
        return EXIT_OK

    if verb == "alpha":
        G, spec = _graph_arg(args)
        res = max_independent_set(G, _cfg(args))
        degraded = not res.proven_optimal
        doc = {"graph": spec, "alpha": len(res.vertices),
               "proven": res.proven_optimal, "upper_bound": res.upper_bound,
               "witness": list(res.vertices)}
        _emit(args, doc,
              f"alpha({spec}) {'=' if res.proven_optimal else '>='} "
              f"{len(res.vertices)} (upper bound {res.upper_bound})")

    elif verb == "omega":
        G, spec = _graph_arg(args)
        res = max_clique(G, _cfg(args))
        degraded = not res.proven_optimal
        doc = {"graph": spec, "omega": len(res.vertices),
               "proven": res.proven_optimal, "witness": list(res.vertices)}
        _emit(args, doc,
              f"omega({spec}) {'=' if res.proven_optimal else '>='} "
              f"{len(res.vertices)}")

    elif verb == "sigma":
        G, spec = _graph_arg(args)
        value, cover = clique_cover_number(G, _cfg(args))
        degraded = not cover.proven_optimal
        doc = {"graph": spec, "sigma": value, "proven": cover.proven_optimal,
               "parts": [list(part) for part in cover.parts]}
        _emit(args, doc,
              f"sigma({spec}) {'=' if cover.proven_optimal else '<='} {value}")

    elif verb == "rho":
        G, spec = _graph_arg(args)
        value, weighting = rosenfeld_number(G)
        doc = {"graph": spec, "value": str(value),
               "weights": {str(v): str(w)
                           for v, w in enumerate(weighting.weights)}}
        _emit(args, doc, f"rho({spec}) = {value} (~{float(value):.7g})")

    elif verb == "theta":
        G, spec = _graph_arg(args)
        bracket = lovasz_theta(G, tol=args.tol, time_budget=args.time_budget)
        degraded = not bracket.converged
        doc = {"graph": spec, "lo": bracket.lo, "hi": bracket.hi,
               "converged": bracket.converged, "iterations": bracket.iterations}
        _emit(args, doc,
              f"theta({spec}) in [{bracket.lo:.9f}, {bracket.hi:.9f}]"
              f"{'' if bracket.converged else ' (not converged)'}")

    elif verb == "kings":
        board = Board(args.p, args.d)
        cfg = _cfg(args)
        skipped = False
        if args.method == "heuristic":
            res = heuristic_max_kings(board, cfg, args.vertex_limit)
        elif args.method == "exact":
            res, skipped = _guarded_exact_kings(board, cfg, args)
        elif args.d < 2:
            return _fail("layered needs d >= 2")
        else:
            sub, skipped = _guarded_exact_kings(Board(args.p, args.d - 1),
                                                cfg, args)
            res = capped_result(
                canonical_placement(layered_construction(sub.placement)),
                cfg.time_budget)
        degraded = not res.proven_optimal
        doc = {"p": args.p, "d": args.d, "count": res.count,
               "proven": res.proven_optimal, "upper_bound": res.upper_bound,
               "cells": [list(c) for c in res.placement.cells]}
        text = (f"kings({args.p},{args.d}) "
                f"{'=' if res.proven_optimal else '>='} {res.count}")
        if skipped:
            doc["note"] = ("exact search out of default budget; "
                           "--force-exact overrides")
            text += (f" (upper bound {res.upper_bound}; exact search skipped, "
                     f"use --force-exact)")
        if args.render:
            text += "\n" + render_board(res.placement, args.render)
        _emit(args, doc, text)

    elif verb == "umbrella":
        return _umbrella(args)

    elif verb == "haemers":
        G, spec = _graph_arg(args)
        with open(args.matrix) as fh:
            B = fitting_from_json(fh.read())
        rep = verify_fitting(B, G)
        if not rep.fits:
            return _fail(f"matrix does not fit ({rep.convention}): "
                         f"{rep.violation}")
        bound = haemers_certificate(G, B)
        doc = {"graph": spec, "fits": True, "rank": bound,
               "convention": rep.convention}
        _emit(args, doc,
              f"fitting matrix verified ({rep.convention}); rank = {bound} "
              f">= alpha({spec})")

    elif verb == "bounds":
        G, spec = _graph_arg(args)
        rep = compute_bounds(G, max_power=args.max_power, cfg=_cfg(args),
                             graph_desc=spec, vertex_limit=args.vertex_limit)
        try:
            verify_report(rep)
        except ReportError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        degraded = not (rep.lower.proven and
                        all(r.exact for r in rep.table))
        _emit(args, report_to_dict(rep), render_report(rep))

    elif verb == "lockin":
        G, spec = _graph_arg(args)
        table = lockin_scan(G, p_max=args.p_max, cfg=_cfg(args),
                            graph_desc=spec, vertex_limit=args.vertex_limit)
        degraded = not all(r.exact for r in table.rows)
        _emit(args, lockin_to_dict(table), render_lockin(table))

    elif verb == "render":
        with open(args.file) as fh:
            pl = placement_from_json(fh.read())
        print(render_board(pl, args.format), end="")

    if degraded and args.strict:
        return EXIT_DEGRADED
    return EXIT_OK


def _guarded_exact_kings(board, cfg, args):
    """(result, skipped): ``exact_max_kings``, or on a board declared out of
    the default budget (more than 130 cells, no --force-exact) the
    heuristic incumbent with its board's cap instead of a stalled search."""
    if board.cells > 130 and not args.force_exact:
        return heuristic_max_kings(board, cfg, args.vertex_limit), True
    return exact_max_kings(board, cfg, args.vertex_limit), False


def _umbrella(args):
    if args.action == "gen-cycle":
        u = odd_cycle_umbrella(args.n)
        _write_out(args, umbrella_to_json(u))
        return EXIT_OK
    if args.action == "verify":
        G, spec = _graph_arg(args)
        with open(args.file) as fh:
            u = umbrella_from_json(fh.read())
        rep = verify_umbrella(u, G)
        doc = {"graph": spec, "valid": rep.valid,
               "max_orthogonality_residual": rep.max_orthogonality_residual,
               "value": rep.value if rep.valid else None,
               "violations": [list(map(str, v)) for v in rep.violations[:10]]}
        _emit(args, doc, f"umbrella valid for {spec}; value {rep.value:.9f} "
              "bounds alpha and the capacity" if rep.valid else
              f"umbrella INVALID for {spec}: {rep.violations[:5]}")
        return EXIT_OK if rep.valid else EXIT_INVALID
    with open(args.left) as fh:  # tensor, the last of the three actions
        a = umbrella_from_json(fh.read())
    with open(args.right) as fh:
        b = umbrella_from_json(fh.read())
    _write_out(args, umbrella_to_json(tensor_umbrella(a, b)))
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

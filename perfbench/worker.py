"""Runs one workload against the public shancap API, in its own process.

    python3 perfbench/worker.py --workload NAME --mode MODE
                                [--seconds S] [--smoke]

Modes:
  setup    import shancap, build the inputs, print the monotonic clock
           (run.py times process start to inputs ready from it) and exit;
  measure  run untraced passes over the items for about --seconds;
  trace    spend half of --seconds untraced, then wrap every layer
           (tracing.Tracer) and spend the other half traced.

measure and trace print one JSON object: the raw result of every item in
every pass, the spans of the traced passes and the process's peak RSS.
The checks run in run.py, which never imports shancap.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (sibling module; the script dir is on sys.path)
from tracing import Tracer  # noqa: E402


def build(shancap, items):
    """shancap objects for the items; the harness only hands over inputs."""
    out = []
    for item in items:
        if item.call == "kings":
            out.append(shancap.Board(item.p, item.d))
        else:
            out.append(shancap.from_edges(item.n, item.edges))
    return out


def _bounds_result(report):
    cert = report.upper.certificate
    theta = [cert.lo, cert.hi] if hasattr(cert, "lo") and hasattr(cert, "hi") else None
    return {
        "rows": [{"k": r.k, "alpha": r.alpha_best, "exact": r.exact,
                  "witness": [list(c) for c in r.witness]} for r in report.table],
        "lower": report.lower.value,
        "upper": report.upper.value,
        "source": report.upper.source,
        "theta": theta,
        "skipped": [line for line in report.provenance if "skipped" in line],
    }


def _kings_result(res):
    return {"count": res.count, "proven": res.proven_optimal,
            "upper_bound": res.upper_bound,
            "cells": [list(c) for c in res.placement.cells]}


def run_item(shancap, item, obj, cfg):
    """Time one public call; the summary is built outside the timed part.
    Any exception is recorded as the item's result: the run goes on and
    the checker counts the item as failed."""
    start = time.perf_counter()
    try:
        if item.call == "kings":
            out = shancap.exact_max_kings(obj, cfg)
        else:
            out = shancap.compute_bounds(obj, max_power=item.max_power,
                                         cfg=cfg, graph_desc=item.label)
    except Exception as exc:  # noqa: BLE001  (boundary: report, keep running)
        return {"elapsed": time.perf_counter() - start,
                "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    res = _kings_result(out) if item.call == "kings" else _bounds_result(out)
    res["elapsed"] = elapsed
    return res


def run_passes(shancap, items, objs, cfg, seconds, tracer=None):
    """Passes over all items; another starts only while it is expected to
    end within ``seconds``.  At least one pass runs."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.new_pass()
        t0 = time.perf_counter()
        passes.append([run_item(shancap, it, ob, cfg) for it, ob in zip(items, objs)])
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import shancap

    items = workloads.items(args.workload, args.smoke)
    objs = build(shancap, items)
    cfg = shancap.SolverConfig(time_budget=workloads.TIME_BUDGET,
                               node_budget=workloads.NODE_BUDGET,
                               seed=workloads.SOLVER_SEED)
    if args.mode == "setup":
        print(time.monotonic())
        return 0
    out = {}
    if args.mode == "measure":
        out["passes"] = run_passes(shancap, items, objs, cfg, args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        half = args.seconds / 2
        out["passes"] = run_passes(shancap, items, objs, cfg, half)
        tracer = Tracer()
        tracer.install()
        out["traced"] = run_passes(shancap, items, objs, cfg, half, tracer)
        out["spans"] = tracer.passes
        out["summary_errors"] = tracer.summary_errors
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of shancap's certified capacity intervals (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout.  Set-up time is the median of several
fresh worker processes; the measurement runs in one more worker (worker.py).
Every result is checked here, by checks.py, which never imports shancap.
Prints one line per metric, then, as the last line, the JSON summary
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1.  The whole record (machine,
budgets, every result, spans) goes to .perfbench/ in the checkout.  Exits 1
when an output check or a worker fails, 2 when the checkout has no shancap
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
RUN_LIMIT = 170.0  # seconds for every child process of one run together
# Largest share of the traced wall time the layer self times may leave
# unexplained: only the harness's timer calls and the wrappers' own entry
# run outside the outermost spans.
TRACE_TOLERANCE = 0.02

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "proven_frac": "ratio",
    "alpha_sum": "count",
    "gap_sum": "1",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class HarnessError(RuntimeError):
    pass


def worker(args, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("run time limit spent before " + " ".join(args))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {' '.join(args)} exceeded the run time limit")
    if proc.returncode != 0:
        raise HarnessError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return proc.stdout


def setup_seconds(common, deadline):
    """Process start to inputs ready.  The worker prints its monotonic
    clock, which on Linux all processes share."""
    start = time.monotonic()
    ready = float(worker(common + ["--mode", "setup"], deadline).strip())
    return ready - start


def _blas_threads():
    """OpenBLAS thread count read from the library numpy loaded, or None."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def _quality(item, res):
    """(exact searches, proven, alpha, gap) of one result."""
    if "error" in res:
        return (item.max_power if item.call == "bounds" else 1), 0, 0, 0.0
    if item.call == "kings":
        return 1, int(res["proven"]), res["count"], res["upper_bound"] - res["count"]
    rows = res["rows"]
    return (item.max_power, sum(r["exact"] for r in rows),
            sum(r["alpha"] for r in rows), res["upper"] - res["lower"])


def _signature(res):
    """What must repeat exactly from pass to pass."""
    if "error" in res:
        return res["error"]
    if "rows" in res:
        return ([(r["k"], r["alpha"], r["exact"]) for r in res["rows"]],
                res["lower"], res["upper"])
    return (res["count"], res["proven"], res["upper_bound"])


def judge(items, passes, reference):
    """Check every result of every pass.  Returns (problems, failures):
    the output-check failures, and one line per item run that failed for
    any reason: it raised, skipped a power, reached its time budget (the
    result then depends on the machine) or failed a check."""
    problems, failures = [], []
    for results in passes:
        for item, res, first in zip(items, results, passes[0]):
            bad = []
            if "error" in res:
                bad.append(f"{item.label} raised {res['error']}")
            elif item.call == "kings":
                bad += checks.check_kings(item, res)
            else:
                bad += checks.check_bounds(item, res, reference.get(item.label))
            if _signature(res) != _signature(first):
                bad.append(f"{item.label}: result differs between passes")
            problems += bad
            why = bad + res.get("skipped", [])
            if res["elapsed"] >= workloads.TIME_BUDGET:
                why.append(f"{item.label} took {res['elapsed']:.1f} s, reaching "
                           f"its {workloads.TIME_BUDGET} s time budget")
            if why:
                failures.append("; ".join(why))
    return problems, failures


def pass_wall(results):
    return sum(res["elapsed"] for res in results)


def end_to_end(items, out, setup, failed):
    passes = out["passes"]
    searches = proven = alpha = 0
    gap = 0.0
    for item, res in zip(items, passes[0]):
        s, p, a, g = _quality(item, res)
        searches += s
        proven += p
        alpha += a
        gap += g
    attempted = len(items) * len(passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_wall(r) for r in passes),
        "proven_frac": proven / searches,
        "alpha_sum": alpha,
        "gap_sum": gap,
        "peak_rss_mb": out["peak_rss_mb"],
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(out, problems):
    """Median over traced passes of each layer metric, the traced wall time,
    the overhead against the untraced passes, and the self-time check."""
    rows = []
    for results, spans in zip(out["traced"], out["spans"]):
        row = tracing.layer_metrics(spans)
        row["trace.wall_s"] = pass_wall(results)
        row["trace.unattributed_frac"] = 1 - row.pop("self_total") / row["trace.wall_s"]
        if not 0 <= row["trace.unattributed_frac"] <= TRACE_TOLERANCE:
            problems.append(f"layer self times explain "
                            f"{1 - row['trace.unattributed_frac']:.2%} of the "
                            f"traced wall time (tolerance {TRACE_TOLERANCE:.0%})")
        rows.append(row)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    untraced = statistics.median(pass_wall(r) for r in out["passes"])
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced - 1
    return {k: metrics[k] for k in tracing.UNITS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up probe, for tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "shancap" / "__init__.py").is_file():
        print(f"no shancap sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT
    items = workloads.items(args.workload, args.smoke)
    common = ["--workload", args.workload] + (["--smoke"] if args.smoke else [])
    try:
        setup = [setup_seconds(common, deadline)
                 for _ in range(1 if args.smoke else SETUP_PROBES)]
        mode = ["--mode", "trace" if args.trace else "measure",
                "--seconds", repr(args.seconds)]
        out = json.loads(worker(common + mode, deadline))
    except HarnessError as exc:
        print(exc, file=sys.stderr)
        return 1

    reference = {it.label: checks.alpha_networkx(it.n, it.edges)
                 for it in items if it.family == "random"}
    runs = out["passes"] + out.get("traced", [])
    problems, failures = judge(items, runs, reference)
    if args.trace:
        metrics = per_layer(out, problems)
        units = tracing.UNITS
    else:
        metrics = end_to_end(items, out, setup, len(failures))
        units = E2E_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "budgets": {"nodes": workloads.NODE_BUDGET,
                    "time_s": workloads.TIME_BUDGET,
                    "solver_seed": workloads.SOLVER_SEED},
        "machine": machine_info(),
        "items": [it.label for it in items],
        "setup_samples": setup,
        "problems": problems,
        "failures": failures,
        "metrics": metrics,
        **out,
    }
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}.json")
    (outdir / name).write_text(json.dumps(record))

    for line in failures:
        print("FAILED:", line, file=sys.stderr)
    print("machine", json.dumps(record["machine"]), json.dumps(record["budgets"]))
    for key, value in metrics.items():
        print(f"{key} {value!r} {units[key]}")
    summary = {
        "correct": not problems,
        "attempted": len(items) * len(runs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

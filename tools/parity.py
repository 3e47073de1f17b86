"""Hash what shancap computes, to show that a change keeps it byte for byte.

    python3 tools/parity.py [TREE]

TREE is a checkout of this repository (default: the one holding this
script); its ``src/shancap`` is imported and its ``perfbench/workloads.py``
gives the benchmark's inputs and budgets.  Run it on two trees and compare:
equal hashes mean equal outputs.  Prints one SHA-256 per part, then one
over all parts:

  reports    ``report_to_json`` of every cycle-powers and upper-bounds input
  kings      ``exact_max_kings`` count, proof, upper bound and cells on the
             king-boards inputs
  invariant  ``report._invariant_set`` on C7^3, C11^2 and C13^2
  engine     300 seeded ``max_independent_set`` and ``_run_engine`` calls
             (n 1-60, regular and irregular, node budgets 1-5,000) with the
             node count of every engine search they run
  cli        stdout, stderr and exit code of ``cli.run``, in process, on
             each command line of ``CLI_RUNS``

Every call runs under node budgets that bind long before the time budgets,
so the hashes do not depend on the machine's speed.  theta's brackets
depend on the BLAS thread count, so OpenBLAS is held to one thread.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ENGINE_CALLS = 300
CLI_RUNS = (
    "bounds cycle:5",
    "bounds cycle:7 --max-power 3 --node-budget 150000 --json",
    "bounds cycle:7 --max-power 3 --vertex-limit 100 --json",
    "lockin cycle:5 --p-max 2 --json",
    "lockin cycle:7 --p-max 2",
    "lockin cycle:7 --p-max 3 --node-budget 1000 --strict",
    "kings --p 7 --d 3 --force-exact --node-budget 150000 --json",
    "kings --p 5 --d 4 --force-exact --json",
    "power cycle:5 2",
    "alpha cycle:7 --json",
    "omega cycle:5",
    "sigma cycle:7 --json",
    "rho cycle:7 --json",
    "theta cycle:5 --json",
    "complement cycle:4",
    "gen cycle:5 --format dimacs",
    "alpha",
    "alpha cycle:5 --graph cycle:7",
)


def _circulant(shancap, n, rng):
    """A random circulant graph on n vertices, so a regular one."""
    steps = {d for d in range(1, n // 2 + 1) if rng.random() < 0.3}
    return shancap.from_edges(
        n, [(v, (v + d) % n) for v in range(n) for d in steps])


def _gnp(shancap, n, rng):
    """G(n, p) with p drawn uniformly, so (almost always) irregular."""
    p = rng.random()
    return shancap.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p])


def reports(shancap, workloads, cfg):
    for name in ("cycle-powers", "upper-bounds"):
        for item in workloads.items(name):
            G = shancap.from_edges(item.n, item.edges)
            report = shancap.compute_bounds(G, max_power=item.max_power,
                                            cfg=cfg, graph_desc=item.label)
            yield shancap.report_to_json(report)


def kings(shancap, workloads, cfg):
    for item in workloads.items("king-boards"):
        res = shancap.exact_max_kings(shancap.Board(item.p, item.d), cfg)
        yield [item.label, res.count, res.proven_optimal, res.upper_bound,
               [list(c) for c in res.placement.cells]]


def invariant(shancap, workloads, cfg):
    from shancap.report import _invariant_set
    for p, k in ((7, 3), (11, 2), (13, 2)):
        G = shancap.cycle(p)
        out = _invariant_set(G, k, shancap.strong_power(G, k), cfg)
        yield [f"C{p}^{k}", out and [list(out[0]), out[1]]]


def engine(shancap, workloads, cfg):
    from shancap import solvers
    run_engine = solvers._run_engine
    nodes = []

    def counted(*args, **kwargs):
        out = run_engine(*args, **kwargs)
        nodes.append(out[3])
        return out

    solvers._run_engine = counted
    try:
        for i in range(ENGINE_CALLS):
            rng = random.Random(i)
            n = rng.randint(1, 60)
            G = (_circulant if i % 2 else _gnp)(shancap, n, rng)
            call_cfg = shancap.SolverConfig(
                node_budget=rng.randint(1, 5000), seed=rng.randrange(100),
                ordering=rng.choice(("degree", "degeneracy", "label")))
            nodes.clear()
            if i % 4 < 2:
                res = shancap.max_independent_set(G, call_cfg)
                out = [res.vertices, res.proven_optimal, res.upper_bound]
            else:
                weights = ([rng.randint(1, 6) for _ in range(n)]
                           if i % 8 >= 6 else None)
                out = run_engine(G, call_cfg, weights=weights)
            yield [i, n, out, nodes]
    finally:
        solvers._run_engine = run_engine


def cli(shancap, workloads, cfg):
    from shancap.cli import run
    for argv in CLI_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv.split())
        yield [argv, out.getvalue(), err.getvalue(), code]


PARTS = (reports, kings, invariant, engine, cli)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("tree", nargs="?", type=Path,
                    default=Path(__file__).resolve().parents[1])
    tree = ap.parse_args(argv).tree
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import shancap
    import workloads
    cfg = shancap.SolverConfig(time_budget=workloads.TIME_BUDGET,
                               node_budget=workloads.NODE_BUDGET,
                               seed=workloads.SOLVER_SEED)
    overall = hashlib.sha256()
    for part in PARTS:
        h = hashlib.sha256()
        for record in part(shancap, workloads, cfg):
            h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        print(f"{part.__name__:10} {h.hexdigest()}", flush=True)
        overall.update(h.digest())
    print(f"{'overall':10} {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A node budget that binds on C7^3 leaves that row unproven, flagged in the
report and by --strict, with every witness still valid.  No known exact
route proves α(C7^3) = 33 within 150k nodes, so this budget keeps binding
where smaller powers become cheap to prove."""

from shancap.cli import EXIT_DEGRADED, run
from shancap.graphs import cycle
from shancap.report import compute_bounds, verify_report
from shancap.solvers import SolverConfig


def test_a_binding_budget_leaves_the_cube_of_c7_unproven():
    cfg = SolverConfig(node_budget=150_000, seed=0)
    rep = compute_bounds(cycle(7), max_power=3, cfg=cfg, graph_desc="cycle:7")
    row = rep.table[2]
    assert row.k == 3 and not row.exact and row.alpha_best >= 30
    verify_report(rep)  # witnesses still valid, just not proven optimal


def test_strict_bounds_exit_degraded_under_a_binding_budget(capsys):
    code = run(["bounds", "cycle:7", "--max-power", "3", "--node-budget",
                "150000", "--strict"])
    capsys.readouterr()
    assert code == EXIT_DEGRADED == 2

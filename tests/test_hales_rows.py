"""At k = 2 the invariant search runs under the diagonal negation alone,
and reaches Hales' alpha(C_p^2) = floor(p floor(p/2) / 2) (JCT B 1973)
on the odd cycles C5 to C13 under the benchmark's budget; the generic
search stops below it on C11^2 and C13^2, so those rows stay unproven."""

import pytest

from shancap.cli import EXIT_DEGRADED, run
from shancap.graphs import cycle, strong_power
from shancap.report import _invariant_set, compute_bounds, verify_report
from shancap.solvers import SolverConfig

BENCH = SolverConfig(time_budget=30.0, node_budget=150_000, seed=0)


def _hales(p):
    return p * (p // 2) // 2


@pytest.mark.parametrize("p,alpha", [(11, 27), (13, 39)])
def test_the_square_row_reaches_hales_value(p, alpha):
    assert _hales(p) == alpha
    rep = compute_bounds(cycle(p), max_power=2, cfg=BENCH, graph_desc=f"C{p}")
    row = rep.table[1]
    assert (row.k, row.alpha_best, row.exact) == (2, alpha, False)
    assert row.method == "invariant under <negation> of order 2"
    assert row.root == alpha ** 0.5
    assert (rep.lower.power, rep.lower.witness) == (2, row.witness)
    assert not rep.lower.proven
    assert (f"alpha(G^2) >= {alpha} (invariant under <negation> of order 2)"
            in rep.provenance)
    # a union of orbits of v -> -v mod p
    cells = set(row.witness)
    assert {tuple(-x % p for x in c) for c in cells} == cells
    assert verify_report(rep)


def test_strict_bounds_still_exit_degraded_on_the_square_of_c11(capsys):
    code = run(["bounds", "cycle:11", "--max-power", "2", "--node-budget",
                "150000", "--strict"])
    capsys.readouterr()
    assert code == EXIT_DEGRADED == 2


@pytest.mark.parametrize("p", range(5, 14, 2))
def test_the_invariant_set_reaches_hales_value_on_odd_squares(p):
    G = cycle(p)
    verts, method = _invariant_set(G, 2, strong_power(G, 2), BENCH)
    assert len(verts) == _hales(p)
    assert method == "invariant under <negation> of order 2"

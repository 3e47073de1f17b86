"""King boards of dimension 2: where the symmetric search stops short on
(13, 2) and (15, 2), the invariant fallback under the diagonal negation
finds Hales' packing number, which meets the Rosenfeld cap and so is
proven."""

import logging

import pytest

from shancap.kings import (Board, canonical_placement, exact_max_kings,
                           verify_placement)
from shancap.solvers import SolverConfig

BENCH = SolverConfig(time_budget=30.0, node_budget=150_000, seed=0)


@pytest.mark.parametrize("p,count,search", [(13, 39, 37), (15, 52, 50)])
def test_the_fallback_proves_hales_value(caplog, p, count, search):
    caplog.set_level(logging.DEBUG, logger="shancap.kings")
    res = exact_max_kings(Board(p, 2), BENCH)
    # Rosenfeld's cap floor(p/2 * floor(p/2)) is Hales' value at d = 2
    assert (res.count, res.proven_optimal, res.upper_bound) == (count, True,
                                                                count)
    assert res.placement == canonical_placement(res.placement)
    assert verify_placement(res.placement) == (True, None)
    lines = [r.getMessage() for r in caplog.records
             if "fallback" in r.getMessage()]
    assert lines == [f"king fallback: board=({p},2) search={search} "
                     f"invariant={count} replaced=yes"]

"""The one keep-or-prove rule shared by the power rows and the king search,
and the single deadline of the invariant search."""

from unittest import mock

import pytest

from shancap import report
from shancap.graphs import cycle, independent_in_power, strong_power
from shancap.report import (_invariant_set, _keep_or_prove, compute_bounds,
                            verify_report)
from shancap.solvers import IndependentSet, SolverConfig, _run_engine

INVARIANT = "invariant under <negation> of order 2"
# Shannon's pentagon packing (i, 2i mod 5) as vertex ids 5i + j of C5^2
PENTAGON = tuple(sorted(5 * i + 2 * i % 5 for i in range(5)))


def _unproven_square(size, upper):
    """``max_independent_set`` that leaves C5^2 unproven with its first
    ``size`` vertices under the upper bound ``upper``."""
    real = report.max_independent_set

    def search(Gk, cfg):
        res = real(Gk, cfg)
        if Gk.n != 25:
            return res
        return IndependentSet(res.vertices[:size], False, upper)
    return search


def test_an_invariant_set_that_meets_the_upper_bound_makes_the_row_exact():
    with mock.patch("shancap.report.max_independent_set",
                    _unproven_square(4, 5)), \
         mock.patch("shancap.report._invariant_set",
                    return_value=(PENTAGON, INVARIANT)):
        rep = compute_bounds(cycle(5), max_power=2)
    row = rep.table[1]
    assert (row.alpha_best, row.exact, row.method) == (5, True, INVARIANT)
    assert f"alpha(G^2) = 5 ({INVARIANT})" in rep.provenance
    assert verify_report(rep)


def test_a_larger_invariant_set_below_the_upper_bound_stays_unproven():
    with mock.patch("shancap.report.max_independent_set",
                    _unproven_square(4, 6)), \
         mock.patch("shancap.report._invariant_set",
                    return_value=(PENTAGON, INVARIANT)):
        row = compute_bounds(cycle(5), max_power=2).table[1]
    assert (row.alpha_best, row.exact, row.method) == (5, False, INVARIANT)


@pytest.mark.parametrize("size", [4, 5])
def test_a_smaller_or_equal_invariant_set_leaves_the_generic_row(size):
    with mock.patch("shancap.report.max_independent_set",
                    _unproven_square(5, 5)), \
         mock.patch("shancap.report._invariant_set",
                    return_value=(PENTAGON[:size], INVARIANT)):
        rep = compute_bounds(cycle(5), max_power=2)
    row = rep.table[1]
    assert (row.alpha_best, row.exact, row.method) == (5, False, "heuristic")


def test_the_rule_reports_the_invariant_size_either_way():
    G = cycle(7)
    Gk = strong_power(G, 2)
    with mock.patch("shancap.report._invariant_set",
                    return_value=((0, 9), INVARIANT)):
        assert _keep_or_prove(G, 2, Gk, None, (0,), 2) == (
            (0, 9), True, INVARIANT, 2)
        assert _keep_or_prove(G, 2, Gk, None, (0, 3), 9) == (
            (0, 3), False, "heuristic", 2)
    with mock.patch("shancap.report._invariant_set", return_value=None):
        assert _keep_or_prove(G, 2, Gk, None, (0,), 9) == (
            (0,), False, "heuristic", 0)


# -- one deadline ------------------------------------------------------------

# C7^2 under <negation>: 49 vertices in 25 orbits, of which 21 have no two
# adjacent members; the clock is read once at the start, once per vertex,
# once per orbit, once per kept orbit and once for the time left
READS_BEFORE_ENGINE = 1 + 49 + 25 + 21 + 1


class _Clock:
    """Stands in for ``time`` in ``shancap.report``: each read is one
    second later than the one before."""

    def __init__(self):
        self.now = 0

    def monotonic(self):
        self.now += 1
        return self.now


def _run(budget, overrun=0):
    """(result, clock, engine calls) of the invariant search of C7^2 under
    ``budget`` seconds of the patched clock; the engine takes ``overrun``
    seconds of it."""
    G, clock, calls = cycle(7), _Clock(), []

    def recorded(*args, **kwargs):
        calls.append((args[1].time_budget, clock.now))
        clock.now += overrun
        return _run_engine(*args, **kwargs)

    with mock.patch("shancap.report.time", clock), \
         mock.patch("shancap.report._run_engine", recorded):
        out = _invariant_set(G, 2, strong_power(G, 2),
                             SolverConfig(time_budget=budget))
    return out, clock, calls


@pytest.mark.parametrize("budget,phase", [
    (10, "orbits"), (60, "orbit-graph rows"),
    (READS_BEFORE_ENGINE - 3, "the last kept orbit's row"),
    (READS_BEFORE_ENGINE - 2, "the time left, past the deadline"),
    (READS_BEFORE_ENGINE - 1, "the time left, none")])
def test_no_phase_starts_after_the_deadline(budget, phase):
    out, clock, calls = _run(budget)
    assert out == ((), INVARIANT), phase
    assert calls == [], phase
    # the first read past the deadline is the last one
    assert clock.now == min(1 + budget + 1, READS_BEFORE_ENGINE), phase


def test_the_engine_gets_only_the_time_left():
    budget = 1000
    (verts, method), clock, calls = _run(budget)
    assert calls == [(budget + 1 - READS_BEFORE_ENGINE, READS_BEFORE_ENGINE)]
    assert method == INVARIANT and len(verts) == 10  # alpha(C7^2)


def test_a_set_found_as_the_engine_runs_out_is_still_checked():
    check = mock.Mock(wraps=independent_in_power)
    with mock.patch("shancap.report.independent_in_power", check):
        (verts, _), clock, calls = _run(READS_BEFORE_ENGINE + 5, 10_000)
    # no clock read after the engine, but the check still runs
    assert len(calls) == 1 and clock.now == READS_BEFORE_ENGINE + 10_000
    assert len(verts) == 10 and check.call_count == 1

"""Certificates and solver inputs that do not hold up are rejected, at
every check the certificate modules, the report, the exact LP and the
search budget make."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from shancap.fractional import FractionalWeighting, LPError, lp_solve_exact
from shancap.graphs import complete, cycle
from shancap.haemers import (FittingError, FittingMatrix, fitting_matrix, kron,
                             verify_fitting)
from shancap.kings import (Board, Placement, PlacementError,
                           layered_construction, render_board)
from shancap.report import (CertificateRejected, ReportError, certified_upper,
                            compute_bounds, verify_report)
from shancap.solvers import SolverConfig, _Budget, _BudgetExhausted
from shancap.umbrella import (CertificateError, UmbrellaError,
                              VectorUmbrella, density_from_vector,
                              odd_cycle_umbrella, purify_umbrella,
                              verify_dual_certificate,
                              verify_primal_certificate, verify_umbrella)

CFG = SolverConfig(node_budget=150_000, seed=0)


# -- haemers --------------------------------------------------------------------


@pytest.mark.parametrize("entries", [(), ((1, 0),), ((1, 0), (0,))])
def test_fitting_matrix_must_be_square_and_nonempty(entries):
    with pytest.raises(FittingError, match="square and nonempty"):
        FittingMatrix(entries, "Q")


def test_fitting_matrix_entries_must_be_reduced_mod_p():
    with pytest.raises(FittingError, match="entry 3 not reduced mod 2"):
        FittingMatrix(((1, 0), (0, 3)), 2)


def test_fitting_matrix_must_match_the_graph_size():
    with pytest.raises(FittingError, match="3x3 but the graph has 4"):
        verify_fitting(fitting_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                       cycle(4))


def test_kron_needs_one_field():
    with pytest.raises(FittingError, match="different fields"):
        kron(fitting_matrix([[1]]), fitting_matrix([[1]], 2))


# -- umbrella -------------------------------------------------------------------


def test_umbrella_of_the_wrong_dimension_is_invalid():
    u = odd_cycle_umbrella(5)
    wide = VectorUmbrella(u.dim + 1, u.handle, u.states)
    rep = verify_umbrella(wide, cycle(5))
    assert not rep.valid
    assert rep.violations == (("dimension", u.dim + 1, 0.0),)


def test_umbrella_states_must_be_unit_vectors():
    u = odd_cycle_umbrella(5)
    # still orthogonal across every non-edge, so only the norms are wrong
    long = VectorUmbrella(u.dim, u.handle, 2 * u.states)
    rep = verify_umbrella(long, cycle(5))
    assert not rep.valid
    assert {kind for kind, _, _ in rep.violations} == {"state_norm"}
    assert [where for _, where, _ in rep.violations] == list(range(5))


def test_density_states_must_be_symmetric():
    d = density_from_vector(odd_cycle_umbrella(5))
    states = d.states.copy()
    states[2, 0, 1] += 0.1  # trace and diagonal unchanged
    rep = verify_umbrella(replace(d, states=states), cycle(5))
    assert not rep.valid
    assert ("density_not_symmetric", 2, 0.0) in rep.violations


def test_umbrella_conversions_need_the_right_kind():
    u = odd_cycle_umbrella(5)
    with pytest.raises(UmbrellaError, match="expected a vector umbrella"):
        density_from_vector(density_from_vector(u))
    with pytest.raises(UmbrellaError, match="expected a density umbrella"):
        purify_umbrella(u)


def test_theta_certificates_of_the_wrong_shape_are_rejected():
    with pytest.raises(CertificateError, match="dual certificate has wrong"):
        verify_dual_certificate(np.ones((3, 3)), cycle(4))
    with pytest.raises(CertificateError, match="primal certificate has wrong"):
        verify_primal_certificate(np.eye(3) / 3, cycle(4))


def test_primal_certificate_must_be_symmetric():
    X = np.eye(5) / 5
    X[0, 2] = 0.01  # a non-edge of C5, on one side only
    with pytest.raises(CertificateError, match="primal certificate not "
                                               "symmetric"):
        verify_primal_certificate(X, cycle(5))


def test_dual_certificate_without_a_finite_lambda_max_is_rejected():
    M = np.full((3, 3), 1e308)  # finite entries, lambda_max 2e308
    np.fill_diagonal(M, 1.0)
    with pytest.raises(CertificateError, match="no finite upper bound"):
        verify_dual_certificate(M, complete(3))


# -- kings ----------------------------------------------------------------------


def test_placement_cells_must_be_distinct():
    with pytest.raises(PlacementError, match=r"cell 1 duplicates \(0, 0\)"):
        Placement(Board(5, 2), ((0, 0), (0, 0)))


def test_layers_of_an_invalid_base_are_rejected():
    base = Placement(Board(5, 2), ((0, 0), (0, 1)))
    with pytest.raises(PlacementError, match=r"invalid at cell pair \(0, 1\)"):
        layered_construction(base)


def test_unknown_render_format_is_rejected():
    with pytest.raises(PlacementError, match="unknown render format 'png'"):
        render_board(Placement(Board(5, 2), ((0, 0),)), "png")


def test_a_one_axis_board_renders_as_one_row():
    pl = Placement(Board(5, 1), ((0,), (2,)))
    assert render_board(pl, "ascii") == ("torus 5^1, 2 kings (edges wrap)\n"
                                         "~~~~~~~~~~~~~\n"
                                         "~ K . K . . ~\n"
                                         "~~~~~~~~~~~~~\n")


# -- report ---------------------------------------------------------------------


def test_bounds_without_powers_have_no_lower_bound():
    with pytest.raises(ReportError, match="no power produced a lower bound"):
        compute_bounds(cycle(5), max_power=0, cfg=CFG)


def test_theta_bracket_with_a_bad_dual_is_rejected():
    rep = compute_bounds(cycle(5), max_power=1, cfg=CFG)
    bracket = rep.upper.certificate
    M = bracket.dual_certificate.copy()
    M[0, 2] = M[2, 0] = 0.5  # a non-edge of C5 must hold 1
    bad = replace(bracket, dual_certificate=M)
    with pytest.raises(CertificateRejected, match=r"theta certificate "
                       r"rejected: .*non-edge entry \(0,2\) is not 1"):
        certified_upper(cycle(5), bad)


def test_witness_at_power_zero_is_a_report_error():
    rep = compute_bounds(cycle(5), max_power=1, cfg=CFG)
    zero = replace(rep, lower=replace(rep.lower, power=0, witness=((),),
                                      value=1.0))
    with pytest.raises(ReportError, match="lower witness power 0 is not a "
                                          "positive integer"):
        verify_report(zero)


# -- fractional -----------------------------------------------------------------


def test_lp_rhs_must_match_the_constraints():
    with pytest.raises(LPError, match="rhs length mismatch"):
        lp_solve_exact([1], [[1]], [1, 1])


def test_a_negative_weighting_is_infeasible():
    w = FractionalWeighting((Fraction(-1), Fraction(1)))
    assert not w.is_feasible([(0, 1)])


def test_an_artificial_basic_at_zero_is_driven_out_of_the_basis():
    # minimize x subject to x >= 1 and x <= 1: phase 1 ends with the
    # artificial of x >= 1 still basic at 0; left in the basis, it stands
    # for the dropped column and phase 2 reports the infeasible x = 0
    value, x = lp_solve_exact([-1], [[-1], [1]], [-1, 1])
    assert (value, x) == (Fraction(-1), (Fraction(1),))


# -- solvers --------------------------------------------------------------------


def test_a_charge_past_the_deadline_adds_no_nodes():
    budget = _Budget(node_budget=100, time_budget=-1.0)  # deadline passed
    with pytest.raises(_BudgetExhausted, match="time budget"):
        budget.charge(5)
    assert (budget.nodes, budget.charged) == (0, 0)

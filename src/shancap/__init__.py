"""Certified lower and upper bounds on the Shannon capacity of graphs.

Lower bounds come from exact or heuristic independent sets in strong
powers (king packings on toroidal boards for powers of cycles); upper
bounds from certified theta brackets, exact fractional clique weights,
clique covers, umbrella certificates, and fitting-matrix ranks.
"""

from .fractional import (FractionalWeighting, LPInfeasible, LPUnbounded,
                         lp_solve_exact, rosenfeld_number)
from .graphs import (DEFAULT_VERTEX_LIMIT, Graph, GraphError, ProductIndex,
                     VertexLimitError, complement, complete, conormal_product,
                     cycle, disjoint_union, empty, from_edges, generate,
                     independent_in_power, is_clique, is_independent_set,
                     is_isomorphic, path, strong_power, strong_product)
from .graphio import (GraphFormatError, load_graph, parse_graph, write_graph)
from .haemers import (FittingMatrix, FittingReport, adjacency_certificate,
                      fitting_matrix, haemers_certificate,
                      identity_certificate, matrix_rank, verify_fitting)
from .kings import (Board, KingSearchResult, Placement, exact_max_kings,
                    heuristic_max_kings, king_graph, layered_construction,
                    product_placement, render_board, toroidal_chebyshev,
                    verify_placement)
from .report import (BoundsReport, LockinTable, combine_external_certificate,
                     compute_bounds, lockin_scan, render_lockin,
                     render_report, report_to_json, verify_report)
from .solvers import (CliqueCapExceeded, CliqueCover, IndependentSet,
                      SolverConfig, clique_cover_number, clique_number,
                      enumerate_maximal_cliques, heuristic_independent_set,
                      max_clique, max_independent_set)
from .theta import ThetaBracket, lovasz_theta
from .umbrella import (DensityUmbrella, PurifyResult, UmbrellaReport,
                       VectorUmbrella, density_from_vector,
                       odd_cycle_umbrella, purify_umbrella, purity,
                       tensor_umbrella, trivial_umbrella, umbrella_opening,
                       umbrella_value, verify_dual_certificate,
                       verify_primal_certificate, verify_umbrella)

__version__ = "0.1.0"

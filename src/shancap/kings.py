"""Toroidal king packings: symmetry-reduced exact search, product
constructions, and board rendering.  Boards and packings themselves
(``Board``, ``Placement``) live in ``graphs`` and are re-exported here.

A king packing of the p^d torus is an independent set of C_p^d, the d-th
strong power of the p-cycle.  Every board is capped by the smaller of two
proven bounds, and both rest on facts about strong products:

- θ multiplies under the strong product (Lovász 1979), so
  ⌊θ(C_p)^d⌋, from the certified upper end of θ(C_p), caps every packing.
- α(G ⊠ H) <= α*(G)·α(H) (Rosenfeld, Proc. AMS 1967).  One fractional
  clique cover of C_p, weight ½ on every edge, checked exactly by
  ``clique_cover_value``, gives α*(C_p) <= p/2 and α(C_p) <= ⌊p/2⌋;
  products of covers cover the strong power, so α*(C_p^(d-1)) <=
  (p/2)^(d-1), and with G = C_p^(d-1), H = C_p every packing holds at
  most ⌊(p/2)^(d-1)·⌊p/2⌋⌋ kings.  For odd p at d = 2 that is α(C_p^2)
  itself (Hales, JCT B 1973): 27 on (11, 2), where the θ cap is 29.
- Independent sets multiply too: packings of the (p, a) and (p, b) tori
  give one of the (p, a + b) torus (``product_placement``).  Stacking a
  packing on the floors 0, 2, 4, ... of one more axis
  (``layered_construction``) is the case b = 1.

The exact search is seeded with the best greedy or product packing and
stops as soon as that incumbent meets the cap, with no search at all when
the seed already does.  Otherwise it pins one king at the origin (any
packing can be translated there) and branches the level below orbitally
under the origin stabilizer (coordinate permutations and per-axis
reflections): include a representative or discard its whole orbit.  Deeper
levels run the plain search.  A board left unproven goes through
``report._keep_or_prove``, the rule of the report's power rows: the
invariant packing is kept when strictly larger, and proven when it meets
the search's upper bound.  It gives 33 on (7, 3), the known packing number
(the search: 30), and Hales' 39 and 52 on (13, 2) and (15, 2), which meet
the Rosenfeld cap.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import (DEFAULT_VERTEX_LIMIT, Board, Placement, PlacementError,
                     clique_cover_value, cycle, independent_in_power,
                     strong_power, strong_powers)
from .report import _keep_or_prove
from .solvers import SolverConfig, _run_engine, heuristic_independent_set
from .theta import lovasz_theta

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class KingSearchResult:
    placement: Placement
    proven_optimal: bool
    upper_bound: int

    @property
    def count(self):
        return len(self.placement)


def toroidal_chebyshev(a, b, p):
    """max over coordinates of the cyclic distance mod p."""
    out = 0
    for x, y in zip(a, b):
        diff = abs(x - y)
        diff = min(diff, p - diff)
        if diff > out:
            out = diff
    return out


def king_graph(board, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """Graph on all cells of the p^d torus; two cells are adjacent iff every
    coordinate differs by 0 or +-1 mod p and the cells differ.  Equals the
    d-th strong power of the p-cycle, labels included."""
    return strong_power(cycle(board.p), board.d, vertex_limit=vertex_limit)


def verify_placement(pl):
    """(True, None) iff the cells are independent in C_p^d, i.e. pairwise
    at toroidal Chebyshev distance >= 2; otherwise (False, first violating
    index pair).  ``independent_in_power`` on C_p's adjacency: checks
    nothing the solvers computed."""
    pair = independent_in_power(cycle(pl.board.p), pl.board.d, pl.cells)
    return pair is None, pair


@lru_cache(maxsize=None)
def _theta_cycle_hi(p, time_budget=None):
    return lovasz_theta(cycle(p), time_budget=time_budget).hi


def _theta_cap(p, d, time_budget=None):
    """⌊θ(C_p)^d⌋ from the certified upper end of θ(C_p), computed in exact
    arithmetic within ``time_budget`` seconds: no packing of the p^d torus
    has more kings."""
    return math.floor(Fraction(_theta_cycle_hi(p, time_budget)) ** d)


def _rosenfeld_cap(p, d):
    """⌊(p/2)^(d-1)·⌊p/2⌋⌋, in exact arithmetic: no packing of the p^d
    torus has more kings.  p/2 is the value of the edge cover of C_p (weight
    ½ on every edge), checked by ``clique_cover_value``; see the module
    docstring for Rosenfeld's bound and the product of covers."""
    rho = clique_cover_value(cycle(p), [((i, (i + 1) % p), Fraction(1, 2))
                                        for i in range(p)])
    return math.floor(rho ** (d - 1) * math.floor(rho))


def _caps(p, d, time_budget=None):
    """(θ cap, Rosenfeld cap) of the p^d torus; its cap is the smaller."""
    return _theta_cap(p, d, time_budget), _rosenfeld_cap(p, d)


def capped_result(pl, time_budget=None):
    """``pl`` as a result whose upper bound is the cap of its board, the
    smaller of the θ cap and the Rosenfeld cap; it is proven optimal when
    it meets the cap."""
    cap = min(_caps(pl.board.p, pl.board.d, time_budget))
    return KingSearchResult(pl, len(pl) >= cap, cap)


def product_placement(first, second):
    """Packing of the (p, a + b) torus from packings of the (p, a) and (p, b)
    tori: the cells x + y for y in ``second`` and x in ``first``.

    Two distinct cells differ in x or in y, hence by at least 2 (mod p) in
    some coordinate: the strong product of independent sets is independent.
    """
    p = first.board.p
    if second.board.p != p:
        raise PlacementError(f"boards differ in p: {p} and {second.board.p}")
    board = Board(p, first.board.d + second.board.d)
    return Placement(board, tuple(x + y for y in second.cells
                                  for x in first.cells))


def _floor_packing(p, floors=None):
    """The floors of a layered packing as a packing of the p-cycle, checked
    like any other.  The default floors 0, 2, 4, ... < p - 1 are floor(p/2)
    of them, the most a p-cycle holds."""
    if floors is None:
        floors = range(0, p - 1, 2)
    floors = tuple(sorted(set(floors)))
    if not floors:
        raise PlacementError("need at least one floor")
    pl = Placement(Board(p, 1), tuple((f,) for f in floors))
    ok, pair = verify_placement(pl)
    if not ok:
        f, g = (floors[i] for i in pair)
        raise PlacementError(f"floors {f} and {g} are adjacent mod {p}")
    return pl


def layered_construction(base, floors=None):
    """Stack copies of a d-dimensional packing into floors of a (d+1)-torus.

    Floors must be pairwise at cyclic distance >= 2 so kings in different
    floors can never touch; within a floor the base packing guarantees it.
    This is ``product_placement`` with the packing ``_floor_packing(p,
    floors)`` of the p-cycle.  The result is checked as a whole: floor 0
    holds the base cells in order, so a clash in the base shows up there
    at the same index pair.
    """
    out = product_placement(base, _floor_packing(base.board.p, floors))
    ok, pair = verify_placement(out)
    if not ok:
        raise PlacementError(f"layered placement invalid at cell pair {pair}")
    return out


def canonical_placement(pl):
    """Lexicographically smallest translate; makes serialized artifacts
    diff-stable.  That translate begins with the origin, so only the shifts
    moving some king to the origin are tried."""
    p = pl.board.p
    best = min((tuple(sorted(tuple((c - k) % p for c, k in zip(cell, king))
                             for cell in pl.cells))
                for king in pl.cells), default=())
    return Placement(pl.board, best)


def _stabilizer_orbit(board, cell):
    """Orbit of a cell under the origin stabilizer we exploit, coordinate
    permutations and per-axis reflections, generated by negating axis 0,
    rotating the axes and swapping axes 0 and 1 (the identity at d = 1)."""
    p, index = board.p, board.index
    gens = (lambda t: (-t[0] % p,) + t[1:], lambda t: t[1:] + t[:1],
            lambda t: t[1::-1] + t[2:])
    return {index.decode(u) for u in index.orbit(index.encode(cell), gens)}


def heuristic_max_kings(board, cfg=None, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """Best of a randomized-greedy packing and the products of the packings
    found for (p, d - a) and (p, a), a = 1..floor(d/2); each smaller board
    is solved once.  On one axis the floor packing is optimal.  The upper
    bound is the board's cap (see the module docstring), and the result is
    proven optimal when the packing meets it."""
    cfg = cfg or SolverConfig()
    pl, _ = _heuristic_placement(board, cfg, vertex_limit)
    return capped_result(pl, cfg.time_budget)


def _heuristic_placement(board, cfg, vertex_limit):
    """(packing of ``heuristic_max_kings``, C_p^d), every C_p^k from one
    ``strong_powers`` call, so a board over ``vertex_limit`` fails before
    any search."""
    p = board.p
    powers = strong_powers(cycle(p), board.d, vertex_limit)
    best = {1: _floor_packing(p)}
    for k, Gk in enumerate(powers[1:], 2):
        found = heuristic_independent_set(Gk, cfg)
        pl = Placement(Board(p, k), tuple(Gk.labels[v] for v in found.vertices))
        for a in range(1, k // 2 + 1):
            prod = product_placement(best[k - a], best[a])
            if len(prod) > len(pl):
                pl = prod
        best[k] = canonical_placement(pl)
    return best[board.d], powers[-1]


def exact_max_kings(board, cfg=None, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """Exact packing number of the toroidal board within budget.

    The search of the module docstring runs on the heuristic's C_p^d from
    its packing; its upper bound never exceeds the cap (5 * 5 meets the cap
    on (5, 4) with no search node; on (11, 2) the Rosenfeld cap 27 ends the
    search at the first 27).  An unproven search goes through
    ``report._keep_or_prove`` under ``cfg``'s budgets.  Cells and vertex
    ids convert through ``board.index``, which numbers C_p^d as its labels
    do.  Logs one debug line per search: the board, both caps, the one that
    binds and the seed's size; and one per unproven board: the sizes of the
    search's and the invariant packing and whether the second replaced the
    first."""
    cfg = cfg or SolverConfig()
    incumbent, G = _heuristic_placement(board, cfg, vertex_limit)
    index = board.index

    def orbit_mask(v):
        return sum(1 << index.encode(cell)
                   for cell in _stabilizer_orbit(board, index.decode(v)))

    theta_cap, rosenfeld_cap = _caps(board.p, board.d, cfg.time_budget)
    logger.debug("king search: board=(%d,%d) theta cap=%d rosenfeld cap=%d "
                 "binds=%s seed=%d", board.p, board.d, theta_cap,
                 rosenfeld_cap,
                 "theta" if theta_cap <= rosenfeld_cap else "rosenfeld",
                 len(incumbent))
    # canonical, so the incumbent contains the origin and seeds the search
    verts, proven, upper, _ = _run_engine(
        G, cfg, forced=(index.encode((0,) * board.d),), orbit_fn=orbit_mask,
        incumbent=tuple(index.encode(c) for c in incumbent.cells),
        cap=min(theta_cap, rosenfeld_cap))
    if not proven:
        kept, proven, _, size = _keep_or_prove(cycle(board.p), board.d, G,
                                               cfg, verts, upper)
        logger.debug("king fallback: board=(%d,%d) search=%d invariant=%d "
                     "replaced=%s", board.p, board.d, len(verts), size,
                     "yes" if len(kept) > len(verts) else "no")
        verts = kept
    pl = canonical_placement(Placement(board, tuple(map(index.decode, verts))))
    ok, pair = verify_placement(pl)
    if not ok:
        raise PlacementError(f"internal error: invalid packing at {pair}")
    return KingSearchResult(pl, proven, upper)


# -- serialization ------------------------------------------------------------


def placement_to_json(pl):
    pl = canonical_placement(pl)
    doc = {"p": pl.board.p, "d": pl.board.d,
           "cells": [list(c) for c in pl.cells]}
    return json.dumps(doc, sort_keys=True)


def placement_from_json(text):
    doc = json.loads(text)
    try:
        p, d = doc["p"], doc["d"]
        cells = tuple(tuple(c) for c in doc["cells"])
    except (KeyError, TypeError) as exc:
        raise PlacementError(f"malformed placement JSON: {exc}")
    return Placement(Board(p, d), cells)


# -- rendering ----------------------------------------------------------------


def render_board(pl, fmt="ascii"):
    """Deterministic drawing of a packing, d <= 3 (3-d as layer sequence).
    The frame marks that rows and columns wrap around."""
    if pl.board.d > 3:
        raise PlacementError("rendering supports d <= 3 only")
    if fmt not in RENDER_FORMATS:
        raise PlacementError(f"unknown render format {fmt!r}")
    return RENDER_FORMATS[fmt](pl)


def _layers(pl):
    p, d = pl.board.p, pl.board.d
    if d == 1:
        grids = {None: {(0, c[0]) for c in pl.cells}}
        shape = (1, p)
    elif d == 2:
        grids = {None: {(c[0], c[1]) for c in pl.cells}}
        shape = (p, p)
    else:
        grids = {z: set() for z in range(p)}
        for c in pl.cells:
            grids[c[2]].add((c[0], c[1]))
        shape = (p, p)
    return grids, shape


def _render_ascii(pl):
    grids, (rows, cols) = _layers(pl)
    out = [f"torus {pl.board.p}^{pl.board.d}, {len(pl.cells)} kings "
           f"(edges wrap)"]
    border = "~" * (2 * cols + 3)
    for key in sorted(grids, key=lambda z: (z is not None, z)):
        if key is not None:
            out.append(f"layer {key}:")
        out.append(border)
        for r in range(rows):
            line = " ".join("K" if (r, c) in grids[key] else "."
                            for c in range(cols))
            out.append(f"~ {line} ~")
        out.append(border)
    return "\n".join(out) + "\n"


def _render_svg(pl):
    grids, (rows, cols) = _layers(pl)
    cell = 24
    pad = 10
    layer_keys = sorted(grids, key=lambda z: (z is not None, z))
    width = pad + len(layer_keys) * (cols * cell + pad)
    height = 2 * pad + rows * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">']
    for li, key in enumerate(layer_keys):
        x0 = pad + li * (cols * cell + pad)
        parts.append(f'<rect x="{x0}" y="{pad}" width="{cols * cell}" '
                     f'height="{rows * cell}" fill="none" stroke="black" '
                     f'stroke-dasharray="6,3"/>')  # dashed frame: torus wrap
        for r in range(rows + 1):
            y = pad + r * cell
            parts.append(f'<line x1="{x0}" y1="{y}" x2="{x0 + cols * cell}" '
                         f'y2="{y}" stroke="gray" stroke-width="0.5"/>')
        for c in range(cols + 1):
            x = x0 + c * cell
            parts.append(f'<line x1="{x}" y1="{pad}" x2="{x}" '
                         f'y2="{pad + rows * cell}" stroke="gray" '
                         f'stroke-width="0.5"/>')
        for (r, c) in sorted(grids[key]):
            cx = x0 + c * cell + cell // 2
            cy = pad + r * cell + cell // 2
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{cell // 3}" '
                         f'fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


RENDER_FORMATS = {"ascii": _render_ascii, "svg": _render_svg}

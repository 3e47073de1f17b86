"""Exact and heuristic solvers: independence number, cliques, clique covers.

Every vertex set here is a bitmask (bit v of an int stands for vertex v),
and ``bits`` walks one.  The maximum-independent-set search is a
branch-and-bound in the style of Tomita's MCS, with the bit-parallel
representation of BBMC (San Segundo, Rodríguez-Losada & Jiménez, Comput.
Oper. Res. 38, 2011): every node greedily covers the candidate set by
cliques, each kept as one class mask, candidates are branched from the
last class back, and a branch is cut as soon as the number of classes
left cannot beat the incumbent.  The engine works on the caller's labels
reversed (caller vertex v is engine bit n - 1 - v): peeling the caller's
lowest id first is then peeling the engine's top bit first, which
``int.bit_length`` reads directly, with no negation and no mask isolation.
A child inherits the front of its parent's cover: when a vertex set R
leaves the candidates, every class before the first one meeting R is
still a class of the new greedy cover, in the same position, because each
of its peels takes the same vertices from extension sets that only lost R
(incremental colouring in the spirit of IncMaxCLQ; Li, Fang & Xu, AAAI
2013).  Branching on b removes N[b], so the child peels only from the
first class meeting N(b) on.  The covers are the ones peeled from
scratch, so the search is the same node for node.
The peels themselves are memoized.  A class peeled from the remaining set
rem starts at its top vertex t, and every later step of the peel stays
inside rem ∩ N(t), so (t, rem ∩ N(t)), written as the one mask
rem ∩ N[t] whose top bit is t, fixes the class.  On these powers the same
mask comes back again and again (about 99% of the peels on C7^3), so each
search keeps a dict from that mask to its class; it is emptied when it
reaches ``_SOLVED_LIMIT`` entries, like the replay table below.
Repeated subtrees are replayed, the classic memo of maximum independent
set (Robson, J. Algorithms 7, 1986): on a vertex-transitive power the
same candidate set comes back thousands of times.  Each search keeps a
table from (candidates, incumbent size - set size) to the node count of a
plain subtree that ended without improving the incumbent; a child with a
key in it charges that count to the budget instead of being searched.
Such a subtree repeats node for node, because its covers depend only on
its candidates and every cut and branch compares set size + classes with
the incumbent size, which stays put in it; only an improvement reads the
current set or the cap.  So the search, node counts included, is the one
without the table.  The table lives for one search and is emptied when it
reaches ``_SOLVED_LIMIT`` entries.
Orbital branching (Ostrowski, Linderoth, Rossi & Smriglio, Math.
Program. 126, 2011) runs in the same loop: a branched vertex is discarded
together with its orbit.
With vertex weights the same loop searches for a maximum-weight set: each
class bounds by its largest weight instead of by 1 (the weighted colouring
bound of Kumlander, 2004), and the replay key holds the slack in weight
units.  A class's largest weight travels with it: a child keeps the tops
of the classes it inherits, and a peeled class reads its top from a memo
bounded like the peel memo, so no node walks every class again.  A unit
search keeps no tops at all.
``max_independent_set`` runs one search, seeded by the larger of the
min-degree greedy set and the local search ``heuristic_independent_set``.
Budgets degrade a search to "incumbent + bound" instead of failing.  Every
exact search here (and the colouring backtrack of ``clique_cover_number``)
ticks one ``_Budget`` per node, which checks the node count and the clock:
``node_budget=N`` caps it at N nodes, and it overruns ``time_budget`` by at
most one node's work; a replayed subtree counts all its nodes at once and
reads the clock once.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
import sys
import time
from dataclasses import dataclass

# is_clique is re-exported: the set checks live in graphs.py
from .graphs import (Graph, bits, clique_cover_value, complement, is_clique,
                     is_independent_set, is_index)

DEFAULT_CLIQUE_CAP = 2000

logger = logging.getLogger(__name__)

_ORDERINGS = ("degree", "degeneracy", "label")
_RESTARTS = 10
# entries of one search's table of solved subtrees, and of its memo of
# peeled classes; each is emptied when full, which holds it to about a
# megabyte
_SOLVED_LIMIT = 8192


class SolverError(ValueError):
    pass


class CliqueCapExceeded(SolverError):
    """Maximal-clique enumeration hit the cap: the graph has too many
    maximal cliques for the exact rho."""


@dataclass(frozen=True)
class SolverConfig:
    """Budgets and tie-breaking for the exact searches.

    ``node_budget`` caps the nodes of an exact search and ``time_budget``
    (seconds) its wall time; both are checked on every node, so a search
    expands at most ``node_budget`` nodes and overruns ``time_budget`` by
    at most one node's work.  A search that runs out returns its incumbent
    unproven.  A subtree the MIS search replays instead of searching it
    again counts all its nodes against ``node_budget`` (stopping at the
    budget if it would pass it, as the nodes would have) and reads the
    clock once, so the overrun stays at most one node's work.  The local
    search ``heuristic_independent_set`` reads the clock once per restart:
    its first restart always completes, and later ones start only while
    ``time_budget`` is left.
    """

    time_budget: float = 60.0
    node_budget: int = 50_000_000
    seed: int = 0
    ordering: str = "degree"

    def __post_init__(self):
        if not (0 < self.time_budget < math.inf
                and 0 < self.node_budget < math.inf):
            raise SolverError("budgets must be positive and finite")
        if self.ordering not in _ORDERINGS:
            raise SolverError(f"ordering must be one of {_ORDERINGS}")


@dataclass(frozen=True)
class IndependentSet:
    vertices: tuple
    proven_optimal: bool
    upper_bound: int


@dataclass(frozen=True)
class CliqueCover:
    parts: tuple
    proven_optimal: bool = True


def _vertex_order(G, ordering):
    n = G.n
    if ordering == "label":
        return list(range(n))
    if ordering == "degree":
        return sorted(range(n), key=lambda v: (-G.adj[v].bit_count(), v))
    # degeneracy: repeatedly strip a minimum-degree vertex, then reverse
    live = _LiveDegrees(G)
    order = []
    for _ in range(n):
        v = live.lowest()
        order.append(v)
        live.remove(1 << v)
    return order[::-1]


class _LiveDegrees:
    """The degrees of G's vertices within the live set ``alive``, which
    only shrinks.  A removal recounts only the live neighbours of what
    left, the only degrees it can change, and a heap with stale entries
    skipped gives the live vertex of lowest (degree, id); a rescan of the
    whole live set per pick is quadratic in n."""

    def __init__(self, G):
        self.adj = G.adj
        self.alive = (1 << G.n) - 1
        self.degree = [row.bit_count() for row in G.adj]
        self.heap = [(d, v) for v, d in enumerate(self.degree)]
        heapq.heapify(self.heap)

    def lowest(self):
        """Live vertex with the fewest live neighbours; lowest id on ties."""
        heap = self.heap
        while True:
            d, v = heap[0]
            if self.alive >> v & 1 and self.degree[v] == d:
                return v
            heapq.heappop(heap)

    def remove(self, mask):
        """Take the vertices of ``mask`` out of the live set."""
        mask &= self.alive
        alive = self.alive = self.alive ^ mask
        near = 0
        for u in bits(mask):
            near |= self.adj[u]
        for w in bits(near & alive):  # each lost a live neighbour
            d = self.degree[w] = (self.adj[w] & alive).bit_count()
            heapq.heappush(self.heap, (d, w))


class _BudgetExhausted(Exception):
    """Raised with the stop reason: "node budget" or "time budget"."""


class _CapReached(Exception):
    """The incumbent meets the caller's proven upper bound: it is optimal."""


class _Budget:
    """Node counter and deadline of one exact search; ``tick`` once per
    node checks both and raises ``_BudgetExhausted`` with the name of the
    one it finds spent."""

    def __init__(self, node_budget, time_budget):
        self.nodes = 0
        self.charged = 0
        self.node_budget = node_budget
        self.deadline = time.monotonic() + time_budget

    def tick(self):
        if self.nodes >= self.node_budget:
            raise _BudgetExhausted("node budget")
        if time.monotonic() > self.deadline:
            raise _BudgetExhausted("time budget")
        self.nodes += 1

    def charge(self, count):
        """``count`` ticks at once, reading the clock once; ``charged``
        sums them.  A charge that would pass the node budget stops at it
        and raises, as the ticks would have."""
        if time.monotonic() > self.deadline:
            raise _BudgetExhausted("time budget")
        room = self.node_budget - self.nodes
        if count > room:
            self.nodes += room
            self.charged += room
            raise _BudgetExhausted("node budget")
        self.nodes += count
        self.charged += count

_BYTE_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _reversed_mask(mask, n):
    """``mask`` (bits below n) with bit v moved to bit n - 1 - v."""
    width = (n + 7) // 8
    flipped = mask.to_bytes(width, "little").translate(_BYTE_REVERSED)
    return int.from_bytes(flipped, "big") >> (8 * width - n)


class _MISEngine:
    """Branch-and-bound over candidate bitmasks.

    The engine sees its graph through ``rows``, already in engine labels:
    ``_run_engine`` hands it the caller's labels reversed, so that the
    caller's lowest id is the engine's top bit.  Every node covers its
    candidates by greedily peeled cliques, top bit first (the caller's
    increasing id order; callers relabel for other priorities), then
    branches on the lowest bit of the last class: once size + the number
    of classes left cannot beat the incumbent the whole remaining node is
    cut.  A child's cover starts from its parent's classes up to the first
    one meeting N(b), and the orbital level's re-cover from its own up to
    the first one meeting the discarded orbit (see ``cover``).  Both equal
    the covers peeled from scratch, so the search is the same node for
    node.  ``solved`` maps the key (best - size) << n | cand of every plain
    subtree that ended without improving the incumbent to its node count,
    and a child with a known key is replayed: its count is charged to the
    budget and it is not searched (see ``expand`` for why that is exact).
    The orbital level is never stored, nor a subtree an exception ends;
    the table is emptied when it reaches ``_SOLVED_LIMIT`` entries, and
    ``clears`` counts those.  ``peels`` maps rem & ``closed``[t] to the
    class peeled from rem, t being rem's top bit: the peel takes t, then
    only ever looks at rem ∩ N(t), so the key fixes the class and its top
    bit names t.  It lives for one search, is emptied (``peel_clears``)
    when it reaches ``_SOLVED_LIMIT`` entries, and ``peel_misses`` counts
    the classes peeled bit by bit.  The vertex tables ``bit``, ``adj``,
    ``closed`` (N[v]) and ``nonadj`` are indexed by ``bit_length``: entry
    b describes engine bit b - 1, so a peeled top bit costs one
    ``bit_length`` and two table reads.  ``cur`` and ``best_set`` hold
    such indices b; ``inherited`` and ``classes`` count the cover classes
    kept from an earlier cover and all cover classes.  ``weight``, when
    given, holds the weight of each index b, and ``expand`` reads it to
    search for a maximum-weight set; ``best`` and ``cap`` are then
    weights, and ``tops`` maps a class mask to its largest weight, emptied
    like ``peels``.
    """

    def __init__(self, rows, cfg, cap=None, weights=None):
        n = len(rows)
        full = (1 << n) - 1
        self.full = full
        self.bit = [0] + [1 << v for v in range(n)]
        self.adj = [0] + list(rows)
        self.nonadj = [0] + [~(row | (1 << v)) & full
                             for v, row in enumerate(rows)]
        self.closed = [0] + [row | (1 << v) for v, row in enumerate(rows)]
        self.best = 0
        self.best_set = []
        self.cur = []
        self.budget = _Budget(cfg.node_budget, cfg.time_budget)
        # weight[b] of index b, or None for unit weights
        self.weight = None if weights is None else [0] + list(weights)
        total = n if weights is None else sum(weights)
        self.cap = total + 1 if cap is None else cap  # no set reaches it
        self.inherited = 0
        self.classes = 0
        self.n = n
        self.solved = {}  # key of a plain subtree -> nodes of the subtree
        self.clears = 0
        self.peels = {}  # rem & N[t] -> the class peeled from it
        self.peel_misses = 0
        self.peel_clears = 0
        self.tops = {}  # class mask -> its largest weight

    def value(self, vertices):
        """Weight of a list of indices b: its length under unit weights."""
        if self.weight is None:
            return len(vertices)
        return sum(self.weight[b] for b in vertices)

    def bound(self, classes):
        """The most a cover's classes can add: one vertex per class, at
        most the class's largest weight."""
        if self.weight is None:
            return len(classes)
        return sum(map(self._heaviest, classes))

    def _heaviest(self, cls):
        """The largest weight in the class mask ``cls``, read from ``tops``
        or walked bit by bit and stored there (emptied first when it holds
        ``_SOLVED_LIMIT`` entries)."""
        top = self.tops.get(cls)
        if top is None:
            weight = self.weight
            top = 0
            walk = cls
            while walk:
                b = walk.bit_length()
                if weight[b] > top:
                    top = weight[b]
                walk ^= self.bit[b]
            tops = self.tops
            if len(tops) >= _SOLVED_LIMIT:
                tops.clear()
            tops[cls] = top
        return top

    def seed_incumbent(self, vertices):
        value = self.value(vertices)
        if value > self.best:
            self.best = value
            self.best_set = list(vertices)

    def improve(self, size):
        """``self.cur`` (of ``size`` vertices) is the new incumbent; raise
        ``_CapReached`` once it meets the cap."""
        self.best = size
        self.best_set = list(self.cur)
        if size >= self.cap:
            raise _CapReached

    def cover(self, cand, prior=(), gone=0):
        """Greedy clique cover of cand as a list of class masks, each class
        peeled from its top bit down.  The first k classes hold at most k
        independent vertices, which is the pruning bound.

        ``prior`` may give the greedy cover of a set P with cand = P - gone.
        Its classes before the first one meeting ``gone`` are then classes
        of this cover too, in the same positions: every vertex their peels
        took is still in cand, and every extension set only lost ``gone``,
        so each peel repeats itself vertex for vertex.  Those classes are
        kept, and only the rest of cand is peeled, each class looked up in
        ``peels`` under rem & N[t] first (see the class docstring)."""
        closed = self.closed
        peels = self.peels
        classes = []
        rem = cand
        for cls in prior:
            if cls & gone:
                break
            classes.append(cls)
            rem ^= cls
        self.inherited += len(classes)
        while rem:
            key = rem & closed[rem.bit_length()]
            cls = peels.get(key)
            if cls is None:
                cls = self._peel(key)
            rem ^= cls
            classes.append(cls)
        self.classes += len(classes)
        return classes

    def _peel(self, key):
        """The class peeled from ``key`` top bit first, stored in ``peels``
        (emptied first when it holds ``_SOLVED_LIMIT`` entries)."""
        # the bit walk is written out instead of calling ``bits``; ext stays
        # inside key because no row contains its own vertex
        adj = self.adj
        bit = self.bit
        cls = 0
        ext = key
        while ext:
            b = ext.bit_length()
            cls |= bit[b]
            ext &= adj[b]
        peels = self.peels
        if len(peels) >= _SOLVED_LIMIT:
            peels.clear()
            self.peel_clears += 1
        peels[key] = cls
        self.peel_misses += 1
        return cls

    def expand(self, cand, size, orbit=None, prior=(), gone=0, prior_tops=()):
        """Search below the current set ``self.cur`` of ``size`` vertices;
        ``prior`` and ``gone`` pass the parent's cover on to ``cover``.
        With ``orbit`` (index b -> engine mask of its orbit under a symmetry
        of the node), a branched vertex is discarded with its whole orbit
        and the rest re-covered; the children search plainly.

        Under ``weight`` the search is for a maximum-weight set: ``size`` is
        the weight of ``self.cur``, and a class adds at most its largest
        weight, its top, where it adds 1 under unit weights.  A class kept
        from the parent's cover keeps its top from ``prior_tops``, a peeled
        one reads it through ``_heaviest``'s memo, and a class that loses
        its low bit keeps its top unless that bit weighed as much.  Unit
        searches keep no tops: ``room`` is then the number of classes.

        A plain child whose key (candidates, ``best`` - size) was solved
        before in this search, without improving the incumbent, is replayed:
        its node count is charged to the budget and it is not searched.
        The replay is exact: below a plain node the covers depend only on
        the candidates (inherited covers equal fresh ones), every cut and
        branch compares size + ``room`` with ``best``, and only an
        improvement, which needs a weight above the slack, reads ``cur`` or
        the cap, so such a subtree repeats node for node as long as ``best``
        stays put, which it does throughout the subtree."""
        budget = self.budget
        budget.tick()
        adj = self.adj
        nonadj = self.nonadj
        weight = self.weight
        solved = self.solved
        n = self.n
        inherited = self.inherited
        classes = self.cover(cand, prior, gone)
        if weight is None:
            tops = None
            room = len(classes)
        else:
            kept = self.inherited - inherited  # the classes taken from prior
            tops = [*prior_tops[:kept], *map(self._heaviest, classes[kept:])]
            room = sum(tops)
        w = 1
        # hot path: branch on the low bit of the last class by hand
        while classes and size + room > self.best:
            last = classes.pop()
            low = last & -last
            last ^= low
            b = low.bit_length()
            if tops is None:
                if last:
                    classes.append(last)
                else:
                    room -= 1
            else:
                w = weight[b]
                top = tops.pop()
                room -= top
                if last:
                    if w == top:
                        top = self._heaviest(last)
                    classes.append(last)
                    tops.append(top)
                    room += top
            # ``classes`` now covers cand - {low}
            ncand = cand & nonadj[b]
            self.cur.append(b)
            if size + w > self.best:
                self.improve(size + w)
            if ncand:
                # the child's candidates are cand - {low} - N(b)
                best = self.best
                # the child's slack best - size goes above its candidates
                key = (best - size - w) << n | ncand
                count = solved.get(key)
                if count is None:
                    start = budget.nodes
                    self.expand(ncand, size + w, None, classes, adj[b], tops)
                    if self.best == best:
                        if len(solved) >= _SOLVED_LIMIT:
                            solved.clear()
                            self.clears += 1
                        solved[key] = budget.nodes - start
                else:
                    budget.charge(count)
            self.cur.pop()
            if orbit is None:
                # peeling takes the top bit of each class first, so the
                # cover of cand - {low} is the rest of ``classes``
                cand ^= low
            else:  # unit weights only: ``_run_engine`` enforces it
                orb = orbit(b)  # holds b
                cand &= ~orb
                classes = self.cover(cand, classes, orb)
                room = len(classes)

    def expand_weighted(self, cand, size):
        """The root of a maximum-weight search: ``expand`` under ``weight``.
        ``_run_engine`` enters weighted searches here, and tests substitute
        a reference search under this name."""
        self.expand(cand, size)


def _check_vertices(G, vertices, what):
    """Reject ``vertices`` unless they are distinct in-range ids of an
    independent set of G."""
    if not all(is_index(v, G.n) for v in vertices):
        raise SolverError(f"{what} vertices must be ids in range({G.n})")
    if len(set(vertices)) != len(vertices):
        raise SolverError(f"{what} vertices repeat a vertex")
    if not is_independent_set(G, vertices):
        raise SolverError(f"{what} vertices are not independent")


def _run_engine(G, cfg, forced=(), orbit_fn=None, incumbent=(), cap=None,
                weights=None):
    """Shared driver.  ``forced`` vertices are committed up front; when
    ``orbit_fn`` is given, the first level below the forced vertices uses
    orbital branching (include a representative or discard its whole orbit).
    ``weights``, one positive int per vertex, makes it a maximum-weight
    search (entered through ``expand_weighted``; no orbital branching):
    sizes, the cap and the upper bound are then weights.
    ``cap``, a proven upper bound on the answer, ends the search as soon as
    the incumbent meets it (with 0 nodes when the seed already does) and
    caps the reported upper bound.  Every argument and result is in G's
    labels; the engine's reversed labels stay in here.  Logs one debug line
    per search: n, nodes, the nodes expanded and replayed (they sum to
    nodes), the entries left in the table of solved subtrees and its
    clears, seconds, expanded nodes/s, the share of cover classes kept from
    an earlier cover, the share of the other classes found in the peel
    memo and its clears, and the stop reason.
    The search recurses once per vertex it includes, so the recursion limit
    is raised by n for the search (no C stack is used on CPython >= 3.11).
    Returns (vertices, proven, upper_bound, nodes)."""
    _check_vertices(G, forced, "forced")
    _check_vertices(G, incumbent, "incumbent")
    n = G.n
    if weights is not None:
        if len(weights) != n or not all(type(w) is int and w > 0
                                        for w in weights):
            raise SolverError(f"weights must be {n} positive ints")
        if orbit_fn is not None:
            raise SolverError("orbital branching needs unit weights")
        weights = weights[::-1]
    # caller vertex v is engine bit n - 1 - v, i.e. table index b = n - v
    eng = _MISEngine([_reversed_mask(row, n) for row in reversed(G.adj)],
                     cfg, cap, weights)
    cand = eng.full
    for v in forced:
        cand &= eng.nonadj[n - v]
    eng.cur = [n - v for v in forced]
    eng.seed_incumbent([n - v for v in incumbent])
    eng.seed_incumbent(eng.cur)
    orbit = None
    if orbit_fn is not None:
        def orbit(b):
            return _reversed_mask(orbit_fn(n - b), n)
    start = time.monotonic()
    size = eng.value(eng.cur)
    root_ub = size + eng.bound(eng.cover(cand))
    reason = "cap reached" if eng.best >= eng.cap else "proven"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)
    try:
        if cand and reason == "proven":
            if weights is None:
                eng.expand(cand, size, orbit)
            else:
                eng.expand_weighted(cand, size)
    except _BudgetExhausted as exc:
        reason = str(exc)
    except _CapReached:
        reason = "cap reached"
    finally:
        sys.setrecursionlimit(limit)
    proven = reason in ("proven", "cap reached")
    seconds = time.monotonic() - start
    nodes = eng.budget.nodes
    expanded = nodes - eng.budget.charged
    peeled = eng.classes - eng.inherited
    logger.debug("MIS search: n=%d nodes=%d expanded=%d replayed=%d "
                 "table=%d clears=%d %.3f s %.0f nodes/s inherited=%.0f%% "
                 "peel_hits=%.0f%% peel_clears=%d stop=%s", n, nodes,
                 expanded, eng.budget.charged, len(eng.solved), eng.clears,
                 seconds, expanded / seconds if seconds > 0 else 0.0,
                 100 * eng.inherited / max(eng.classes, 1),
                 100 * (peeled - eng.peel_misses) / max(peeled, 1),
                 eng.peel_clears, reason)
    upper = eng.best if proven else min(max(eng.best, root_ub), eng.cap)
    return tuple(sorted(n - b for b in eng.best_set)), proven, upper, nodes


def max_independent_set(G, cfg=None):
    """Exact alpha(G) within budget; otherwise the best incumbent with the
    best proven upper bound and proven_optimal=False.  The search starts
    from the larger of the greedy set and the local search; a larger seed
    only prunes more (the search visits a subset of the same nodes, in the
    same order), so the result is never smaller than either seed.  The
    engine peels vertex order[i] of ``cfg.ordering`` as its vertex i: it
    searches G itself when that order is the identity (``"label"``, or
    ``"degree"`` on a regular graph), otherwise a copy relabelled row by
    row, so either way it sees G's rows in that order."""
    cfg = cfg or SolverConfig()
    order = _vertex_order(G, cfg.ordering)
    pos = sorted(range(G.n), key=order.__getitem__)  # order's inverse
    Gr = G if order == list(range(G.n)) else Graph(G.n, tuple(
        sum(1 << pos[u] for u in bits(G.adj[v])) for v in order))
    local = [pos[v] for v in heuristic_independent_set(G, cfg).vertices]
    seed = max(_greedy_independent(Gr), local, key=len)  # greedy on ties
    verts, proven, upper, _ = _run_engine(Gr, cfg, incumbent=seed)
    back = tuple(sorted(order[v] for v in verts))
    result = IndependentSet(back, proven, upper)
    if not is_independent_set(G, result.vertices):
        raise SolverError("internal error: returned set not independent")
    return result


def _greedy_independent(G, start=None):
    """Deterministic min-degree greedy, from ``start`` when given; cheap
    incumbent for pruning."""
    live = _LiveDegrees(G)
    out = []
    while live.alive:
        v = live.lowest() if start is None else start
        start = None
        out.append(v)
        live.remove(G.adj[v] | (1 << v))
    return out


def max_clique(G, cfg=None):
    """Largest clique: a maximum independent set of the complement."""
    return max_independent_set(complement(G), cfg)


def clique_number(G, cfg=None):
    return len(max_clique(G, cfg).vertices)


def heuristic_independent_set(G, cfg=None):
    """Randomized greedy + (1,2)-swap local search from up to ``_RESTARTS``
    shuffled orders, deterministic per seed unless ``cfg.time_budget``
    binds: the first restart always completes, and each later one starts
    only while time is left, so the overrun is at most one restart."""
    cfg = cfg or SolverConfig()
    deadline = time.monotonic() + cfg.time_budget
    rng = random.Random(cfg.seed)
    n = G.n
    adj = G.adj
    full = (1 << n) - 1
    closed_nb = [adj[v] | (1 << v) for v in range(n)]
    nonadj_closed = [~c & full for c in closed_nb]
    best = ()
    for restart in range(_RESTARTS):
        if restart and time.monotonic() > deadline:
            break
        order = list(range(n))
        rng.shuffle(order)
        sol = []
        blocked = 0
        for v in order:
            if not blocked >> v & 1:
                sol.append(v)
                blocked |= closed_nb[v]
        improved = True
        while improved:
            improved = False
            # N[sol - v] for the round's i-th vertex v is done | after[i + 1]:
            # ``after`` ORs N[] over the rest of the round's snapshot, which
            # stays in sol, and ``done`` over the rest of sol
            snapshot = list(sol)
            after = [0] * (len(snapshot) + 1)
            for i in range(len(snapshot) - 1, -1, -1):
                after[i] = after[i + 1] | closed_nb[snapshot[i]]
            done = 0
            for i, v in enumerate(snapshot):
                free = full & ~(done | after[i + 1]) & ~(1 << v)
                # two mutually non-adjacent replacements beat keeping v
                found = None
                for a in bits(free):
                    second = free & nonadj_closed[a] >> (a + 1) << (a + 1)
                    if second:
                        found = (a, next(bits(second)))
                        break
                if found:
                    sol.remove(v)
                    sol.extend(found)
                    done |= closed_nb[found[0]] | closed_nb[found[1]]
                    improved = True
                else:
                    done |= closed_nb[v]
            # plain additions; ``done`` is now N[sol]
            free = full & ~done
            for a in bits(free):
                if free >> a & 1:  # free shrinks as vertices join
                    sol.append(a)
                    free &= nonadj_closed[a]
                    improved = True
        if len(sol) > len(best):
            best = tuple(sorted(sol))
    result = IndependentSet(best, False, G.n)
    if not is_independent_set(G, result.vertices):
        raise SolverError("internal error: heuristic set not independent")
    return result


# -- maximal clique enumeration --------------------------------------------


def enumerate_maximal_cliques(G, cap=DEFAULT_CLIQUE_CAP):
    """Pivoting backtracking enumeration; every maximal clique exactly once.

    Raises CliqueCapExceeded beyond ``cap`` cliques.
    """
    adj = G.adj
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            if len(out) > cap:
                raise CliqueCapExceeded(
                    f"more than {cap} maximal cliques: too many for the "
                    "exact rho")
            return
        pivot = max(bits(p | x), key=lambda u: (adj[u] & p).bit_count())
        for v in bits(p & ~adj[pivot]):
            bk(r | (1 << v), p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, (1 << G.n) - 1, 0)
    return sorted(tuple(bits(mask)) for mask in out)


# -- clique cover via exact coloring of the complement ----------------------


def _greedy_coloring(adj, n):
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    classes = []
    for v in order:
        for c, members in enumerate(classes):
            if not members & adj[v]:
                classes[c] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def _color_exact(adj, n, k, clique_mask, budget):
    """Backtracking k-coloring, k at least the seed clique's size (the
    caller's lower bound); the clique is pre-colored 0,1,2,...  ``budget``
    (a ``_Budget``) is ticked on every node; returns class masks or None."""
    used = clique_mask.bit_count()
    classes = [1 << v for v in bits(clique_mask)] + [0] * (k - used)

    def saturation(v):  # the number of classes that meet N(v)
        return sum(1 for c in classes if c & adj[v])

    def bt(uncolored, used):
        if not uncolored:
            return True
        budget.tick()
        v = min(bits(uncolored), key=lambda u: (-saturation(u),
                                                 -adj[u].bit_count()))
        for c in range(min(k, used + 1)):
            if classes[c] & adj[v]:
                continue
            classes[c] |= 1 << v
            if bt(uncolored & ~(1 << v), max(used, c + 1)):
                return True
            classes[c] &= ~(1 << v)
        return False

    if bt(((1 << n) - 1) & ~clique_mask, used):
        return [c for c in classes if c]
    return None


def clique_cover_number(G, cfg=None):
    """sigma(G): chromatic number of the complement, exact within budget.

    Returns (value, CliqueCover); the cover is valid either way, with
    proven_optimal=False when the search degraded to greedy.  The exact
    search ticks one budget of ``node_budget`` backtrack nodes over all
    values of k, checking the node count and the clock on every node, so
    it overruns ``time_budget`` by at most one node's work: one scan of
    the uncolored vertices.  The greedy bounds before it are not
    budgeted.  The result is checked: ``clique_cover_value`` raises
    GraphError unless the parts are cliques covering G, and SolverError
    follows unless they hold n vertices in all (no vertex twice).
    """
    cfg = cfg or SolverConfig()
    H = complement(G)
    n = G.n
    adj = H.adj
    greedy_classes = _greedy_coloring(adj, n)
    ub = len(greedy_classes)
    # a clique of the complement: the largest greedy independent set of G
    # from its 8 lowest-degree vertices
    starts = sorted(range(n), key=lambda v: (G.adj[v].bit_count(), v))[:8]
    clique = max((_greedy_independent(G, v) for v in starts), key=len)
    clique_mask = sum(1 << v for v in clique)
    lb = len(clique)
    best_classes = greedy_classes
    proven = lb == ub
    budget = _Budget(cfg.node_budget, cfg.time_budget)
    if not proven:
        try:
            for k in range(lb, ub):
                res = _color_exact(adj, n, k, clique_mask, budget)
                if res is not None:
                    best_classes = res
                    break
            proven = True
        except _BudgetExhausted:
            proven = False
    parts = sorted(tuple(bits(mask)) for mask in best_classes)
    clique_cover_value(G, [(part, 1) for part in parts])
    if sum(map(len, parts)) != n:
        raise SolverError("internal error: cover parts overlap")
    return len(parts), CliqueCover(tuple(parts), proven)

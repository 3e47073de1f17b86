"""Immutable bit-vector graphs, standard generators, and graph products.

Adjacency is kept as one Python int per vertex (bit u of ``adj[v]`` set iff
u~v), which makes neighborhood intersections in the solvers single bitwise
operations.  Product graphs carry per-vertex coordinate labels so that a
vertex of ``strong_power(G, k)`` can be read back as a k-tuple.

Every independence and clique check lives here and reads its pairs
through ``independent_in_power``; the module imports no other ``shancap``
module, so no check shares code with a solver whose result it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

DEFAULT_VERTEX_LIMIT = 100_000


class GraphError(ValueError):
    pass


class VertexLimitError(GraphError):
    """A construction would materialize more vertices than allowed."""


def bits(mask):
    """Yield the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Finite simple graph: symmetric loop-free adjacency, optional labels.

    labels, when present, is one distinct hashable tuple per vertex
    (products store mixed-radix coordinates there).
    """

    n: int
    adj: tuple
    labels: tuple | None = None

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise GraphError("adjacency row count != n")
        adj = self.adj
        full = (1 << self.n) - 1
        # every pair (v, u) above the diagonal needs its mirror (u, v) below
        # it; once each has one, equal counts leave no pair below unmatched
        above = total = 0
        for v, row in enumerate(adj):
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
            if row & ~full:
                raise GraphError(f"adjacency row {v} has out-of-range bits")
            total += row.bit_count()
            up = row >> v  # bit i is vertex v + i; bit 0 is clear
            above += up.bit_count()
            while up:
                i = up.bit_length() - 1
                if not adj[v + i] >> v & 1:
                    raise GraphError(
                        f"adjacency not symmetric at ({v},{v + i})")
                up ^= 1 << i
        if 2 * above != total:
            v, u = next((v, u) for v, row in enumerate(adj) for u in bits(row)
                        if not adj[u] >> v & 1)
            raise GraphError(f"adjacency not symmetric at ({v},{u})")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise GraphError("label count != n")
            if len(set(self.labels)) != self.n:
                raise GraphError("labels not distinct")

    # -- basic accessors -------------------------------------------------

    def degree(self, v):
        return self.adj[v].bit_count()

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v):
        return list(bits(self.adj[v]))

    def edges(self):
        return [(v, u) for v in range(self.n)
                for u in bits(self.adj[v] >> (v + 1) << (v + 1))]

    @property
    def num_edges(self):
        return sum(row.bit_count() for row in self.adj) // 2

    def label_of(self, v):
        return self.labels[v] if self.labels is not None else (v,)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def from_edges(n, edges, labels=None):
    """Build a Graph from an edge list (ignores duplicates, rejects loops)."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) rejected")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows), labels)


@dataclass(frozen=True)
class ProductIndex:
    """Mixed-radix indexing of product vertices; leftmost factor is most
    significant.  ``strong_power`` numbers G^k this way, and ``orbit`` is
    where a group acts on the tuples: both symmetric searches use it."""

    radices: tuple

    def __post_init__(self):
        if not self.radices or any(r < 1 for r in self.radices):
            raise GraphError("radices must be positive")

    @property
    def size(self):
        out = 1
        for r in self.radices:
            out *= r
        return out

    def encode(self, coords):
        if len(coords) != len(self.radices):
            raise GraphError("coordinate arity mismatch")
        out = 0
        for c, r in zip(coords, self.radices):
            if not 0 <= c < r:
                raise GraphError(f"coordinate {c} out of range [0,{r})")
            out = out * r + c
        return out

    def decode(self, idx):
        if not 0 <= idx < self.size:
            raise GraphError(f"index {idx} out of range")
        coords = []
        for r in reversed(self.radices):
            coords.append(idx % r)
            idx //= r
        return tuple(reversed(coords))

    def orbit(self, idx, gens):
        """Ids of the orbit of ``idx`` under the group generated by ``gens``,
        maps of coordinate tuples, in breadth-first order from ``idx``."""
        out = [self.decode(idx)]
        seen = set(out)
        for t in out:  # grows while it is read
            for g in gens:
                s = g(t)
                if s not in seen:
                    seen.add(s)
                    out.append(s)
        return [self.encode(t) for t in out]


# -- generators ----------------------------------------------------------


def generate(kind, n, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """Standard graph families: cycle, path, complete, empty."""
    if n < 1:
        raise GraphError("n must be >= 1")
    check_vertex_limit(n, vertex_limit, kind)
    if kind == "cycle":
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "path":
        return from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "complete":
        return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "empty":
        return from_edges(n, [])
    raise GraphError(f"unknown graph kind {kind!r}")


def cycle(n):
    return generate("cycle", n)


def path(n):
    return generate("path", n)


def complete(n):
    return generate("complete", n)


def empty(n):
    return generate("empty", n)


# -- unary / binary operations --------------------------------------------


def complement(G):
    """Switch edges and non-edges (diagonal stays clear); an involution."""
    full = (1 << G.n) - 1
    rows = tuple(~row & full & ~(1 << v) for v, row in enumerate(G.adj))
    return Graph(G.n, rows, G.labels)


def check_vertex_limit(size, vertex_limit, what="product"):
    """Raise VertexLimitError before a graph of ``size`` vertices is built
    when that exceeds ``vertex_limit``."""
    if size > vertex_limit:
        raise VertexLimitError(
            f"{what} would have {size} vertices (> limit {vertex_limit}); "
            "pass a larger vertex_limit to override"
        )


def _concat_labels(G, H):
    """G's label followed by H's for every product vertex; GraphError when
    two pairs concatenate to one label, as (0,) + (0, 0) and (0, 0) + (0,)
    do."""
    seen = {}
    for a in range(G.n):
        for b in range(H.n):
            x, y = G.label_of(a), H.label_of(b)
            first = seen.setdefault(x + y, (x, y))
            if first != (x, y):
                raise GraphError(
                    f"product labels {first[0]!r} + {first[1]!r} and "
                    f"{x!r} + {y!r} both read {x + y!r}")
    return tuple(seen)


def strong_product(G, H, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """(a,b)~(c,d) iff each coordinate is equal or adjacent and the pairs
    differ."""
    n = G.n * H.n
    check_vertex_limit(n, vertex_limit)
    nH = H.n
    # reflexive closure rows of both factors
    rg = [G.adj[a] | (1 << a) for a in range(G.n)]
    rh = [H.adj[b] | (1 << b) for b in range(H.n)]
    rows = []
    for a in range(G.n):
        shifts = [c * nH for c in bits(rg[a])]
        for b in range(H.n):
            row = 0
            for s in shifts:
                row |= rh[b] << s
            rows.append(row & ~(1 << (a * nH + b)))
    return Graph(n, tuple(rows), _concat_labels(G, H))


def conormal_product(G, H, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """(a,b)~(c,d) iff adjacent in the first or in the second coordinate."""
    n = G.n * H.n
    check_vertex_limit(n, vertex_limit)
    nH = H.n
    all_h = (1 << nH) - 1
    col = 0  # every block gets H-adjacency of b
    for c in range(G.n):
        col |= 1 << (c * nH)
    hparts = []
    for b in range(H.n):
        hpart = 0
        for d in bits(H.adj[b]):
            hpart |= col << d
        hparts.append(hpart)
    rows = []
    for a in range(G.n):
        gpart = 0
        for c in bits(G.adj[a]):
            gpart |= all_h << (c * nH)
        rows.extend(gpart | hpart for hpart in hparts)
    return Graph(n, tuple(rows), _concat_labels(G, H))


def strong_powers(G, k, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """[G, G^2, ..., G^k], each power the strong product of the one before
    and G, so built once; labels are flat k-digit coordinates (G's vertex
    ids when it has none).  Both checks run before anything is built."""
    if k < 1:
        raise GraphError("power k must be >= 1")
    check_vertex_limit(G.n**k, vertex_limit)
    powers = [G if G.labels is not None else Graph(
        G.n, G.adj, tuple((v,) for v in range(G.n)))]
    while len(powers) < k:
        powers.append(strong_product(powers[-1], powers[0], vertex_limit))
    return powers


def strong_power(G, k, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """G^k, the last of ``strong_powers``."""
    return strong_powers(G, k, vertex_limit)[-1]


def independent_in_power(G, k, cells):
    """First index pair (i, j), i < j in lexicographic order, of cells that
    are equal or adjacent in every coordinate (repeated or adjacent in
    G^k); None if ``cells`` is an independent set of G^k.  Reads only
    ``G.adj``: G^k is never built."""
    if not isinstance(k, int) or k < 1:
        raise GraphError(f"power {k!r} is not a positive integer")
    for cell in cells:
        if not (isinstance(cell, tuple) and len(cell) == k and all(
                isinstance(c, int) and 0 <= c < G.n for c in cell)):
            raise GraphError(f"cell {cell!r} is not a vertex of G^{k}")
    # near[t][u], for u some cell's t-th entry: the cells there or adjacent
    used = [sum({1 << c for c in col}) for col in zip(*cells)]
    near = [[0] * G.n for _ in range(k)]
    for j, cell in enumerate(cells):
        for row, mask, c in zip(near, used, cell):
            for u in bits((G.adj[c] | 1 << c) & mask):
                row[u] |= 1 << j
    for i, cell in enumerate(cells):
        clash = reduce(int.__and__, (row[c] for row, c in zip(near, cell)))
        clash >>= i + 1
        if clash:
            return i, i + (clash & -clash).bit_length()
    return None


def is_independent_set(G, vertices):
    """True iff ``vertices`` are distinct ids of pairwise non-adjacent
    vertices of G; False if one is not a vertex id of G."""
    try:
        return independent_in_power(G, 1, [(v,) for v in vertices]) is None
    except GraphError:
        return False


def is_clique(G, vertices):
    """True iff ``vertices`` are distinct ids of pairwise adjacent ones."""
    return is_independent_set(complement(G), vertices)


def clique_cover_value(G, cover):
    """Σw, as a Fraction, of a fractional clique cover of G: ``cover`` is a
    sequence of (clique, weight) pairs, each weight an int or Fraction.

    Raises GraphError unless every weight is >= 0, every support set is a
    clique of G and every vertex lies in cliques of total weight >= 1.
    Then Σw bounds α*(G) = ρ(G), hence α(G): for x >= 0 with weight at
    most 1 on every clique, Σ_v x_v <= Σ_C w_C Σ_{v in C} x_v <= Σ_C w_C.
    Exact arithmetic on ``G.adj`` only."""
    H = complement(G)
    total = Fraction(0)
    load = [Fraction(0)] * G.n
    for clique, w in cover:
        if not isinstance(w, (int, Fraction)):
            raise GraphError(f"weight {w!r} is not an int or a Fraction")
        if w < 0:
            raise GraphError(f"weight {w} of {clique!r} is negative")
        clique = tuple(clique)
        if not all(isinstance(v, int) and 0 <= v < G.n for v in clique):
            raise GraphError(f"{clique!r} is not a set of vertices of G")
        pair = independent_in_power(H, 1, [(v,) for v in clique])
        if pair is not None:
            u, v = (clique[i] for i in pair)
            raise GraphError(f"{clique!r} is not a clique: {u} and {v} are "
                             "not adjacent")
        for v in clique:
            load[v] += w
        total += w
    for v, covered in enumerate(load):
        if covered < 1:
            raise GraphError(f"vertex {v} is covered {covered} < 1 times")
    return total


def disjoint_union(G, H, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """Block-diagonal sum; alpha adds, omega takes the max."""
    check_vertex_limit(G.n + H.n, vertex_limit)
    rows = list(G.adj) + [row << G.n for row in H.adj]
    return Graph(G.n + H.n, tuple(rows), None)


# -- isomorphism (test support) -------------------------------------------

def _invariants(G):
    degs = sorted(G.adj[v].bit_count() for v in range(G.n))
    nbr_degs = sorted(
        tuple(sorted(G.adj[u].bit_count() for u in G.neighbors(v)))
        for v in range(G.n)
    )
    tri = 0
    for u, v in G.edges():
        tri += (G.adj[u] & G.adj[v]).bit_count()
    return (G.n, G.num_edges, tuple(degs), tuple(nbr_degs), tri)


def is_isomorphic(G, H):
    """Exact: an invariant screen, then backtracking over degree-matched
    vertex maps (exponential in the worst case)."""
    if _invariants(G) != _invariants(H):
        return False
    n = G.n
    degH = [H.adj[v].bit_count() for v in range(n)]
    degG = [G.adj[v].bit_count() for v in range(n)]
    mapping = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            return True
        for w in range(n):
            if used[w] or degG[v] != degH[w]:
                continue
            ok = True
            for u in range(v):
                if bool(G.adj[v] >> u & 1) != bool(H.adj[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)

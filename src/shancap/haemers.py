"""Rank certificates from matrices whose zeros cover the non-edges.

A matrix fits a graph when every diagonal entry is nonzero and every
off-diagonal entry between NON-adjacent vertices is zero.  The submatrix
indexed by an independent set is then diagonal with nonzero diagonal, so
the matrix rank bounds the independence number from above; ranks multiply
under tensor products, which extends the bound to all strong powers.
The opposite zero-on-adjacent convention does not support this argument,
so the convention in force is stated in every certificate.

Ranks are computed exactly, over Q and over GF(p) alike, by one
fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

CONVENTION = "zero_on_nonadjacent"


class FittingError(ValueError):
    pass


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _check_field(field):
    if field != "Q" and not (isinstance(field, int) and _is_prime(field)):
        raise FittingError(f"field must be 'Q' or a prime modulus, "
                           f"not {field!r}")


@dataclass(frozen=True)
class FittingMatrix:
    entries: tuple  # tuple of row tuples; Fraction over Q, int over GF(p)
    field: object = "Q"  # "Q" or a prime int p

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise FittingError("matrix must be square and nonempty")
        _check_field(self.field)
        if self.field != "Q":
            p = self.field
            for row in self.entries:
                for x in row:
                    if not isinstance(x, int) or not 0 <= x < p:
                        raise FittingError(f"entry {x!r} not reduced mod {p}")

    @property
    def n(self):
        return len(self.entries)


_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")  # as str(Fraction) writes


def _entry(x, field):
    """One entry, read exactly or rejected: an int (not a bool) over either
    field, reduced mod p over GF(p); over Q also a Fraction or a "p/q"
    string.  A float or a bool would be read as another number."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x) if field == "Q" else x % field
    if field == "Q" and (isinstance(x, Fraction) or
                         isinstance(x, str) and _RATIONAL.fullmatch(x)):
        return Fraction(x)
    kinds = "an int, a Fraction or a 'p/q' string" if field == "Q" else "an int"
    raise FittingError(f"entry {x!r} is not {kinds}")


def fitting_matrix(rows, field="Q"):
    """A ``FittingMatrix`` over ``field`` from a list of rows; see ``_entry``
    for the entries it accepts."""
    _check_field(field)  # before any entry is reduced mod the field
    rows = tuple(rows)
    if any(not isinstance(row, (list, tuple)) for row in rows):
        raise FittingError("matrix rows must be lists")
    return FittingMatrix(tuple(tuple(_entry(x, field) for x in row)
                               for row in rows), field)


@dataclass(frozen=True)
class FittingReport:
    fits: bool
    violation: object  # None, or (kind, position)
    convention: str = CONVENTION


def verify_fitting(B, G):
    """First violation wins: a zero diagonal entry, or a nonzero entry at a
    non-adjacent off-diagonal position."""
    if B.n != G.n:
        raise FittingError(f"matrix is {B.n}x{B.n} but the graph has {G.n} vertices")
    for i in range(B.n):
        if B.entries[i][i] == 0:
            return FittingReport(False, ("zero_diagonal", i))
        row = G.adj[i]
        for j in range(B.n):
            if j == i:
                continue
            if not row >> j & 1 and B.entries[i][j] != 0:
                return FittingReport(False, ("nonzero_on_nonadjacent", (i, j)))
    return FittingReport(True, None)


def matrix_rank(B):
    """Rank by one fraction-free elimination (Bareiss, Math. Comp. 1968).

    Each row is first cleared of denominators; scaling a row by a nonzero
    number leaves the rank alone.  Over Q every step divides exactly by the
    previous pivot, which keeps the entries the size of minors.  Over GF(p)
    entries are reduced mod p instead, and rows with a 0 in the pivot
    column are left as they are."""
    p = None if B.field == "Q" else B.field
    rows = []
    for row in B.entries:
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    rank, prev = 0, 1
    for col in range(B.n):
        pivot = next((r for r in range(rank, B.n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv, top = rows[rank][col], rows[rank][col:]
        for row in rows[rank + 1:]:
            f = row[col]
            if p is None:
                row[col:] = [(pv * x - f * y) // prev
                             for x, y in zip(row[col:], top)]
            elif f:
                row[col:] = [(pv * x - f * y) % p
                             for x, y in zip(row[col:], top)]
        prev = pv
        rank += 1
    return rank


def haemers_certificate(G, B):
    """Rank of a verified fitting matrix: a sound upper bound on the
    independence number of G, and rank**k bounds the k-th strong power."""
    report = verify_fitting(B, G)
    if not report.fits:
        raise FittingError(f"matrix does not fit the graph: {report.violation}")
    return matrix_rank(B)


def identity_certificate(G, field="Q"):
    n = G.n
    return fitting_matrix([[int(i == j) for j in range(n)] for i in range(n)],
                          field)


def adjacency_certificate(G, field="Q"):
    """Adjacency plus identity: zeros exactly on the non-adjacent pairs."""
    n = G.n
    return fitting_matrix([[int(i == j or G.adj[i] >> j & 1) for j in range(n)]
                           for i in range(n)], field)


def kron(B, C):
    """Tensor product over a shared field; ranks multiply."""
    if B.field != C.field:
        raise FittingError("tensor factors live over different fields")
    return fitting_matrix([[x * y for x in row_b for y in row_c]
                           for row_b in B.entries for row_c in C.entries],
                          B.field)


# -- JSON -------------------------------------------------------------------


def fitting_to_json(B):
    if B.field == "Q":
        doc = {"field": "Q",
               "entries": [[str(x) for x in row] for row in B.entries]}
    else:
        doc = {"field": f"GF({B.field})",
               "entries": [[int(x) for x in row] for row in B.entries]}
    return json.dumps(doc, sort_keys=True)


def fitting_from_json(text):
    doc = json.loads(text)
    try:
        field = doc["field"]
        if not isinstance(field, str):
            raise FittingError(f"field must be a string, not {field!r}")
        if field != "Q" and field.startswith("GF(") and field.endswith(")"):
            field = int(field[3:-1])
        if field == "Q" or isinstance(field, int):
            return fitting_matrix(doc["entries"], field)
    except (KeyError, TypeError, ValueError) as exc:
        raise FittingError(f"malformed matrix JSON: {exc}")
    raise FittingError(f"unknown field {doc.get('field')!r}")

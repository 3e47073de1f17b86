import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.graphs import complement, complete, cycle, from_edges
from shancap.haemers import (CONVENTION, FittingError, FittingMatrix,
                             adjacency_certificate, fitting_from_json,
                             fitting_matrix, fitting_to_json,
                             haemers_certificate, identity_certificate, kron,
                             matrix_rank, verify_fitting)
from shancap.solvers import max_independent_set


def test_identity_fits_everything():
    for G in (cycle(5), complete(4), from_edges(3, [])):
        B = identity_certificate(G)
        assert verify_fitting(B, G).fits
        assert matrix_rank(B) == G.n


def test_all_ones_fits_complete():
    G = complete(5)
    B = fitting_matrix([[1] * 5] * 5)
    assert verify_fitting(B, G).fits
    assert haemers_certificate(G, B) == 1  # equals alpha(K5)
    # but all-ones does not fit C5: nonzero on a non-adjacent pair
    rep = verify_fitting(B, cycle(5))
    assert not rep.fits
    assert rep.violation[0] == "nonzero_on_nonadjacent"


def test_adjacency_certificate_fits():
    for G in (cycle(5), cycle(7), complete(3)):
        B = adjacency_certificate(G)
        assert verify_fitting(B, G).fits
        assert haemers_certificate(G, B) >= len(max_independent_set(G).vertices)


def test_zero_diagonal_rejected():
    G = cycle(4)
    rows = [[0, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]]
    rep = verify_fitting(fitting_matrix(rows), G)
    assert not rep.fits and rep.violation == ("zero_diagonal", 0)
    with pytest.raises(FittingError):
        haemers_certificate(G, fitting_matrix(rows))


def test_convention_is_stated():
    assert verify_fitting(identity_certificate(cycle(4)), cycle(4)).convention \
        == CONVENTION == "zero_on_nonadjacent"


def test_rank_known_cases():
    assert matrix_rank(fitting_matrix([[1, 0], [0, 1]])) == 2
    assert matrix_rank(fitting_matrix([[1] * 4] * 4)) == 1
    # oracle: a 6x6 built as (6x3)(3x6) has rank exactly 3
    rng = random.Random(5)
    L = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
         for _ in range(6)]
    R = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
         for _ in range(3)]
    P = [[sum(L[i][k] * R[k][j] for k in range(3)) for j in range(6)]
         for i in range(6)]
    assert matrix_rank(FittingMatrix(tuple(tuple(r) for r in P))) == 3


def test_rank_kron_multiplicative():
    rng = random.Random(21)
    for _ in range(30):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        B = fitting_matrix([[rng.randint(-3, 3) for _ in range(n1)]
                            for _ in range(n1)])
        C = fitting_matrix([[rng.randint(-3, 3) for _ in range(n2)]
                            for _ in range(n2)])
        assert matrix_rank(kron(B, C)) == matrix_rank(B) * matrix_rank(C)


def test_rank_gfp_at_most_rational():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        rq = matrix_rank(fitting_matrix(rows))
        for p in (2, 3):
            rp = matrix_rank(fitting_matrix(rows, field=p))
            assert rp <= rq
    # strict drop example: determinant 3 vanishes mod 3
    assert matrix_rank(fitting_matrix([[2, 1], [1, 2]], field=3)) == 1
    assert matrix_rank(fitting_matrix([[2, 1], [1, 2]])) == 2


def test_random_fitting_matrices_bound_alpha():
    rng = random.Random(777)
    for _ in range(100):
        n = rng.randint(2, 8)
        G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 0.5])
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(Fraction(rng.randint(1, 5)))
                elif G.has_edge(i, j):
                    row.append(Fraction(rng.randint(-3, 3)))
                else:
                    row.append(Fraction(0))
            rows.append(tuple(row))
        B = FittingMatrix(tuple(rows))
        assert verify_fitting(B, G).fits
        alpha = len(max_independent_set(G).vertices)
        assert haemers_certificate(G, B) >= alpha


def test_identity_on_heptagon_weak_but_sound():
    G = cycle(7)
    assert haemers_certificate(G, identity_certificate(G)) == 7


def test_gf2_certificate_on_complement():
    G = complement(cycle(7))
    B = adjacency_certificate(G, field=2)
    assert verify_fitting(B, G).fits
    assert haemers_certificate(G, B) >= len(max_independent_set(G).vertices)


def test_json_roundtrip():
    B = fitting_matrix([[Fraction(1, 2), 0], [0, Fraction(-3, 7)]])
    assert fitting_from_json(fitting_to_json(B)) == B
    Bp = fitting_matrix([[1, 2], [0, 1]], field=3)
    assert fitting_from_json(fitting_to_json(Bp)) == Bp
    with pytest.raises(FittingError):
        fitting_from_json('{"field": "R", "entries": [[1]]}')


def test_composite_modulus_rejected():
    with pytest.raises(FittingError):
        fitting_matrix([[2, 0], [0, 2]], field=4)
    with pytest.raises(FittingError):
        FittingMatrix(((1, 0), (0, 1)), 1)
    with pytest.raises(FittingError):
        fitting_from_json('{"field": "GF(4)", "entries": [[1, 0], [0, 1]]}')
    assert matrix_rank(fitting_matrix([[2, 0], [0, 2]], field=5)) == 2


def test_rank_kron_multiplicative_over_gf2():
    # det = 2: rank 3 over Q but 2 over GF(2)
    B = fitting_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]], field=2)
    C = adjacency_certificate(cycle(6), field=2)
    assert (matrix_rank(B), matrix_rank(C)) == (2, 4)
    K = kron(B, C)
    assert K.field == 2
    assert {x for row in K.entries for x in row} == {0, 1}
    assert matrix_rank(K) == 8
    assert matrix_rank(kron(K, B)) == 16


def _gauss_jordan_rank(rows, p=None):
    """Reference rank: reduce each pivot to 1 and clear its column in every
    other row, over Fraction (p None) or over the integers mod p."""
    red = (lambda x: x) if p is None else (lambda x: x % p)
    mat = [[red(Fraction(x) if p is None else x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat)):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col] if p is None else pow(mat[rank][col], -1, p)
        mat[rank] = [red(x * inv) for x in mat[rank]]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != rank and f:
                mat[r] = [red(x - f * y) for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@st.composite
def rank_cases(draw):
    """A square matrix over Q or GF(p), n <= 10; half of them are products
    L·R through an inner dimension k <= n, so rank-deficient ones are
    common."""
    field = draw(st.sampled_from(["Q", 2, 3, 5, 7]))
    n = draw(st.integers(1, 10))
    entry = (st.fractions(-4, 4, max_denominator=3) if field == "Q"
             else st.integers(0, field - 1))

    def matrix(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if draw(st.booleans()):
        return fitting_matrix(matrix(n, n), field)
    k = draw(st.integers(0, n))
    L, R = matrix(n, k), matrix(k, n)
    return fitting_matrix([[sum((L[i][t] * R[t][j] for t in range(k)), 0)
                            for j in range(n)] for i in range(n)], field)


@settings(max_examples=300, deadline=None)
@given(rank_cases())
def test_rank_matches_gauss_jordan(B):
    p = None if B.field == "Q" else B.field
    assert matrix_rank(B) == _gauss_jordan_rank(B.entries, p)


@pytest.mark.parametrize("field", ["2", "null", "[3]"])
def test_json_field_must_be_a_string(field):
    with pytest.raises(FittingError, match="field must be a string"):
        fitting_from_json(f'{{"field": {field}, "entries": [[1]]}}')


@pytest.mark.parametrize("field, entries, message", [
    ("GF(3)", "[[1.9, 0], [0, 1]]", "entry 1.9 is not an int"),
    ("GF(3)", "[[1, 0], [0, true]]", "entry True is not an int"),
    ("Q", "[[0.1]]", "entry 0.1 is not an int, a Fraction"),
    ("Q", '[["0.1"]]', "entry '0.1' is not an int, a Fraction"),
    ("Q", '[["1/0"]]', "entry '1/0' is not an int, a Fraction"),
    ("Q", "[[true]]", "entry True is not an int, a Fraction"),
    ("Q", '["1"]', "rows must be lists"),
    ("GF(0)", "[[1]]", "prime modulus, not 0"),
])
def test_json_rejects_what_it_cannot_read_exactly(field, entries, message):
    with pytest.raises(FittingError, match=message):
        fitting_from_json(f'{{"field": "{field}", "entries": {entries}}}')

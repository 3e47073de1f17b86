"""One orbit routine, ``ProductIndex.orbit``, serves both symmetric
searches: the report's invariant search and the king search's orbital
branching under the origin stabilizer."""

from itertools import permutations, product

import pytest

from shancap.graphs import ProductIndex
from shancap.kings import Board, _stabilizer_orbit

BOARDS = [(p, d) for p in (3, 4, 5, 7, 9) for d in range(1, 5)
          if p ** d <= 2500]


def _brute_force_orbit(board, cell):
    """Every coordinate permutation with every choice of per-axis signs:
    d! * 2^d images of ``cell``."""
    p, d = board.p, board.d
    out = set()
    for perm in permutations(range(d)):
        permuted = tuple(cell[perm[i]] for i in range(d))
        for signs in product((1, -1), repeat=d):
            out.add(tuple((c * s) % p for c, s in zip(permuted, signs)))
    return out


@pytest.mark.parametrize("p,d", BOARDS)
def test_the_stabilizer_orbit_matches_brute_force_on_every_cell(p, d):
    board = Board(p, d)
    index = board.index
    reference = {}  # cell -> its brute-force orbit, built once per orbit
    for v in range(index.size):
        cell = index.decode(v)
        if cell not in reference:
            orbit = _brute_force_orbit(board, cell)
            reference.update(dict.fromkeys(orbit, orbit))
        assert _stabilizer_orbit(board, cell) == reference[cell]


def _shift_and_negation(n):
    return [lambda t: t[1:] + t[:1], lambda t: tuple(-c % n for c in t)]


def test_an_orbit_is_breadth_first_from_its_start():
    index = ProductIndex((5, 5))
    start = index.encode((1, 2))
    assert index.orbit(start, _shift_and_negation(5)) == [
        index.encode(t) for t in ((1, 2), (2, 1), (4, 3), (3, 4))]
    assert index.orbit(start, []) == [start]
    assert index.orbit(0, _shift_and_negation(5)) == [0]


def test_an_orbit_is_the_same_set_from_each_of_its_members():
    index = ProductIndex((7, 7, 7))
    gens = _shift_and_negation(7)
    for v in range(index.size):
        orbit = index.orbit(v, gens)
        assert orbit[0] == v and len(set(orbit)) == len(orbit)
        assert all(sorted(index.orbit(u, gens)) == sorted(orbit)
                   for u in orbit)

"""The MIS engine's clique cover and its reversed labels, as properties
on random graphs whose masks span several int digits."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.graphs import bits, from_edges
from shancap.solvers import (SolverConfig, _MISEngine, _reversed_mask,
                             is_clique)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 200), data=st.data())
def test_reversed_mask_moves_bit_v_to_n_minus_1_minus_v(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    expected = sum(1 << (n - 1 - v) for v in bits(mask))
    assert _reversed_mask(mask, n) == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_cover_partitions_cand_into_cliques_that_branching_can_reuse(
        n, density, seed):
    rng = random.Random(seed)
    G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                       if rng.random() < density])
    eng = _MISEngine(G.adj, SolverConfig())  # G's labels as engine labels
    cand = rng.getrandbits(n)
    classes = eng.cover(cand)
    union = 0
    for cls in classes:
        assert cls and not cls & union
        assert is_clique(G, list(bits(cls)))
        union |= cls
    assert union == cand
    # expand branches on the low bit of the last class and, off the orbit
    # path, keeps the other classes as the cover of what is left
    while classes:
        last = classes.pop()
        low = last & -last
        if last ^ low:
            classes.append(last ^ low)
        cand ^= low
        assert eng.cover(cand) == classes


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), density=st.floats(0.0, 1.0),
       removed=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_cover_of_a_shrunk_set_keeps_the_classes_before_the_removed_ones(
        n, density, removed, seed):
    rng = random.Random(seed)
    G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                       if rng.random() < density])
    eng = _MISEngine(G.adj, SolverConfig())  # G's labels as engine labels
    cand = rng.getrandbits(n)
    # R may reach outside cand, as N(b) and orbits do in expand
    gone = sum(1 << v for v in range(n) if rng.random() < removed)
    prior = eng.cover(cand)
    k = next((i for i, cls in enumerate(prior) if cls & gone), len(prior))
    rest = cand & ~gone
    for cls in prior[:k]:
        rest ^= cls
    expected = eng.cover(cand & ~gone)
    assert prior[:k] + eng.cover(rest) == expected
    assert eng.cover(cand & ~gone, prior, gone) == expected

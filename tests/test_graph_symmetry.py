"""``Graph`` rejects an asymmetric adjacency wherever the unmatched pair
sits, and names a pair that has no mirror."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.graphs import Graph, GraphError


def _named_pair(rows):
    with pytest.raises(GraphError, match="not symmetric") as info:
        Graph(len(rows), tuple(rows))
    v, u = map(int, re.search(r"\((\d+),(\d+)\)", str(info.value)).groups())
    return v, u


def test_an_asymmetry_only_below_the_diagonal_is_rejected_with_its_pair():
    # vertex 2 lists 0, vertex 0 lists nobody
    assert _named_pair([0, 0, 1]) == (2, 0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 90), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), below=st.booleans())
def test_one_unmatched_pair_on_either_side_is_named(n, density, seed, below):
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    assert Graph(n, tuple(rows)).adj == tuple(rows)
    u, v = sorted(rng.sample(range(n), 2))  # u < v
    if below:
        u, v = v, u
    # row u keeps bit v and row v loses bit u: (u, v) is the only bad pair
    rows[u] |= 1 << v
    rows[v] &= ~(1 << u)
    assert _named_pair(rows) == (u, v)

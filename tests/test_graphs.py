import random

import pytest

from shancap.graphs import (Graph, GraphError, ProductIndex, VertexLimitError,
                            complement, complete, conormal_product, cycle,
                            disjoint_union, empty, from_edges, generate,
                            is_isomorphic, path, strong_power, strong_product)


def test_generators_basic():
    C5 = cycle(5)
    assert C5.n == 5 and C5.num_edges == 5
    assert all(C5.degree(v) == 2 for v in range(5))
    P8 = path(8)
    assert P8.n == 8 and P8.num_edges == 7
    assert complete(4).num_edges == 6
    assert empty(6).num_edges == 0


def test_generator_rejections():
    with pytest.raises(GraphError):
        generate("cycle", 2)
    with pytest.raises(GraphError):
        generate("path", 0)
    with pytest.raises(GraphError):
        generate("nonsense", 4)


def test_graph_invariant_validation():
    with pytest.raises(GraphError):
        Graph(2, (1, 2))  # self-loop at vertex 0
    with pytest.raises(GraphError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(GraphError):
        from_edges(3, [(0, 1)], labels=((0,), (0,), (1,)))  # dup labels


def test_complement_involution_and_examples():
    for G in (cycle(5), path(6), complete(4), cycle(7)):
        assert complement(complement(G)).adj == G.adj
    # the pentagon is self-complementary
    assert is_isomorphic(complement(cycle(5)), cycle(5))
    # complement of C4 is two disjoint edges
    CC4 = complement(cycle(4))
    assert CC4.num_edges == 2
    assert sorted(CC4.degree(v) for v in range(4)) == [1, 1, 1, 1]
    assert complement(complete(5)).num_edges == 0


def test_product_index_roundtrip():
    idx = ProductIndex((3, 4, 5))
    assert idx.size == 60
    for i in range(60):
        assert idx.encode(idx.decode(i)) == i
    assert idx.decode(0) == (0, 0, 0)
    # leftmost factor most significant
    assert idx.encode((1, 0, 0)) == 20
    with pytest.raises(GraphError):
        idx.encode((3, 0, 0))


def test_strong_product_king_graph():
    K = strong_product(path(8), path(8))
    assert K.n == 64
    corner = K.labels.index((0, 0))
    assert K.degree(corner) == 3
    center = K.labels.index((3, 3))
    assert K.degree(center) == 8


def test_strong_product_identity_and_degree():
    H = cycle(6)
    P = strong_product(complete(1), H)
    assert is_isomorphic(P, H)
    # oracle: neighbors of (0,0) in C4 x C4 counted from the definition
    C4 = cycle(4)
    deg = sum(
        1
        for a in range(4)
        for b in range(4)
        if (a, b) != (0, 0)
        and (a == 0 or C4.has_edge(0, a))
        and (b == 0 or C4.has_edge(0, b))
    )
    assert deg == 8
    P44 = strong_product(C4, C4)
    assert all(P44.degree(v) == 8 for v in range(16))


def test_strong_power_basic():
    G = strong_power(cycle(7), 2)
    assert G.n == 49
    # oracle above gives 8 for every vertex of C7^2
    assert set(G.degree(v) for v in range(49)) == {8}
    assert strong_power(cycle(7), 1).adj == cycle(7).adj
    assert G.labels[0] == (0, 0) and G.labels[8] == (1, 1)


def test_ambiguous_product_labels_are_rejected():
    G = from_edges(2, [], labels=((0,), (0, 0)))
    with pytest.raises(GraphError, match=r"\(0,\) \+ \(0, 0\) and "
                       r"\(0, 0\) \+ \(0,\) both read \(0, 0, 0\)"):
        strong_power(G, 2)


def test_strong_power_splits_into_products():
    G = cycle(5)
    for a, b in ((1, 1), (1, 2), (2, 1)):
        whole = strong_power(G, a + b)
        split = strong_product(strong_power(G, a), strong_power(G, b))
        assert whole.adj == split.adj
        assert whole.labels == split.labels


def test_conormal_product_identity_and_duality():
    H = cycle(5)
    assert is_isomorphic(conormal_product(complete(1), H), H)
    G, H = cycle(5), cycle(4)
    lhs = complement(conormal_product(G, H))
    rhs = strong_product(complement(G), complement(H))
    assert lhs.adj == rhs.adj


def test_product_duality_random_pairs():
    rng = random.Random(42)
    for _ in range(100):
        n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
        G = _random_graph(rng, n1)
        H = _random_graph(rng, n2)
        assert complement(strong_product(G, H)).adj == \
            conormal_product(complement(G), complement(H)).adj


def _random_graph(rng, n, p=0.5):
    return from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p])


def test_strong_product_commutative_associative_up_to_iso():
    rng = random.Random(7)
    for _ in range(20):
        G = _random_graph(rng, rng.randint(2, 3))
        H = _random_graph(rng, rng.randint(2, 4))
        assert is_isomorphic(strong_product(G, H), strong_product(H, G))
    A, B, C = cycle(3), path(2), path(2)
    assert is_isomorphic(strong_product(strong_product(A, B), C),
                         strong_product(A, strong_product(B, C)))


def test_disjoint_union():
    U = disjoint_union(cycle(5), cycle(5))
    assert U.n == 10 and U.num_edges == 10
    assert not U.has_edge(0, 5)
    U2 = disjoint_union(complete(1), complete(1))
    assert U2.num_edges == 0 and U2.n == 2


def test_vertex_limit_guard():
    with pytest.raises(VertexLimitError):
        strong_power(cycle(7), 9)
    with pytest.raises(VertexLimitError):
        strong_product(complete(30), complete(30), vertex_limit=100)
    # explicit override allows it
    G = strong_product(complete(30), complete(30), vertex_limit=1000)
    assert G.n == 900


def test_is_isomorphic_negative():
    assert not is_isomorphic(cycle(6), path(6))
    assert not is_isomorphic(cycle(5), cycle(7))
    G = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    H = from_edges(4, [(0, 2), (2, 1), (1, 3)])  # relabeled path
    assert is_isomorphic(G, H)


def test_is_isomorphic_exact_beyond_invariants():
    # same degrees, neighbour degrees and triangle count, different cycles
    assert not is_isomorphic(disjoint_union(cycle(6), cycle(7)), cycle(13))

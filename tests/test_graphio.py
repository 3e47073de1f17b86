import random

import pytest

from shancap.graphio import (GraphFormatError, parse_dimacs, parse_graph,
                             parse_graph6, parse_json, write_dimacs,
                             write_graph, write_graph6, write_json)
from shancap.graphs import (VertexLimitError, complete, cycle, from_edges, path,
                            strong_product)


def _reference_graph6(G):
    """Independent encoder used as the oracle for the production one:
    builds the bit string explicitly and packs 6 bits at a time."""
    assert G.n <= 62
    bits = ""
    for j in range(1, G.n):
        for i in range(j):
            bits += "1" if G.has_edge(i, j) else "0"
    bits += "0" * (-len(bits) % 6)
    out = [chr(G.n + 63)]
    for k in range(0, len(bits), 6):
        out.append(chr(int(bits[k:k + 6], 2) + 63))
    return "".join(out).encode("ascii")


def test_graph6_matches_reference_encoder():
    rng = random.Random(11)
    cases = [cycle(5), path(8), complete(4), complete(1)]
    for _ in range(50):
        n = rng.randint(1, 12)
        cases.append(from_edges(n, [(u, v) for u in range(n)
                                    for v in range(u + 1, n)
                                    if rng.random() < 0.4]))
    for G in cases:
        assert write_graph6(G) == _reference_graph6(G)


def test_graph6_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 40)
        G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 0.3])
        H = parse_graph6(write_graph6(G))
        assert H.n == G.n and H.adj == G.adj


def test_graph6_large_n_prefix():
    G = from_edges(100, [(i, i + 1) for i in range(99)])
    data = write_graph6(G)
    assert data[0] == 126  # multi-byte size marker
    H = parse_graph6(data)
    assert H.adj == G.adj


def test_graph6_header_accepted():
    data = b">>graph6<<" + write_graph6(cycle(5))
    assert parse_graph6(data).adj == cycle(5).adj


def test_graph6_errors_carry_offsets():
    with pytest.raises(GraphFormatError) as err:
        parse_graph6(b"D\x00\x00")
    assert err.value.offset is not None
    with pytest.raises(GraphFormatError):
        parse_graph6(b"D")  # truncated adjacency bits
    with pytest.raises(GraphFormatError):
        parse_graph6(write_graph6(cycle(5)) + b"extra")


def test_dimacs_roundtrip():
    for G in (cycle(5), path(8), complete(6)):
        H = parse_dimacs(write_dimacs(G))
        assert H.adj == G.adj


def test_dimacs_out_of_range_edge():
    text = "p edge 5 1\ne 1 6\n"
    with pytest.raises(GraphFormatError) as err:
        parse_dimacs(text)
    assert "out of range" in str(err.value)
    assert err.value.offset == len("p edge 5 1\n")


def test_dimacs_malformed_header():
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edges 5 4\ne 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_dimacs("e 1 2\n")


def test_dimacs_inconsistent_edge_count():
    with pytest.raises(GraphFormatError) as err:
        parse_dimacs("p edge 4 3\ne 1 2\ne 2 3\n")
    assert "declares 3" in str(err.value)


def test_dimacs_comments_skipped():
    G = parse_dimacs("c a comment\np edge 3 2\nc another\ne 1 2\ne 2 3\n")
    assert G.n == 3 and G.num_edges == 2


def test_json_roundtrip_with_labels():
    G = strong_product(cycle(3), cycle(4))
    H = parse_json(write_json(G))
    assert H.adj == G.adj and H.labels == G.labels


def test_json_errors():
    with pytest.raises(GraphFormatError):
        parse_json("{not json")
    with pytest.raises(GraphFormatError):
        parse_json('{"n": 0, "edges": []}')
    with pytest.raises(GraphFormatError):
        parse_json('{"n": 3, "edges": [[0, 7]]}')


def test_format_dispatch_roundtrip():
    G = cycle(6)
    for fmt in ("graph6", "dimacs", "json"):
        data = write_graph(G, fmt)
        H = parse_graph(data, fmt)
        assert H.adj == G.adj


@pytest.mark.parametrize("doc, message", [
    ('{"n": 3, "edges": 5}', "'edges' must be a list"),
    ('{"n": 2, "edges": [], "labels": [1, 2]}', "'labels' must be a list"),
    ('{"n": true, "edges": []}', "'n' must be a positive integer"),
    ('{"n": 2, "edges": [[0, true]]}', "bad edge entry"),
])
def test_json_rejects_wrong_types(doc, message):
    with pytest.raises(GraphFormatError, match=message):
        parse_json(doc)


def test_parsers_refuse_graphs_over_the_vertex_limit():
    G = cycle(7)
    for fmt in ("graph6", "dimacs", "json"):
        data = write_graph(G, fmt)
        assert parse_graph(data, fmt, vertex_limit=7).adj == G.adj
        with pytest.raises(VertexLimitError, match="7 vertices"):
            parse_graph(data, fmt, vertex_limit=6)

"""Malformed input is rejected with a clear error, at every check the
readers, the graph constructors and the CLI make: graph files, graph
objects and command lines."""

import json

import pytest

from shancap.cli import SpecParseError, graph_spec_parse, run
from shancap.graphio import (GraphFormatError, load_graph, parse_dimacs,
                             parse_graph, parse_graph6, parse_json,
                             write_graph, write_graph6)
from shancap.graphs import (Graph, GraphError, ProductIndex, VertexLimitError,
                            cycle, from_edges, path, strong_power)
from shancap.umbrella import odd_cycle_umbrella, umbrella_from_json


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- graph6 -------------------------------------------------------------------


def test_graph6_is_read_from_str_as_from_bytes():
    text = write_graph6(cycle(5)).decode("ascii")
    assert parse_graph6(text).adj == cycle(5).adj


@pytest.mark.parametrize("data", [b"", b"  \n", b">>graph6<<"])
def test_empty_graph6_is_rejected(data):
    with pytest.raises(GraphFormatError, match="empty graph6 input"):
        parse_graph6(data)


def test_graph6_with_zero_vertices_is_rejected():
    with pytest.raises(GraphFormatError, match="zero vertices"):
        parse_graph6(b"?")  # 63: n = 0


def test_graph6_padding_bits_must_be_zero():
    # n = 2: one adjacency bit, then five padding bits; the last one is set
    data = bytes([2 + 63, 0b100001 + 63])
    with pytest.raises(GraphFormatError, match="nonzero padding") as err:
        parse_graph6(data)
    assert err.value.offset == 1
    assert parse_graph6(bytes([2 + 63, 0b100000 + 63])).adj == path(2).adj


def test_six_byte_graph6_size_is_refused_before_the_body_is_read():
    n = 300_000  # above 258047: the 8-byte size prefix ~~ + six bytes
    header = bytes([126, 126]) + bytes(((n >> s) & 63) + 63
                                       for s in (30, 24, 18, 12, 6, 0))
    with pytest.raises(VertexLimitError, match=f"would have {n} vertices"):
        parse_graph6(header)  # no adjacency bits follow
    with pytest.raises(GraphFormatError, match="truncated graph6 adjacency"):
        parse_graph6(header, vertex_limit=n)


# -- DIMACS -------------------------------------------------------------------


def test_dimacs_is_read_from_bytes_as_from_str():
    assert parse_dimacs(b"p edge 3 1\ne 1 3\n").adj == \
        from_edges(3, [(0, 2)]).adj


@pytest.mark.parametrize("text, message, offset", [
    ("p edge 2 0\np edge 2 0\n", "duplicate problem line", 11),
    ("p edge x 0\n", "non-integer header fields", 0),
    ("p edge 2 -1\n", "header out of range", 0),
    ("p edge 0 0\n", "header out of range", 0),
    ("p edge 2 1\ne 1\n", "malformed edge line", 11),
    ("p edge 2 1\ne 1 y\n", "non-integer edge endpoints", 11),
    ("p edge 2 1\ne 2 2\n", "self-loop rejected", 11),
    ("p edge 2 0\nx 1 2\n", "unknown line type 'x'", 11),
    ("c no problem line\n", "missing problem line", 0),
])
def test_malformed_dimacs_is_rejected_at_its_offset(text, message, offset):
    with pytest.raises(GraphFormatError, match=message) as err:
        parse_dimacs(text)
    assert err.value.offset == offset


# -- JSON and dispatch ----------------------------------------------------------


@pytest.mark.parametrize("text", ['{"n": 3}', '{"edges": []}', "[3, []]"])
def test_json_graph_needs_n_and_edges(text):
    with pytest.raises(GraphFormatError, match="needs 'n' and 'edges'"):
        parse_json(text)


def test_unknown_format_is_rejected_with_the_known_ones_listed():
    expected = ("unknown format 'xml'; expected one of "
                "('graph6', 'dimacs', 'json')")
    with pytest.raises(GraphFormatError) as err:
        parse_graph("", "xml")
    assert str(err.value) == expected
    with pytest.raises(GraphFormatError) as err:
        write_graph(cycle(5), "xml")
    assert str(err.value) == expected


@pytest.mark.parametrize("body", [b"p edge 3 1\ne 1 3\n",
                                  b"c a comment first\np edge 3 1\ne 1 3\n"])
def test_extensionless_dimacs_is_sniffed(tmp_path, body):
    path = tmp_path / "graph"
    path.write_bytes(body)
    assert load_graph(path).adj == from_edges(3, [(0, 2)]).adj


def test_extensionless_graph6_is_the_fallback(tmp_path):
    path = tmp_path / "graph"
    path.write_bytes(write_graph6(cycle(7)))
    assert load_graph(path).adj == cycle(7).adj


# -- graphs ---------------------------------------------------------------------


@pytest.mark.parametrize("n, adj, labels, message", [
    (0, (), None, "at least one vertex"),
    (2, (0,), None, "row count != n"),
    (2, (0b100, 0), None, "adjacency row 0 has out-of-range bits"),
    (2, (0, 0), ((0,),), "label count != n"),
])
def test_malformed_graph_is_rejected(n, adj, labels, message):
    with pytest.raises(GraphError, match=message):
        Graph(n, adj, labels)


@pytest.mark.parametrize("edges, message", [
    ([(0, 2)], r"edge \(0,2\) out of range for n=2"),
    ([(1, 1)], r"self-loop \(1,1\) rejected"),
])
def test_from_edges_rejects_bad_edges(edges, message):
    with pytest.raises(GraphError, match=message):
        from_edges(2, edges)


def test_product_index_rejects_bad_radices_and_indices():
    with pytest.raises(GraphError, match="radices must be positive"):
        ProductIndex(())
    idx = ProductIndex((2, 3))
    with pytest.raises(GraphError, match="arity mismatch"):
        idx.encode((1,))
    with pytest.raises(GraphError, match="index 6 out of range"):
        idx.decode(6)
    assert idx.decode(5) == (1, 2)


def test_strong_power_needs_a_positive_exponent():
    with pytest.raises(GraphError, match="power k must be >= 1"):
        strong_power(cycle(5), 0)


# -- cli ------------------------------------------------------------------------


def test_spec_without_a_colon_is_an_unrecognized_token():
    with pytest.raises(SpecParseError, match="unrecognized token at 'cycle7'"):
        graph_spec_parse("cycle7")


def test_layered_kings_need_two_dimensions(capsys):
    code, out, err = run_capture(
        capsys, ["kings", "--p", "5", "--d", "1", "--method", "layered"])
    assert (code, out) == (1, "")
    assert err == "error: layered needs d >= 2\n"


def test_haemers_verb_rejects_a_matrix_that_does_not_fit(tmp_path, capsys):
    m = tmp_path / "m.json"
    # a nonzero entry on the non-edge (0, 2) of C4
    m.write_text(json.dumps({"field": "Q", "entries": [
        ["1", "0", "1", "0"], ["0", "1", "0", "0"],
        ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}))
    code, out, err = run_capture(
        capsys, ["haemers", "verify", "cycle:4", "--matrix", str(m)])
    assert (code, out) == (1, "")
    assert err == ("error: matrix does not fit (zero_on_nonadjacent): "
                   "('nonzero_on_nonadjacent', (0, 2))\n")


def test_gen_writes_graph6_text_to_stdout(capsys):
    code, out, _ = run_capture(capsys, ["gen", "cycle:6", "--format",
                                        "graph6"])
    assert code == 0
    assert out == write_graph6(cycle(6)).decode("ascii") + "\n"


def test_umbrella_gen_cycle_writes_json_to_stdout(capsys):
    code, out, _ = run_capture(capsys, ["umbrella", "gen-cycle", "5"])
    assert code == 0 and out.endswith("}\n")
    u = umbrella_from_json(out)
    assert u.states.tolist() == odd_cycle_umbrella(5).states.tolist()

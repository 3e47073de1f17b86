"""Graph serialization: graph6, DIMACS .col, and a JSON edge-list schema.

Parse errors carry the byte offset of the offending token where the format
is byte-oriented; JSON decode errors keep the position reported by the
json module.
"""

from __future__ import annotations

import json

from .graphs import (DEFAULT_VERTEX_LIMIT, GraphError, check_vertex_limit,
                     from_edges)


class GraphFormatError(GraphError):
    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


# -- graph6 ----------------------------------------------------------------


def _g6_size_bytes(n):
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0))
    raise GraphFormatError("graph too large for graph6")


def write_graph6(G):
    """Standard ASCII graph6 encoding (no >>graph6<< header)."""
    n = G.n
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(G.adj[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    data = bytearray(_g6_size_bytes(n))
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        data.append(val + 63)
    return bytes(data)


def parse_graph6(data, vertex_limit=DEFAULT_VERTEX_LIMIT):
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise GraphFormatError("empty graph6 input", offset=0)
    pos = 0

    def take(k, what):
        nonlocal pos
        if pos + k > len(data):
            raise GraphFormatError(f"truncated graph6 {what}", offset=pos)
        chunk = data[pos:pos + k]
        for i, c in enumerate(chunk):
            if not 63 <= c <= 126:
                raise GraphFormatError(
                    f"graph6 byte {c} out of range 63..126", offset=pos + i
                )
        pos += k
        return chunk

    first = take(1, "size")[0]
    if first != 126:
        n = first - 63
    else:
        second = take(1, "size")[0]
        if second != 126:
            rest = take(2, "size")
            n = ((second - 63) << 12) | ((rest[0] - 63) << 6) | (rest[1] - 63)
        else:
            rest = take(6, "size")
            n = 0
            for c in rest:
                n = (n << 6) | (c - 63)
    if n == 0:
        raise GraphFormatError("graph6 with zero vertices", offset=0)
    check_vertex_limit(n, vertex_limit, "graph6 graph")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = take(nbytes, "adjacency bits")
    if pos != len(data):
        raise GraphFormatError("trailing bytes after graph6 payload", offset=pos)
    bits = []
    for c in body:
        v = c - 63
        for s in range(5, -1, -1):
            bits.append(v >> s & 1)
    for extra in bits[nbits:]:
        if extra:
            raise GraphFormatError("nonzero padding bits in graph6", offset=pos - 1)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return from_edges(n, edges)


# -- DIMACS .col -------------------------------------------------------------


def write_dimacs(G):
    lines = [f"p edge {G.n} {G.num_edges}"]
    for u, v in G.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_dimacs(text, vertex_limit=DEFAULT_VERTEX_LIMIT):
    if isinstance(text, bytes):
        text = text.decode("ascii")
    n = None
    declared_m = None
    edges = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.strip()
        if not line or line.startswith("c"):
            offset += len(raw)
            continue
        if line.startswith("p"):
            if n is not None:
                raise GraphFormatError("duplicate problem line", offset=offset)
            parts = line.split()
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError("malformed header, expected 'p edge n m'",
                                       offset=offset)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("non-integer header fields", offset=offset)
            if n < 1 or declared_m < 0:
                raise GraphFormatError("header out of range", offset=offset)
            check_vertex_limit(n, vertex_limit, "DIMACS graph")
        elif line.startswith("e"):
            if n is None:
                raise GraphFormatError("edge line before header", offset=offset)
            parts = line.split()
            if len(parts) != 3:
                raise GraphFormatError("malformed edge line", offset=offset)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer edge endpoints", offset=offset)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(
                    f"vertex index out of range 1..{n} in edge {u} {v}",
                    offset=offset)
            if u == v:
                raise GraphFormatError("self-loop rejected", offset=offset)
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"unknown line type {line[0]!r}", offset=offset)
        offset += len(raw)
    if n is None:
        raise GraphFormatError("missing problem line", offset=0)
    if len(edges) != declared_m:
        raise GraphFormatError(
            f"header declares {declared_m} edges but file lists {len(edges)}",
            offset=0)
    return from_edges(n, edges)


# -- JSON -------------------------------------------------------------------


def write_json(G):
    doc = {"n": G.n, "edges": [[u, v] for u, v in G.edges()]}
    if G.labels is not None:
        doc["labels"] = [list(t) for t in G.labels]
    return json.dumps(doc, sort_keys=True)


def parse_json(text, vertex_limit=DEFAULT_VERTEX_LIMIT):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", offset=exc.pos)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphFormatError("JSON graph needs 'n' and 'edges' fields")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise GraphFormatError("'n' must be a positive integer")
    check_vertex_limit(n, vertex_limit, "JSON graph")
    if not isinstance(doc["edges"], list):
        raise GraphFormatError("'edges' must be a list")
    edges = []
    for e in doc["edges"]:
        if (not isinstance(e, (list, tuple)) or len(e) != 2
                or not all(type(x) is int for x in e)):
            raise GraphFormatError(f"bad edge entry {e!r}")
        u, v = e
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFormatError(f"edge [{u}, {v}] out of range for n={n}")
        edges.append((u, v))
    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and all(
                isinstance(t, list) and all(type(x) is int for x in t)
                for t in labels)):
            raise GraphFormatError("'labels' must be a list of integer lists")
        labels = tuple(tuple(t) for t in labels)
    return from_edges(n, edges, labels)


# -- format dispatch ----------------------------------------------------------

# format name -> (parser, writer)
FORMATS = {"graph6": (parse_graph6, write_graph6),
           "dimacs": (parse_dimacs, write_dimacs),
           "json": (parse_json, write_json)}


def _codec(fmt):
    if fmt not in FORMATS:
        raise GraphFormatError(
            f"unknown format {fmt!r}; expected one of {tuple(FORMATS)}")
    return FORMATS[fmt]


def write_graph(G, fmt):
    return _codec(fmt)[1](G)


def parse_graph(data, fmt, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """Parse ``data`` in ``fmt``; a graph declaring more than
    ``vertex_limit`` vertices is refused before it is built."""
    return _codec(fmt)[0](data, vertex_limit)


def sniff_format(path, data):
    lower = str(path).lower()
    if lower.endswith((".g6", ".graph6")):
        return "graph6"
    if lower.endswith((".col", ".dimacs")):
        return "dimacs"
    if lower.endswith(".json"):
        return "json"
    head = data.lstrip()[:1]
    if head in (b"{", "{"):
        return "json"
    if head in (b"p", "p", b"c", "c"):
        return "dimacs"
    return "graph6"


def load_graph(path, vertex_limit=DEFAULT_VERTEX_LIMIT):
    with open(path, "rb") as fh:
        data = fh.read()
    fmt = sniff_format(path, data)
    if fmt != "graph6":
        data = data.decode("utf-8")
    return parse_graph(data, fmt, vertex_limit)

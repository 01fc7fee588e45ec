"""Reading and writing graphs: graph6, plain edge lists, DOT, K/P/C names."""

from __future__ import annotations

import re
from typing import Callable

from .graph import Graph, complete_graph, cycle_graph, path_graph

_G6_HEADER = ">>graph6<<"
_G6_CHARS = "".join(map(chr, range(63, 127)))


def _g6_encode_n(n: int) -> str:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return (
            chr(126)
            + chr(126)
            + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
        )
    raise ValueError("graph too large for graph6")


def to_graph6(g: Graph) -> str:
    """Serialize in graph6 format, without the ``>>graph6<<`` header: N(n)
    then the upper triangle of the adjacency matrix in column-major order,
    six bits per character."""
    parts = [_g6_encode_n(g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                parts.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        parts.append(chr((acc << (6 - nbits)) + 63))
    return "".join(parts)


def canonical_graph6(text: str, n: int) -> str:
    """``to_graph6`` of the graph that ``from_graph6`` read from ``text``:
    N(n) written afresh, then the checked body, the text's last
    ceil(n(n-1)/12) characters."""
    s = text.rstrip()
    return _g6_encode_n(n) + s[len(s) - (n * (n - 1) // 2 + 5) // 6 :]


def from_graph6(text: str, check_n: Callable[[int], None] | None = None) -> Graph:
    """Parse a single graph6 value (optional ``>>graph6<<`` header allowed).

    Every check on the text runs before the body is decoded; ``check_n``,
    when given, then sees the vertex count before a graph of that size is
    built.  The body is read one character, six vertex pairs, at a time
    straight into the adjacency rows."""
    n, body = _graph6_checked(text)
    if check_n is not None:
        check_n(n)
    return _graph6_decode(n, body)


def _graph6_checked(text: str) -> tuple[int, str]:
    """Every check on a graph6 value's text; returns its declared vertex
    count and its body."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    bad = s.lstrip(_G6_CHARS)
    if bad:
        raise ValueError(f"invalid graph6 character {bad[0]!r}")

    if s[0] != "~":
        n, i = ord(s[0]) - 63, 1
    else:
        # '~' then 3 digits of 6 bits, or '~~' then 6
        start, i = (2, 8) if s[1:2] == "~" else (1, 4)
        if len(s) < i:
            raise ValueError("truncated graph6 vertex count")
        n = 0
        for c in s[start:i]:
            n = n << 6 | (ord(c) - 63)

    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - i != nchars:
        raise ValueError(
            f"graph6 body has {len(s) - i} characters, expected {nchars} for n={n}"
        )
    # padding bits must be zero for a bit-exact value
    if nbits % 6 and (ord(s[-1]) - 63) & ((1 << (6 - nbits % 6)) - 1):
        raise ValueError("nonzero padding bits in graph6 body")
    return n, s[i:]


def _graph6_decode(n: int, body: str) -> Graph:
    """The graph on ``n`` vertices whose checked graph6 body is ``body``."""
    # pairs (u, j), u < j, in column-major order; zero padding sets no bit
    adj = [0] * n
    u, j = 0, 1
    for c in body:
        v = ord(c) - 63
        for bit in (32, 16, 8, 4, 2, 1):
            if v & bit:
                adj[u] |= 1 << j
                adj[j] |= 1 << u
            u += 1
            if u == j:
                u, j = 0, j + 1
    return Graph._from_adj(adj)


# ---------------------------------------------------------------------------
# edge lists


def parse_edge_list(text: str, check_n: Callable[[int], None] | None = None) -> Graph:
    """Parse ``u v`` lines into a graph.

    If every token is an integer, tokens are vertex indices and the vertex
    count is ``max+1``; ``check_n``, when given, sees that count before a
    graph of that size is built.  Otherwise tokens are symbolic names,
    indexed by first appearance and kept as labels.  ``#`` starts a comment.
    """
    pairs: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"edge list line {lineno}: expected 'u v'")
        pairs.append((parts[0], parts[1], lineno))

    def as_int(tok: str) -> int | None:
        try:
            return int(tok)
        except ValueError:
            return None

    if all(as_int(a) is not None and as_int(b) is not None for a, b, _ in pairs):
        edges = [(int(a), int(b)) for a, b, _ in pairs]
        if any(u < 0 or v < 0 for u, v in edges):
            raise ValueError("negative vertex index in edge list")
        n = max((max(u, v) for u, v in edges), default=-1) + 1
        if check_n is not None:
            check_n(n)
        return Graph(n, edges)

    index: dict[str, int] = {}
    edges = []
    for a, b, lineno in pairs:
        for tok in (a, b):
            if tok not in index:
                index[tok] = len(index)
        if a == b:
            raise ValueError(f"edge list line {lineno}: self-loop at {a!r}")
        edges.append((index[a], index[b]))
    names = sorted(index, key=index.get)
    return Graph(len(index), edges, labels=names)


def format_edge_list(g: Graph) -> str:
    """One ``u v`` line per edge, using labels when present."""
    return "".join(f"{g.label(u)} {g.label(v)}\n" for u, v in g.edges())


# ---------------------------------------------------------------------------
# DOT


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        if g.labels is not None:
            lines.append(f'  {v} [label="{g.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# named graphs

_NAME_RE = re.compile(r"^([KPCkpc])(\d+)$")


def graph_from_name(token: str, check_n: Callable[[int], None] | None = None) -> Graph:
    """Build K<n>, P<n> or C<n> from its name (e.g. ``K4``, ``P3``, ``C5``).
    ``check_n``, when given, sees the vertex count before the graph is built."""
    m = _NAME_RE.match(token.strip())
    if not m:
        raise ValueError(f"unknown graph name {token!r} (expected K<n>, P<n> or C<n>)")
    kind, num = m.group(1).upper(), int(m.group(2))
    if check_n is not None:
        check_n(num)
    if kind == "K":
        return complete_graph(num)
    if kind == "P":
        return path_graph(num)
    return cycle_graph(num)


def is_graph_name(token: str) -> bool:
    return bool(_NAME_RE.match(token.strip()))


# ---------------------------------------------------------------------------
# JSON graph objects


def graph_to_json(g: Graph) -> dict:
    obj: dict = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return obj


def _is_json_int(value) -> bool:
    """True for a JSON integer (``bool`` is an ``int`` subclass in Python,
    but not a JSON integer)."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_json(obj: dict, check_n: Callable[[int], None] | None = None) -> Graph:
    """Graph from ``{"n": int, "edges": [[u, v], ...], "labels": [...]}``;
    a field of the wrong type is a ValueError.  ``check_n``, when given,
    sees the declared vertex count before a graph of that size is built."""
    n, edges, labels = obj["n"], obj.get("edges", []), obj.get("labels")
    if not _is_json_int(n):
        raise ValueError(f"JSON graph field 'n' must be an integer, got {n!r}")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_json_int, e)) for e in edges
    ):
        raise ValueError("JSON graph field 'edges' must be a list of [u, v] integer pairs")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("JSON graph field 'labels' must be a list")
    if check_n is not None:
        check_n(n)
    return Graph(n, edges, labels=labels)

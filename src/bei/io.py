"""Reading and writing graphs: graph6, plain edge lists, DOT, K/P/C names."""

from __future__ import annotations

import json
import sys
from typing import Callable

from .graph import (
    _BRIEF_MAX,
    Graph,
    _brief,
    _check_vertex_count,
    _too_large,
    complete_graph,
    cycle_graph,
    path_graph,
)

# a decimal vertex count of more significant digits is too large for a graph
_MAX_DIGITS = len(str(sys.maxsize))

_G6_HEADER = ">>graph6<<"
_G6_CHARS = "".join(map(chr, range(63, 127)))


def is_graph6_word(line: str) -> bool:
    """Whether ``line`` is one word of graph6 characters, after an optional
    ``>>graph6<<`` header: the shape of a graph6 line, which no edge-list
    line (two words) has."""
    s = line.strip().removeprefix(_G6_HEADER)
    return bool(s) and not s.lstrip(_G6_CHARS)


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

    huge: list[str] = []
    try:
        indices = [
            int(tok) if len(tok) <= _MAX_DIGITS else _long_index(tok, huge)
            for a, b, _ in pairs
            for tok in (a, b)
        ]
    except ValueError:
        pass  # some token is a name
    else:
        if any(i < 0 for i in indices):
            raise ValueError("negative vertex index in edge list")
        if huge:
            raise _too_large(_plus_one(max(huge, key=lambda digits: (len(digits), digits))))
        n = max(indices, default=-1) + 1
        if check_n is not None:
            check_n(n)
        return Graph(n, zip(indices[::2], indices[1::2]))

    index: dict[str, int] = {}
    edges = []
    for a, b, lineno in pairs:
        for tok in (a, b):
            if tok not in index:
                index[tok] = len(index)
        if a == b:
            raise ValueError(f"edge list line {lineno}: self-loop at {_brief(a, 'str')}")
        edges.append((index[a], index[b]))
    names = sorted(index, key=index.get)
    return Graph(len(index), edges, labels=names)


def _long_index(token: str, huge: list[str]) -> int:
    """``int(token)`` for a token longer than ``_MAX_DIGITS``.  One of ASCII
    digits after an optional sign is told by its digits, not read, as
    ``int`` stops at 4300 of them: past ``_MAX_DIGITS`` significant digits
    it reads as -1 if negative, else as 0 with its digits put in ``huge``,
    for the vertex-count refusal."""
    unsigned = token[1:] if token[0] in "+-" else token
    if not (unsigned.isascii() and unsigned.isdigit()):
        return int(token)
    digits = unsigned.lstrip("0")
    if len(digits) <= _MAX_DIGITS:
        value = int(digits or "0")
        return -value if token[0] == "-" else value
    if token[0] == "-":
        return -1
    huge.append(digits)
    return 0


def _plus_one(digits: str) -> str:
    """The text of ``int(digits) + 1`` for ASCII ``digits`` of any length,
    written digit by digit."""
    head = digits.rstrip("9")
    carried = "0" * (len(digits) - len(head))
    return (head[:-1] + str(int(head[-1]) + 1) if head else "1") + carried


def format_edge_list(g: Graph) -> str:
    """One ``u v`` line per edge, using labels when present."""
    return "".join(f"{g.label(u)} {g.label(v)}\n" for u, v in g.edges())


# ---------------------------------------------------------------------------
# DOT


def to_dot(g: Graph) -> str:
    """DOT text, each label a quoted string with ``\\`` and ``"`` escaped."""
    lines = ["graph G {"]
    for v in range(g.n):
        if g.labels is not None:
            label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# named graphs


def graph_from_name(token: str, check_n: Callable[[int], None] | None = None) -> Graph:
    """Build K<n>, P<n> or C<n> from its name (e.g. ``K4``, ``P3``, ``C5``).
    ``check_n``, when given, sees the vertex count before the graph is built."""
    s = token.strip()
    if not is_graph_name(s):
        raise ValueError(f"unknown graph name {token!r} (expected K<n>, P<n> or C<n>)")
    # a count of more digits than sys.maxsize is refused by its digits, as
    # int() stops at 4300 of them
    kind, digits = s[0].upper(), s[1:].lstrip("0") or "0"
    if len(digits) > _MAX_DIGITS:
        raise _too_large(digits)
    num = int(digits)
    if check_n is not None:
        check_n(num)
    if kind == "K":
        return complete_graph(num)
    if kind == "P":
        return path_graph(num)
    return cycle_graph(num)


def is_graph_name(token: str) -> bool:
    """Whether ``token``, stripped, is one of K, P or C (either case) and
    then decimal digits only."""
    s = token.strip()
    return s[:1] in "KPCkpc" and s[1:].isdecimal()


# ---------------------------------------------------------------------------
# JSON graph objects


def read_json(text: str):
    """The JSON value ``text`` holds.  An integer of more digits than
    ``int()`` reads is a ValueError that shows it by its length."""
    return json.loads(text, parse_int=_json_int)


def _json_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ValueError(f"JSON integer {_brief(digits)} has too many digits") from None


def graph_to_json(g: Graph) -> dict:
    obj: dict = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return obj


def _is_json_int(value) -> bool:
    """True for a JSON integer (``bool`` is an ``int`` subclass in Python,
    but not a JSON integer)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(ok: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(map(ok, value))


def _json_fields(obj, what: str, fields: dict) -> list:
    """The values of ``obj``, a JSON record called ``what``, in the order of
    ``fields``: each key maps to ``(check, kind)``, or to ``(check, kind,
    default)`` if it may be left out.  A non-object, an unknown or missing
    key, or a failing value is a ValueError naming ``what`` and the key; a
    list, object or long value is shown by its type, not its whole text."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in fields:
            raise ValueError(f"{what} has an unknown field {key!r}")
    values = []
    for key, (check, kind, *default) in fields.items():
        if key not in obj and not default:
            raise ValueError(f"{what} has no field {key!r}")
        value = obj.get(key, *default)
        if key in obj and not check(value):
            shown = type(value).__name__ if isinstance(value, (list, dict)) else json.dumps(value)
            shown = shown if len(shown) <= _BRIEF_MAX else type(value).__name__
            raise ValueError(f"{what} field {key!r} must be {kind}, got {shown}")
        values.append(value)
    return values


_is_int_list = _list_of(_is_json_int)
_GRAPH_FIELDS = {
    "n": (_is_json_int, "an integer"),
    "edges": (_list_of(lambda e: _is_int_list(e) and len(e) == 2), "a list of [u, v] integer pairs", ()),
    "labels": (_list_of(lambda x: isinstance(x, str)), "a list of strings", None),
}


def graph_from_json(obj: dict, check_n: Callable[[int], None] | None = None) -> Graph:
    """Graph from ``{"n": int, "edges": [[u, v], ...], "labels": [str, ...]}``;
    ``check_n``, when given, sees ``n`` before a graph of that size is built,
    and after a count no graph can have is refused, as a name's or an edge
    list's is."""
    n, edges, labels = _json_fields(obj, "JSON graph", _GRAPH_FIELDS)
    _check_vertex_count(n)
    if check_n is not None:
        check_n(n)
    return Graph(n, edges, labels=labels)


# ---------------------------------------------------------------------------
# output formats


# each graph output format and the text it writes; graph6, the first, is the
# default.  Each writer is called by its module-level name, so a name rebound
# here (as a tracer does) is the one called.
_GRAPH_WRITERS = {
    "graph6": lambda g: to_graph6(g) + "\n",
    "dot": lambda g: to_dot(g),
    "edgelist": lambda g: format_edge_list(g),
    "json": lambda g: json.dumps(graph_to_json(g), indent=2) + "\n",
}

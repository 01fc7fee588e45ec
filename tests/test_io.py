"""Formats: graph6 (bit-exact), edge lists, DOT, names, JSON objects."""

import itertools
import json
import random
import re
import sys

import networkx as nx
import pytest

import bei
from bei.io import (
    _g6_encode_n,
    _graph6_checked,
    canonical_graph6,
    graph_from_json,
    graph_to_json,
    is_graph_name,
    read_json,
)

from conftest import mixed_graphs, to_nx


def test_graph6_known_values():
    # single edge on two vertices, and the 4-cycle, in standard encoding
    assert bei.to_graph6(bei.complete_graph(2)) == "A_"
    assert bei.to_graph6(bei.Graph(2)) == "A?"
    assert bei.to_graph6(bei.complete_graph(4)) == "C~"
    assert bei.from_graph6("C~") == bei.complete_graph(4)


def test_graph6_header_and_whitespace():
    g = bei.path_graph(4)
    assert not bei.to_graph6(g).startswith(">>graph6<<")
    assert bei.from_graph6(">>graph6<<" + bei.to_graph6(g)) == g
    assert bei.from_graph6(bei.to_graph6(g) + "\n") == g


def test_graph6_roundtrip_random_and_bit_exact_vs_networkx():
    rng = random.Random(20259)
    for _ in range(250):
        n = rng.randrange(0, 13)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.4]
        g = bei.Graph(n, edges)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        mine = bei.to_graph6(g)
        assert mine == nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert bei.from_graph6(mine) == g


def test_graph6_three_byte_vertex_count():
    g = bei.Graph(63, [(0, 62), (10, 20)])
    nxg = nx.Graph()
    nxg.add_nodes_from(range(63))
    nxg.add_edges_from(g.edges())
    s = bei.to_graph6(g)
    assert s == nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert bei.from_graph6(s) == g


def test_canonical_graph6_is_the_encoding_of_the_parsed_graph():
    rng = random.Random(15)
    for n in [*range(0, 14), 62, 63, 70]:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = bei.Graph(n, [e for e in pairs if rng.random() < 0.4])
        s = bei.to_graph6(g)
        long_n = "~" + "".join(chr(((n >> k) & 63) + 63) for k in (12, 6, 0))
        body = s[len(s) - (len(pairs) + 5) // 6 :]
        for text in (s, ">>graph6<<" + s, long_n + body, ">>graph6<<" + long_n + body + "\n"):
            parsed = bei.from_graph6(text)
            assert canonical_graph6(text, parsed.n) == bei.to_graph6(parsed) == s


def edge_list_reference(s: str, n: int) -> bei.Graph:
    """The body of ``s`` (its last ceil(C(n, 2) / 6) characters) read bit by
    bit into an edge list, pairs (u, j) with u < j in column-major order."""
    nbits = n * (n - 1) // 2
    body = s[len(s) - (nbits + 5) // 6 :]
    bits = "".join(format(ord(c) - 63, "06b") for c in body)
    pairs = [(u, j) for j in range(1, n) for u in range(j)]
    return bei.Graph(n, [p for p, b in zip(pairs, bits) if b == "1"])


def test_graph6_decodes_like_an_edge_list():
    rng = random.Random(6)
    dense = [
        bei.Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
        for n in (63, 64, 100)
    ]
    for g in [*mixed_graphs(), *dense]:
        s = bei.to_graph6(g)
        h = bei.from_graph6(s)
        ref = edge_list_reference(s, g.n)
        assert h.adj == ref.adj == g.adj and h.labels is None, s


def test_graph6_long_vertex_counts():
    # each n in the 4-character form ('~' + 3 digits) and in the 8-character
    # form ('~~' + 6 digits), canonical or not, read as networkx reads it
    rng = random.Random(7)
    for n in (0, 1, 5, 62, 63, 70):
        g = bei.Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.3])
        s = bei.to_graph6(g)
        body = s[len(s) - (n * (n - 1) // 2 + 5) // 6 :]
        heads = [
            "~" + "".join(chr(63 + (n >> k & 63)) for k in (12, 6, 0)),
            "~~" + "".join(chr(63 + (n >> k & 63)) for k in (30, 24, 18, 12, 6, 0)),
        ]
        for text in (head + body for head in heads):
            h = bei.from_graph6(text)
            assert h == g and h.labels is None
            assert nx.utils.graphs_equal(nx.from_graph6_bytes(text.encode()), to_nx(g))


def test_graph6_rejects_malformed():
    cases = [
        ("", "empty graph6 string"),
        ("C~!", "invalid graph6 character '!'"),  # below the value range
        ("\u00e9", "invalid graph6 character '\u00e9'"),
        ("C", "graph6 body has 0 characters, expected 1 for n=4"),  # truncated body
        ("C~~", "graph6 body has 2 characters, expected 1 for n=4"),  # excess body
        ("~?", "truncated graph6 vertex count"),
        ("~~???", "truncated graph6 vertex count"),
        ("~??~", "graph6 body has 0 characters, expected 326 for n=63"),
        ("~~?????~", "graph6 body has 0 characters, expected 326 for n=63"),
        # K2 is 'A_' (0b10 padded); 'A' + chr(63+0b011111) sets padding bits
        ("A" + chr(63 + 0b011111), "nonzero padding bits in graph6 body"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError) as err:
            bei.from_graph6(text)
        assert str(err.value) == message


@pytest.mark.parametrize("n, header", [(30, "]"), (12345, "~B?x"), (460175067, "~~?ZZZZZ")])
def test_graph6_vertex_count_examples(n, header):
    # the examples of the graph6 format's own description, the last the
    # 8-character form; a header alone reads back to the same n, which its
    # body-length refusal names
    assert _g6_encode_n(n) == header
    chars = (n * (n - 1) // 2 + 5) // 6
    with pytest.raises(ValueError) as err:
        _graph6_checked(header)
    assert str(err.value) == f"graph6 body has 0 characters, expected {chars} for n={n}"


def test_edge_list_integer_mode():
    g = bei.parse_edge_list("0 1\n1 2\n\n# comment\n2 3  # trailing\n")
    assert g == bei.path_graph(4)
    assert g.labels is None
    assert bei.parse_edge_list(bei.format_edge_list(g)) == g


def test_edge_list_symbolic_mode():
    text = "u v\nv w\nw x\n"
    g = bei.parse_edge_list(text)
    assert g.n == 4 and g.m == 3
    assert g.labels == ("u", "v", "w", "x")
    assert bei.format_edge_list(g) == text


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        bei.parse_edge_list("a b c\n")
    with pytest.raises(ValueError):
        bei.parse_edge_list("a a\n")
    with pytest.raises(ValueError):
        bei.parse_edge_list("-1 0\n")


def test_edge_list_converts_each_integer_token_once(monkeypatch):
    calls = []

    def counting_int(tok):
        calls.append(tok)
        return int(tok)

    monkeypatch.setattr(bei.io, "int", counting_int, raising=False)
    assert bei.parse_edge_list("0 1\n1 2\n2 3\n") == bei.path_graph(4)
    assert calls == ["0", "1", "1", "2", "2", "3"]


def test_edge_list_with_any_name_token_is_symbolic():
    # one token that is not an integer makes every token a name, an
    # integer token too, however many digits it has
    g = bei.parse_edge_list("0 1\n1 a\n")
    assert g.labels == ("0", "1", "a") and g.m == 2
    long = "9" * 5000
    g = bei.parse_edge_list(f"a {long}\n")
    assert g.labels == ("a", long)
    with pytest.raises(ValueError, match="^edge list line 2: self-loop at '1'$"):
        bei.parse_edge_list("0 a\n1 1\n")


@pytest.mark.parametrize(
    "index, count",
    [
        ("9" * 20, "1" + "0" * 20),
        ("+" + "0" * 5000 + "9" * 39, "1" + "0" * 39),  # a count of 40 characters is shown whole
        ("9" * 40, "<int of 41 characters>"),
        ("9" * 4000, "<int of 4001 characters>"),
        ("9" * 5000, "<int of 5001 characters>"),
        ("1" + "0" * 4999, "<int of 5000 characters>"),
    ],
    ids=["20-digit", "zeros-then-39-digit", "40-digit", "4000-digit", "5000-digit", "5000-digit-power"],
)
def test_an_index_past_the_digits_of_sys_maxsize_is_refused_by_its_digits(index, count):
    # int() stops at 4300 digits, and the token would pass for a name
    with pytest.raises(ValueError) as err:
        bei.parse_edge_list(f"0 1\n{index} 0\n")
    assert str(err.value) == f"vertex count {count} is too large for a graph"


def test_an_index_is_read_by_its_significant_digits():
    assert bei.parse_edge_list("0 " + "0" * 5000 + "3\n") == bei.Graph(4, [(0, 3)])
    assert bei.parse_edge_list("-" + "0" * 5000 + " 1\n") == bei.path_graph(2)
    with pytest.raises(ValueError, match="^negative vertex index in edge list$"):
        bei.parse_edge_list("0 -" + "9" * 5000 + "\n")


def test_dot_export():
    g = bei.Graph(2, [(0, 1)], labels=["left", "right"])
    dot = bei.to_dot(g)
    assert 'label="left"' in dot and "0 -- 1;" in dot
    plain = bei.to_dot(bei.path_graph(2))
    assert "0;" in plain and "0 -- 1;" in plain
    # a quote or a backslash in a label is escaped inside its quoted string
    g = bei.Graph(3, [(0, 1), (1, 2)], labels=['a"b', "c\\", 'd\\"'])
    assert bei.to_dot(g).splitlines()[1:4] == [
        '  0 [label="a\\"b"];',
        '  1 [label="c\\\\"];',
        '  2 [label="d\\\\\\""];',
    ]


def test_named_graphs():
    assert bei.graph_from_name("K4") == bei.complete_graph(4)
    assert bei.graph_from_name("p3") == bei.path_graph(3)
    assert bei.graph_from_name("C5") == bei.cycle_graph(5)
    assert is_graph_name("K12") and not is_graph_name("Q3") and not is_graph_name("K")
    with pytest.raises(ValueError):
        bei.graph_from_name("Q3")
    with pytest.raises(ValueError):
        bei.graph_from_name("C2")


def test_a_graph_name_is_read_by_its_significant_digits():
    assert bei.graph_from_name("K" + "0" * 5000 + "3") == bei.complete_graph(3)
    for digits, shown in [("9" * 20, "9" * 20), ("1" * 5000, "<int of 5000 characters>")]:
        with pytest.raises(ValueError) as err:
            bei.graph_from_name("P" + digits, check_n=lambda n: pytest.fail("count read"))
        assert str(err.value) == f"vertex count {shown} is too large for a graph"


def test_a_graph_name_is_a_kpc_letter_then_decimal_digits():
    # the rule the library used to write as a regular expression
    name = re.compile(r"^([KPCkpc])(\d+)$")
    chars = ["K", "p", "C", "Q", "0", "7", "\u0663", "\u00b2", "\u2163", "\uff10", " ", "\n", "-", "+", "_"]
    for k in range(4):
        for token in map("".join, itertools.product(chars, repeat=k)):
            assert is_graph_name(token) == bool(name.match(token.strip())), repr(token)
    assert bei.graph_from_name(" k\u0663\n") == bei.complete_graph(3)


def test_graph_json_roundtrip():
    g = bei.Graph(3, [(0, 2)], labels=["a", "b", "c"])
    obj = graph_to_json(g)
    back = graph_from_json(obj)
    assert back == g and back.labels == g.labels


def test_read_json_reads_what_json_reads_and_shows_a_longer_integer_by_its_length():
    # int() reads at most sys.get_int_max_str_digits() digits, 4300 by default
    limit = sys.get_int_max_str_digits()
    for text in ["[0, -1, 2.5, true]", "9" * limit, "-" + "9" * limit, '{"n": 3}']:
        assert read_json(text) == json.loads(text)
    for digits in ["9" * (limit + 1), "-" + "9" * 5000]:
        with pytest.raises(ValueError) as info:
            read_json('{"n": ' + digits + "}")
        assert str(info.value) == f"JSON integer <int of {len(digits)} characters> has too many digits"


@pytest.mark.parametrize("key", ["edge", "lables", "base"])
def test_graph_json_refuses_an_unknown_field(key):
    obj = {"n": 2, "edges": [[0, 1]], key: [[0, 1]]}
    with pytest.raises(ValueError, match=f"JSON graph has an unknown field '{key}'"):
        graph_from_json(obj)


# each JSON record reader: its name in errors, a good record, a required key
# and a value of the wrong type for some key
READERS = {
    "graph": (graph_from_json, "JSON graph", {"n": 2, "edges": [[0, 1]], "labels": ["a", "b"]},
              "n", ("labels", [None, "a"])),
    "spec": (bei.corona_spec_from_json, "corona spec", {"base": "Bw", "L": [0], "pendant": "@"},
             "pendant", ("L", [0.5])),
    "record": (bei.BaseInvariants.from_json, "pendant record",
               {"h": 3, "dim": 4, "depth": 4, "reg": 2, "pd": 2, "is_complete": False},
               "reg", ("is_unmixed", "yes")),
}


@pytest.mark.parametrize("fault", ["not-an-object", "unknown-key", "missing-key", "wrong-type"])
@pytest.mark.parametrize("reader", READERS)
def test_every_json_reader_refuses_a_bad_record_by_name_and_key(reader, fault):
    read, what, good, required, (key, bad) = READERS[reader]
    read(good)
    obj, expected = {
        "not-an-object": ([good], f"{what} must be a JSON object, got list"),
        "unknown-key": ({**good, "colour": 1}, f"{what} has an unknown field 'colour'"),
        "missing-key": ({k: v for k, v in good.items() if k != required},
                        f"{what} has no field '{required}'"),
        "wrong-type": ({**good, key: bad}, f"{what} field '{key}' must be "),
    }[fault]
    with pytest.raises(ValueError) as exc:
        read(obj)
    assert str(exc.value).startswith(expected)


@pytest.mark.parametrize("reader", READERS)
def test_a_json_record_missing_any_keys_is_read_or_refused_with_a_value_error(reader):
    read, _, good, _, _ = READERS[reader]
    keys = list(good)
    for mask in range(1 << len(keys)):
        obj = {k: good[k] for i, k in enumerate(keys) if mask >> i & 1}
        try:
            read(obj)
        except ValueError:
            pass


def test_a_bad_value_is_shown_by_its_type_not_its_text():
    edges = [[i, i + 1] for i in range(100_000)]
    edges[-1] = [0, None]
    with pytest.raises(ValueError) as exc:
        graph_from_json({"n": 100_001, "edges": edges})
    assert str(exc.value) == (
        "JSON graph field 'edges' must be a list of [u, v] integer pairs, got list"
    )
    with pytest.raises(ValueError, match="'n' must be an integer, got dict$"):
        graph_from_json({"n": {"a": 1}})
    with pytest.raises(ValueError, match="'n' must be an integer, got null$"):
        graph_from_json({"n": None})
    with pytest.raises(ValueError, match="'n' must be an integer, got str$"):
        graph_from_json({"n": "x" * 1_000_000})

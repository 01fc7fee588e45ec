"""Shared fixtures: an independent brute-force cutset oracle and the checks
built on it, the worked unmixedness counterexample, and the small-graph
corpus."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

import bei
from bei import cutsets, members


# ---------------------------------------------------------------------------
# independent naive oracle (dict adjacency + BFS; no bitmask code shared with
# the library path it checks)


def _naive_adjacency(g: bei.Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _naive_count(adj: dict[int, set[int]], removed: set[int]) -> int:
    seen = set(removed)
    count = 0
    for s in adj:
        if s in seen:
            continue
        count += 1
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def naive_ncomp(g: bei.Graph, removed: set[int]) -> int:
    return _naive_count(_naive_adjacency(g), removed)


def naive_cutsets(g: bei.Graph) -> list[int]:
    """All cutsets by the definition, scanning every one of the 2^n subsets."""
    n = g.n
    adj = _naive_adjacency(g)
    comp = {}
    for bits in range(1 << n):
        comp[bits] = _naive_count(adj, {v for v in range(n) if bits >> v & 1})
    out = []
    for bits in range(1 << n):
        if bits == 0 or all(
            comp[bits & ~(1 << v)] < comp[bits] for v in range(n) if bits >> v & 1
        ):
            out.append(bits)
    return sorted(out)


def naive_is_unmixed(g: bei.Graph) -> bool:
    w0 = naive_ncomp(g, set())
    for bits in naive_cutsets(g):
        removed = {v for v in range(g.n) if bits >> v & 1}
        if naive_ncomp(g, removed) != len(removed) + w0:
            return False
    return True


def naive_is_accessible_system(g: bei.Graph) -> bool:
    family = set(naive_cutsets(g))
    for bits in family:
        if bits and not any(
            (bits & ~(1 << v)) in family for v in range(g.n) if bits >> v & 1
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# enumerator checks


def assert_matches_naive(g: bei.Graph) -> None:
    """The enumerator yields exactly the oracle's cutsets with their
    component counts, the empty set first and then in strictly ascending
    mask order (the order ``bei cutsets --out jsonl`` prints)."""
    got = list(bei.iter_cutsets(g))
    masks = [m for m, _ in got]
    assert masks[0] == 0
    assert all(a < b for a, b in zip(masks, masks[1:]))
    assert got == [(m, naive_ncomp(g, set(members(m)))) for m in naive_cutsets(g)]
    assert_early_stop_agrees(g)


def assert_early_stop_agrees(g: bei.Graph) -> None:
    """``unmixed_report`` is None exactly when the graph is not unmixed, and
    the full report otherwise."""
    full = bei.enumerate_cutsets(g)
    early = bei.unmixed_report(g)
    if full.is_unmixed:
        assert early == full
    else:
        assert early is None


def factors_pendants(g: bei.Graph) -> bool:
    """True when the enumerator splits ``g`` at cone pendants instead of
    searching it directly."""
    cand = g.full_mask & ~bei.simplicial_vertices(g)
    return cand.bit_count() > cutsets._DIRECT_SEARCH_MAX and bool(
        cutsets._cone_pendants(g.adj, cand)
    )


def assert_matches_direct_search(g: bei.Graph) -> None:
    """For graphs too large for the naive oracle: the enumerator yields what
    the direct search (no pendant factoring, itself checked against the
    naive oracle) yields, and every listed set is a cutset by the
    definition, with the oracle's component count."""
    got = list(bei.iter_cutsets(g))
    cand = g.full_mask & ~bei.simplicial_vertices(g)
    assert got == list(cutsets._search(g.adj, g.full_mask, cand, 0))
    adj = _naive_adjacency(g)
    for mask, w in got:
        removed = set(members(mask))
        assert w == _naive_count(adj, removed)
        assert all(_naive_count(adj, removed - {v}) < w for v in removed)
    assert_early_stop_agrees(g)


# ---------------------------------------------------------------------------
# the worked counterexample: a 4-cycle u,v,w,x with leaves at u and x is
# unmixed, a single edge is unmixed, but attaching edge copies at v and w
# breaks unmixedness (cutset {u,w} leaves 4 components, not 3)

SQUARE_LEAVES_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (3, 5)]
SQUARE_LEAVES_LABELS = ["u", "v", "w", "x", "pu", "px"]


@pytest.fixture
def square_leaves_base() -> bei.Graph:
    return bei.Graph(6, SQUARE_LEAVES_EDGES, labels=SQUARE_LEAVES_LABELS)


@pytest.fixture
def square_leaves_spec(square_leaves_base) -> bei.CoronaSpec:
    return bei.CoronaSpec(square_leaves_base, bei.vset([1, 2]), bei.complete_graph(2))


@pytest.fixture
def square_leaves_product(square_leaves_spec) -> bei.Graph:
    return bei.l_corona(square_leaves_spec)[0]


# ---------------------------------------------------------------------------
# corpus helpers


@lru_cache(maxsize=None)
def connected_atlas(max_n: int) -> tuple[bei.Graph, ...]:
    """All connected graphs on 1..max_n vertices (max_n <= 7), one per
    isomorphism class."""
    import networkx as nx

    assert max_n <= 7
    out = []
    for nxg in nx.graph_atlas_g():
        n = nxg.number_of_nodes()
        if n == 0 or n > max_n or not nx.is_connected(nxg):
            continue
        out.append(bei.Graph(n, list(nxg.edges())))
    return tuple(out)


def to_nx(g: bei.Graph):
    """The same graph as a networkx graph, for ``networkx.is_isomorphic``."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def random_connected_graph(rng: random.Random, n: int) -> bei.Graph:
    """Random spanning tree plus a random sprinkling of extra edges."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.append((i, j))
    return bei.Graph(n, sorted(set(edges)))

"""Shared fixtures: an independent brute-force cutset oracle and the checks
built on it, the paper's structure of corona cutsets, the worked
unmixedness counterexample, and the small-graph corpus."""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

import pytest

import bei
from bei import cutsets, is_cutset, iter_members, members


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


def _ncomp(g: bei.Graph, removed: int) -> int:
    """``naive_ncomp`` of a vertex mask."""
    return naive_ncomp(g, set(members(removed)))


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
    adj = _naive_adjacency(g)
    # the search leaves the empty set, its root, to the caller
    direct = list(cutsets._search(g.adj, g.full_mask, cand, 0))
    assert got == [(0, _naive_count(adj, set()))] + direct
    for mask, w in got:
        removed = set(members(mask))
        assert w == _naive_count(adj, removed)
        assert all(_naive_count(adj, removed - {v}) < w for v in removed)
    assert_early_stop_agrees(g)


# ---------------------------------------------------------------------------
# the structure of corona cutsets: a test oracle for the enumerator on corona
# products, written from the paper's seven facts rather than from the search


class CoronaDecomposition(NamedTuple):
    """Split of a product vertex subset along the corona layout.

    ``tv`` lists ``(attach vertex, subset of pendant indices)`` for every
    attach vertex; ``nonempty_set`` masks the attach vertices whose part is
    nonempty.  ``predicted_components`` is the component count of the
    product minus the subset, computed from base and pendant counts alone:
    components of base minus t0, plus the pendant components stranded under
    each removed attach vertex.  On cutsets this agrees with the identity

        w(base - t0) + sum over nonempty parts of w(copy - part)
            + |t0 & L| - |nonempty|

    which check_cutset_structure evaluates verbatim as assertion (5).
    """

    t0: int
    tv: tuple[tuple[int, int], ...]
    nonempty_set: int
    predicted_components: int

    def tv_map(self) -> dict[int, int]:
        return dict(self.tv)

    def reassemble(self, spec: bei.CoronaSpec) -> int:
        t = self.t0
        for v, part in self.tv:
            t |= part << spec.copy_start(v)
        return t


def decompose_cutset(spec: bei.CoronaSpec, t: int) -> CoronaDecomposition:
    """Split any product vertex subset (cutset or not) along the layout and
    predict the component count of the product minus ``t``."""
    total_mask = (1 << spec.product_vertices) - 1
    if t & ~total_mask:
        raise ValueError("subset out of range for the product")
    base = spec.base
    h_mask = spec.pendant.full_mask
    t0 = t & base.full_mask
    tv: list[tuple[int, int]] = []
    nonempty = 0
    predicted = _ncomp(base, t0)
    for v in spec.attach_vertices():
        part = (t >> spec.copy_start(v)) & h_mask
        tv.append((v, part))
        if part:
            nonempty |= 1 << v
        if (t0 >> v) & 1:
            # the copy is stranded: its own surviving components all count
            predicted += _ncomp(spec.pendant, part)
    return CoronaDecomposition(t0, tuple(tv), nonempty, predicted)


def check_cutset_structure(
    spec: bei.CoronaSpec, t: int, product: bei.Graph | None = None
) -> list[bool]:
    """Evaluate the seven structural facts holding for every nonempty cutset
    of a corona product; returns one verdict per assertion.

    (1) the base part is nonempty (and proper, when the attach set is a
        proper subset of the base);
    (2) attach vertices outside the base part carry empty pendant parts;
    (3) nonempty pendant parts under removed attach vertices are cutsets of
        the pendant graph;
    (4) a removed attach vertex whose base neighbourhood is fully removed
        must have a nonempty pendant part;
    (5) the displayed component-count identity;
    (6) simplicial base vertices in the base part lie in the attach set;
    (7) if the base part avoids the attach set, the whole cutset equals the
        base part, it is a cutset of the base graph, and it contains no
        simplicial base vertex.

    Raises ValueError when ``t`` is not a nonempty cutset of the product.
    """
    if product is None:
        product = bei.l_corona(spec)
    if t == 0 or not is_cutset(product, t):
        raise ValueError("t must be a nonempty cutset of the product")
    base, pend, attach = spec.base, spec.pendant, spec.attach_set
    dec = decompose_cutset(spec, t)
    t0 = dec.t0
    tvm = dec.tv_map()
    proper = attach != base.full_mask

    a1 = t0 != 0 and (not proper or t0 != base.full_mask)
    a2 = all(tvm[v] == 0 for v in iter_members(attach & ~t0))
    a3 = all(
        tvm[v] == 0 or is_cutset(pend, tvm[v]) for v in iter_members(attach & t0)
    )
    a4 = all(
        tvm[v] != 0
        for v in iter_members(attach & t0)
        if base.adj[v] & ~t0 == 0
    )
    stated = (
        _ncomp(base, t0)
        + sum(_ncomp(pend, tvm[v]) for v in iter_members(dec.nonempty_set))
        + (t0 & attach).bit_count()
        - dec.nonempty_set.bit_count()
    )
    a5 = stated == _ncomp(product, t)
    sim = bei.simplicial_vertices(base)
    a6 = t0 & sim & ~attach == 0
    if t0 & attach == 0:
        a7 = t == t0 and is_cutset(base, t0) and t0 & sim == 0
    else:
        a7 = True
    return [a1, a2, a3, a4, a5, a6, a7]


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
    return bei.l_corona(square_leaves_spec)


# ---------------------------------------------------------------------------
# corpus helpers


@lru_cache(maxsize=None)
def atlas() -> tuple[bei.Graph, ...]:
    """Every graph on 0..7 vertices, one per isomorphism class, in the order
    of the networkx atlas (by vertex count first); loaded once per session."""
    import networkx as nx

    return tuple(
        bei.Graph(nxg.number_of_nodes(), list(nxg.edges())) for nxg in nx.graph_atlas_g()
    )


@lru_cache(maxsize=None)
def connected_atlas(max_n: int) -> tuple[bei.Graph, ...]:
    """All connected graphs on 1..max_n vertices (max_n <= 7), one per
    isomorphism class."""
    assert max_n <= 7
    return tuple(g for g in atlas() if 0 < g.n <= max_n and naive_ncomp(g, set()) == 1)


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


def mixed_graphs() -> list[bei.Graph]:
    """Connected atlas graphs on at most 7 vertices, seeded random graphs on
    12-16 vertices (connected ones, and sparse ones that mostly are not),
    disjoint unions, and n = 0, 1 and 2."""
    rng = random.Random(8)
    sparse = [
        bei.Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.12])
        for n in range(12, 17)
        for _ in range(6)
    ]
    return [
        *connected_atlas(7),
        *(random_connected_graph(rng, n) for n in range(12, 17) for _ in range(6)),
        *sparse,
        bei.Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)]),
        bei.Graph(4, [(1, 2), (2, 3)]),
        bei.Graph(0),
        bei.Graph(1),
        bei.Graph(2),
        bei.complete_graph(2),
    ]

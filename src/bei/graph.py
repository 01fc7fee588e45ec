"""Bitset-backed simple graphs and the primitive operations on them.

Vertices are the integers ``0..n-1``.  A set of vertices is a plain Python
int used as a bitmask (bit ``i`` set <=> vertex ``i`` in the set); the alias
``VertexSet`` marks that convention in signatures.  Arbitrary-precision ints
make union, difference and cardinality one machine operation per word, which
is what keeps exhaustive subset enumeration tolerable in pure Python.

Graphs are immutable: every constructor returns a new value, so graphs may
be shared freely across threads.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator

VertexSet = int


def vset(vertices: Iterable[int]) -> VertexSet:
    """Pack vertex indices into a bitmask."""
    s = 0
    for v in vertices:
        s |= 1 << v
    return s


# the longest text of a value read from input that a refusal repeats whole
_BRIEF_MAX = 40


def _brief(text: str, kind: str = "int") -> str:
    """``text``, a value of type ``kind`` read from input, as a refusal
    shows it: whole (a str quoted as ``repr`` quotes it) up to
    ``_BRIEF_MAX`` characters, else by its kind and length alone, so that
    no message repeats a long input."""
    if len(text) > _BRIEF_MAX:
        return f"<{kind} of {len(text)} characters>"
    return repr(text) if kind == "str" else text


def checked_vset(vertices: list[int], field: str, n: int) -> VertexSet:
    """``vset`` of a list given on input for a graph on ``n`` vertices; its
    first negative, out-of-range or repeated vertex is a ValueError that
    names ``field`` and that vertex alone, raised before its bit is set."""
    s = 0
    for v in vertices:
        if v < 0:
            raise ValueError(f"{field} holds a negative vertex: {_brief(str(v))}")
        if v >= n:
            raise ValueError(f"{field} holds a vertex out of range for {n} vertices: {_brief(str(v))}")
        bit = 1 << v
        if s & bit:
            raise ValueError(f"{field} repeats a vertex: {v}")
        s |= bit
    return s


def _too_large(count: str) -> ValueError:
    """The refusal of a vertex count, written ``count``, above
    ``sys.maxsize``: too large to index a list by."""
    return ValueError(f"vertex count {_brief(count)} is too large for a graph")


def _check_vertex_count(n: int) -> None:
    """Refuse a vertex count that no graph can have: a negative one, or one
    too large to index a list by, which the message names."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > sys.maxsize:
        raise _too_large(str(n))


def members(s: VertexSet) -> list[int]:
    """Vertex indices of ``s``, ascending."""
    out = []
    while s:
        b = s & -s
        out.append(b.bit_length() - 1)
        s ^= b
    return out


def iter_members(s: VertexSet) -> Iterator[int]:
    """Iterate the vertex indices of ``s`` in ascending order."""
    while s:
        b = s & -s
        yield b.bit_length() - 1
        s ^= b


class Graph:
    """Immutable simple graph with one adjacency bitmask per vertex."""

    __slots__ = ("n", "adj", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Iterable[str] | None = None,
    ):
        _check_vertex_count(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {_brief(str(u))}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({_brief(str(u))},{_brief(str(v))}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        lab = None if labels is None else tuple(str(x) for x in labels)
        if lab is not None and len(lab) != n:
            raise ValueError("labels length must equal vertex count")
        if lab is not None and len(set(lab)) < n:
            last = {x: v for v, x in enumerate(lab)}
            repeated = next(x for v, x in enumerate(lab) if last[x] != v)
            raise ValueError(f"vertex label {_brief(repeated, 'str')} is repeated")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "labels", lab)

    @classmethod
    def _from_adj(
        cls, adj: tuple[VertexSet, ...], labels: tuple[str, ...] | None = None
    ) -> "Graph":
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", tuple(adj))
        object.__setattr__(g, "labels", labels if labels is None else tuple(labels))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph._from_adj, (self.adj, self.labels))

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            for v in iter_members(self.adj[u]):
                if v > u:
                    out.append((u, v))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other) -> bool:
        # structural identity on the same indexing; labels are cosmetic
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# named constructors


def complete_graph(n: int) -> Graph:
    _check_vertex_count(n)
    full = (1 << n) - 1
    return Graph._from_adj(tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    _check_vertex_count(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    _check_vertex_count(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# connectivity


def _components(adj: tuple[VertexSet, ...], alive: VertexSet) -> list[VertexSet]:
    """Connected components of the induced subgraph on ``alive``, as masks,
    ordered by ascending minimum vertex."""
    comps = []
    rem = alive
    while rem:
        seed = rem & -rem
        comp = seed
        frontier = seed
        while frontier:
            acc = 0
            t = frontier
            while t:
                b = t & -t
                t ^= b
                acc |= adj[b.bit_length() - 1]
            frontier = acc & alive & ~comp
            comp |= frontier
        comps.append(comp)
        rem ^= comp
    return comps


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(_components(g.adj, g.full_mask)) == 1


def distances_from(g: Graph, source: int) -> list[int | float]:
    """BFS distances from ``source``; unreachable vertices get ``math.inf``."""
    if not 0 <= source < g.n:
        raise ValueError(f"vertex {source} out of range")
    dist: list[int | float] = [math.inf] * g.n
    dist[source] = 0
    seen = 1 << source
    frontier = seen
    d = 0
    adj = g.adj
    while frontier:
        acc = 0
        t = frontier
        while t:
            b = t & -t
            t ^= b
            acc |= adj[b.bit_length() - 1]
        frontier = acc & ~seen
        d += 1
        for v in iter_members(frontier):
            dist[v] = d
        seen |= frontier
    return dist


def diameter(g: Graph) -> int | float:
    """Largest eccentricity over all vertices; ``math.inf`` if disconnected.
    Each source's bitset BFS counts levels until every vertex is reached; a
    level that adds no vertex before that means ``g`` is disconnected."""
    adj, full, best = g.adj, g.full_mask, 0
    for v in range(g.n):
        seen = frontier = 1 << v
        d = 0
        while seen != full:
            acc = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                acc |= adj[b.bit_length() - 1]
            frontier = acc & ~seen
            if not frontier:
                return math.inf
            seen |= frontier
            d += 1
        if d > best:
            best = d
    return best


# ---------------------------------------------------------------------------
# simplicial structure


def _is_clique(adj: tuple[VertexSet, ...], mask: VertexSet) -> bool:
    """True when ``mask`` induces a complete subgraph (so also when it has
    at most one member)."""
    rest = mask
    while rest:
        b = rest & -rest
        rest ^= b
        if mask & ~adj[b.bit_length() - 1] != b:
            return False
    return True


def simplicial_vertices(g: Graph) -> VertexSet:
    """The vertices whose neighbourhood induces a clique."""
    s = 0
    for v in range(g.n):
        if _is_clique(g.adj, g.adj[v]):
            s |= 1 << v
    return s


def internal_vertex_count(g: Graph) -> int:
    """Number of non-simplicial vertices."""
    return g.n - simplicial_vertices(g).bit_count()


def independence_number(g: Graph) -> int:
    """The most pairwise non-adjacent vertices of a chordal graph (a clique
    path among them).  A simplicial vertex lies in some largest independent
    set, so take one and drop its closed neighbourhood until no vertex is
    left (Gavril 1972).  A vertex that is not simplicial among those left
    can only turn simplicial when a neighbour is dropped, so it is tested
    again only then: every vertex once, and once more per edge at the first
    drop of an end, at most n + m tests whatever the labelling.  Vertices
    left with none to test form an induced part with no simplicial vertex,
    which no chordal graph has: ValueError."""
    alive, alpha = g.full_mask, 0
    todo = list(range(g.n))
    while todo:
        v = todo.pop()
        if alive >> v & 1 and _is_clique(g.adj, g.adj[v] & alive):
            dropped = g.adj[v] & alive | 1 << v
            alive &= ~dropped
            alpha += 1
            for u in iter_members(dropped):
                todo.extend(iter_members(g.adj[u] & alive))
    if alive:
        raise ValueError("not a chordal graph: some induced part has no simplicial vertex")
    return alpha


# ---------------------------------------------------------------------------
# block structure
#
# A block graph is a connected graph whose blocks (maximal 2-connected
# subgraphs, and bridges) are all cliques, and a clique path is one whose
# blocks line up.  Both are recognised from the common closed neighbourhoods
# of edges, without a depth-first search (``_blocks``).


def _blocks(g: Graph) -> list[VertexSet] | None:
    """The blocks of ``g`` when it is a block graph, else None; an empty or
    disconnected graph is a ValueError.

    Each edge uv not inside a block found so far gets the candidate
    N[u] & N[v].  In a block graph that is the block of uv: a common
    neighbour outside it would close a triangle through u and v, and a
    triangle lies in one block.  So every candidate must be a clique.  The
    cliques found cover every edge, so their vertex-clique incidence graph
    is connected, with n + k nodes and sum(|B|) edges for k cliques: it is a
    tree exactly when sum(|B| - 1) = n - 1, and a tree of cliques is a block
    graph with those cliques as its blocks.  Connectivity keeps the sum at
    n - 1 or above, so the search stops once the sum passes n - 1."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("block decomposition needs a connected graph")
    adj = g.adj
    closed = [row | 1 << v for v, row in enumerate(adj)]
    covered = [0] * g.n  # union of the found blocks through each vertex
    blocks: list[VertexSet] = []
    budget = g.n - 1
    for u in range(g.n):
        rest = adj[u] & ~covered[u]
        while rest:
            v = (rest & -rest).bit_length() - 1
            blk = closed[u] & closed[v]
            budget -= blk.bit_count() - 1
            if budget < 0 or not _is_clique(adj, blk):
                return None
            blocks.append(blk)
            for w in iter_members(blk):
                covered[w] |= blk
            rest &= ~blk
    return blocks


def is_block_graph(g: Graph) -> bool:
    """Connected graph whose blocks are all cliques: every edge's common
    closed neighbourhood is a clique, and these cliques meet in a tree
    (``_blocks``).  An empty or disconnected graph is a ValueError."""
    return _blocks(g) is not None


def is_cm_closed(g: Graph) -> bool:
    """True when ``g`` is a clique path: a block graph whose blocks line up,
    consecutive ones sharing exactly one vertex.  That is, no vertex lies in
    three blocks and no block holds three vertices that each lie in two
    blocks.  An empty or disconnected graph is a ValueError."""
    blocks = _blocks(g)
    if blocks is None:
        return False
    seen = shared = 0
    for blk in blocks:
        if blk & shared:  # a vertex already in two blocks is in a third
            return False
        shared |= blk & seen
        seen |= blk
    return all((blk & shared).bit_count() <= 2 for blk in blocks)

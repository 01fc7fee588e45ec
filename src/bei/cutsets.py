"""Exhaustive cutset enumeration and the combinatorial verdicts built on it.

A subset T of vertices is a cutset when it is empty, or when removing any
single vertex of T strictly lowers the number of components of G minus T.
Equivalently, every vertex of T must touch at least two distinct components
of G minus T, so its outside neighbourhood N(v) minus T holds two
non-adjacent vertices.  A simplicial vertex's neighbourhood is a clique, so
simplicial vertices never occur in any cutset.

The enumerator is a depth-first set-extension search over the
non-simplicial vertices: each set grows by one candidate below its lowest
member, children in ascending order, so the sets come out in ascending mask
order.  A set is pruned with its whole subtree as soon as some member's
outside neighbourhood is a clique.  That prune is exact: a subset of a
clique is a clique, so no superset of a pruned set is a cutset, and the
surviving sets are closed under taking subsets, so every cutset is reached
through surviving prefixes.  Each surviving set gets a bitmask flood fill
and the two-component test.

Cone pendants are factored out of that search.  A cone pendant of a vertex
v (its apex) is a component C of G - v with C inside N(v); only a
non-complete one matters, since the vertices of a complete one are
simplicial.  The only neighbour C has outside itself is v, which touches
every vertex of C, so for every cutset T, with T_C the part of T in C and
T0 the part outside every pendant:

- if v is not in T, T_C is empty: a vertex of T_C would reach only the one
  component holding v and the rest of C;
- if v is in T, C is cut off, its components in G - T are those of
  G[C] - T_C, and a vertex of T_C touches only those, so T_C is a cutset
  of G[C];
- a member of T0 other than an apex touches the same components in G - T
  as in G - T0 (pendants left in), so it passes the usual test there;
- an apex touches each of its pendants in G - T0, and a pendant with a
  nonempty part splits into at least two components in G - T; so an apex
  whose only component in G - T0 is its one pendant needs T_C nonempty,
  and any other apex passes;
- c(G - T) = c(G - T0) + sum over the pendants of (c(G[C] - T_C) - 1).

These are exact conditions in both directions, so the family is the core
search's sets T0 (apexes exempt from the test) times each apex's pendant
families.  In a corona G o H with H not complete, each copy of H is a
pendant under its base vertex, so the search runs over the base alone, and
each copy's family is listed once.  The clique prune stays exact on the core, since a non-apex
member's outside neighbourhood does not change when pendant parts are
added.  Graphs with at most ``_DIRECT_SEARCH_MAX`` non-simplicial vertices
skip the detection and are searched directly.

Quotient-ring facts read off the cutset family: the Krull dimension of the
quotient by the binomial edge ideal is ``n + max(components - |T|)`` over
cutsets, and (for connected graphs) unmixedness says every cutset satisfies
``components == |T| + 1``.  A ``CutsetReport`` carries the first
unmixedness violation and the first stuck cutset, and the unmixed and
accessible verdicts are read off them.  Two entry points build it:

- ``enumerate_cutsets`` lists the whole family.  Callers that print the
  family, a witness in report order or the dimension use it: ``bei
  cutsets``, ``check --unmixed`` and ``--accessible-system``, ``export
  --oracle-expected`` and the block-graph pendant invariants.
- ``unmixed_report`` returns the same report for an unmixed graph and None
  at the first violation, since an accessible graph must be unmixed and one
  bad cutset settles both verdicts as false.  Callers that need only the
  verdicts use it: the scan worker, ``is_accessible`` (and through it
  ``gadget --verify``) and ``check --accessible``.  Before searching past
  the empty set it tries each vertex's open neighbourhood N(x) as a
  cutset.  G - N(x) keeps x as a component of its own, so a member of N(x)
  touches two components exactly when it has a neighbour outside N[x], and
  one flood fill gives the component count.  The rule is exact: a
  neighbourhood that passes is a cutset by the definition above, and one
  whose count breaks ``components == |T| + components(G)`` is a genuine
  violation, so the graph is not unmixed; when no neighbourhood breaks it,
  the search runs as before and decides.  Most graphs that are not unmixed
  are settled this way (all 200 of a seeded corpus on 12-16 vertices, 875
  of the 898 connected atlas graphs on at most 7 vertices that are not),
  and ``iter_cutsets`` yields the empty set from one flood fill before it
  finds the simplicial vertices or pendants, so those graphs pay for neither.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Iterator, NamedTuple

from .graph import (
    Graph,
    VertexSet,
    _components,
    _is_clique,
    iter_members,
    members,
    simplicial_vertices,
)

DEFAULT_BOUND = 24
# graphs with at most this many non-simplicial vertices are searched
# directly: at most 2^7 sets, about what pendant detection and expansion cost
_DIRECT_SEARCH_MAX = 7


class EnumerationBoundError(ValueError):
    """Raised when a graph exceeds the configured enumeration bound."""


def enumeration_bound(bound: int | None = None) -> int:
    """Effective vertex-count cap: explicit argument, else the BEI_BOUND
    environment variable, else 24."""
    if bound is not None:
        return bound
    env = os.environ.get("BEI_BOUND")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"BEI_BOUND must be an integer, got {env!r}") from None
    return DEFAULT_BOUND


def is_cutset(g: Graph, t: VertexSet) -> bool:
    """Definitional check: empty, or every single removal strictly lowers
    the component count of G minus t."""
    if t & ~g.full_mask:
        raise ValueError("subset out of range")
    if t == 0:
        return True
    adj = g.adj
    alive = g.full_mask & ~t
    w = len(_components(adj, alive))
    for v in iter_members(t):
        if len(_components(adj, alive | (1 << v))) >= w:
            return False
    return True


def check_bound(n: int, bound: int | None = None) -> None:
    """Raise ``EnumerationBoundError`` when ``n`` vertices exceed the
    enumeration bound (see ``enumeration_bound``)."""
    limit = enumeration_bound(bound)
    if n > limit:
        raise EnumerationBoundError(
            f"{n} vertices exceeds the enumeration bound {limit}"
        )


def check_size_cap(size_cap: int | None) -> None:
    """Raise ``ValueError`` for a size cap below 0; None means no cap."""
    if size_cap is not None and size_cap < 0:
        raise ValueError(f"size cap must be at least 0, got {size_cap}")


def iter_cutsets(g: Graph, bound: int | None = None) -> Iterator[tuple[VertexSet, int]]:
    """Yield ``(cutset, component_count)`` pairs, the empty set first (from
    one flood fill, before any search set-up), the rest in ascending mask
    order.

    A graph without a non-complete cone pendant is searched directly.
    Otherwise the search runs over the core (the vertices outside the
    chosen pendants) with every apex exempt from the two-component test,
    each pendant's family is enumerated once, recursively, and every
    surviving core set T0 is expanded into its cutsets by the module's
    pendant rule:

    - a pendant under an apex outside T0 stays whole;
    - a pendant under an apex in T0 contributes any cutset of itself;
    - an apex whose only neighbours outside T0 lie in its one pendant
      touches a single component of G - T0, so it needs a nonempty
      pendant part;
    - c(G - T) = c(G - T0) + sum of (c(G[C] - T_C) - 1) over the pendants.

    The module docstring gives why these conditions are exact.  The
    expanded family is put in ascending order before it is yielded.
    """
    check_bound(g.n, bound)
    adj, full = g.adj, g.full_mask
    yield 0, len(_components(adj, full))
    yield from _nonempty_cutsets(adj, full, full & ~simplicial_vertices(g))


def _nonempty_cutsets(
    adj: tuple[VertexSet, ...], full: VertexSet, cand: VertexSet
) -> Iterator[tuple[VertexSet, int]]:
    """Nonempty cutsets of the graph induced on ``full``, whose adjacency
    rows ``adj`` reach no vertex outside ``full``, with non-simplicial
    vertices ``cand``; masks keep their indices."""
    if cand.bit_count() > _DIRECT_SEARCH_MAX:
        pendants = _cone_pendants(adj, cand)
        if pendants:
            return _expand(adj, full, cand, pendants)
    return _search(adj, full, cand, 0)


def _expand(
    adj: tuple[VertexSet, ...],
    full: VertexSet,
    cand: VertexSet,
    pendants: list[tuple[int, VertexSet]],
) -> Iterator[tuple[VertexSet, int]]:
    """Nonempty cutsets of a graph with cone pendants: the core search, each
    set expanded by its apexes' pendant cutsets.  A cutset's mask is at least
    its core part's, and core parts come out ascending, so a heap releases
    the cutsets in ascending order as soon as the search has passed them."""
    apexes = inside = 0
    # apex -> its pendants, each with its own family as (mask, components - 1)
    parts: dict[int, list[tuple[VertexSet, list[tuple[VertexSet, int]]]]] = {}
    for v, c in pendants:
        apexes |= 1 << v
        inside |= c
        sub = tuple(row & c for row in adj)
        # a vertex of c has v and its neighbours in c as neighbours, and v
        # is adjacent to all of c: it is simplicial in G[c] iff in G.  c is
        # a component of G - v, so its empty part leaves one component
        family = [(0, 0)]
        family += [(m, w - 1) for m, w in _nonempty_cutsets(sub, c, cand & c)]
        parts.setdefault(v, []).append((c, family))
    heap: list[tuple[VertexSet, int]] = []
    for s, w in _search(adj, full, cand & ~inside, apexes):
        while heap and heap[0][0] < s:
            yield heappop(heap)
        combos = [(s, w)]
        t = s & apexes
        while t:
            b = t & -t
            t ^= b
            v = b.bit_length() - 1
            pieces = parts[v]
            for c, family in pieces:
                if len(pieces) == 1 and adj[v] & ~s & ~c == 0:
                    # v touches only this pendant: the empty part (listed
                    # first) would leave v inside one component
                    family = family[1:]
                combos = [(m | pm, x + pw) for m, x in combos for pm, pw in family]
        for item in combos:
            heappush(heap, item)
    while heap:
        yield heappop(heap)


def _cone_pendants(
    adj: tuple[VertexSet, ...], cand: VertexSet
) -> list[tuple[int, VertexSet]]:
    """Disjoint non-complete cone pendants as ``(apex, pendant)`` pairs.

    A cone pendant of v is a component C of G - v with C inside N(v).  Its
    members' neighbourhoods stay inside N[v], so C is a component of the
    graph induced on those neighbours that reaches no other neighbour of v.
    Only a non-simplicial vertex can be the apex of a non-complete one.
    Two cone pendants are disjoint, nested, or each holds the other's apex;
    larger pendants are taken first, and a pendant that meets a taken
    pendant or apex, or whose apex lies in a taken pendant, is left to the
    search (a nested one is factored again inside its host).
    """
    found = []
    for v in iter_members(cand):
        row = adj[v]
        outside = ~(row | (1 << v))
        inner = 0
        t = row
        while t:
            b = t & -t
            t ^= b
            if adj[b.bit_length() - 1] & outside == 0:
                inner |= b
        if _is_clique(adj, inner):
            continue
        for c in _components(adj, inner):
            reach = 0
            t = c
            while t:
                b = t & -t
                t ^= b
                reach |= adj[b.bit_length() - 1]
            if reach & row & ~c == 0 and not _is_clique(adj, c):
                found.append((v, c))
    found.sort(key=lambda vc: (-vc[1].bit_count(), vc[0]))
    chosen = []
    apexes = inside = 0
    for v, c in found:
        if c & (apexes | inside) or inside >> v & 1:
            continue
        chosen.append((v, c))
        apexes |= 1 << v
        inside |= c
    return chosen


def _search(
    adj: tuple[VertexSet, ...], full: VertexSet, cand: VertexSet, exempt: VertexSet
) -> Iterator[tuple[VertexSet, int]]:
    """Clique-pruned depth-first search over subsets of ``cand``: yield
    ``(s, components of full - s)`` for each nonempty set whose members
    outside ``exempt`` each touch two components, in ascending mask order.

    A set's children add one candidate below its lowest member.  A child is
    dropped, with every superset below it, when a member's neighbourhood
    outside the child is a clique; adding ``u`` changes only the outside
    neighbourhoods of ``u`` and of the members adjacent to ``u``, so only
    those are checked.
    """
    tested = ~exempt
    # sets that passed the prune, popped lowest first; the empty set, which
    # the caller yields, is only expanded
    stack = [0]
    while stack:
        s = stack.pop()
        if s:
            comps = _components(adj, full & ~s)
            t = s & tested
            while t:
                b = t & -t
                t ^= b
                row = adj[b.bit_length() - 1]
                hits = 0
                for c in comps:
                    if row & c:
                        hits += 1
                        if hits == 2:
                            break
                if hits < 2:
                    break
            else:
                yield s, len(comps)
        # children take a candidate below s's lowest member (any candidate
        # when s is empty); push the passing ones highest first, so the
        # lowest pops next
        rest = cand & ((s & -s) - 1)
        while rest:
            b = 1 << (rest.bit_length() - 1)
            rest ^= b
            child = s | b
            row = adj[b.bit_length() - 1]
            if _is_clique(adj, row & ~child):
                continue
            t = s & row
            while t:
                c = t & -t
                t ^= c
                if _is_clique(adj, adj[c.bit_length() - 1] & ~child):
                    break
            else:
                stack.append(child)


class CutsetReport(NamedTuple):
    """Full cutset family of one graph plus the verdicts derived from it.

    ``unmixed_violation`` is the first cutset, in report order, whose
    component count breaks unmixedness, as ``(mask, components)``;
    ``stuck_cutset`` is the first nonempty cutset from which no single
    removal leaves a cutset.  The verdicts are read off these two witnesses.
    With a ``size_cap`` everything is computed over the listed cutsets only.
    For disconnected graphs unmixedness uses the extension
    ``components == |T| + components(G)``.
    """

    n: int
    connected: bool
    base_components: int
    cutsets: tuple[VertexSet, ...]
    per_cutset_components: tuple[int, ...]
    unmixed_violation: tuple[VertexSet, int] | None
    stuck_cutset: VertexSet | None
    oracle_dimension: int
    size_cap: int | None = None

    @property
    def is_unmixed(self) -> bool:
        return self.unmixed_violation is None

    @property
    def is_accessible_system(self) -> bool:
        return self.stuck_cutset is None

    @property
    def is_accessible(self) -> bool:
        return self.is_unmixed and self.is_accessible_system

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "connected": self.connected,
            "cutsets": [members(m) for m in self.cutsets],
            "per_cutset_components": list(self.per_cutset_components),
            "is_unmixed": self.is_unmixed,
            "is_accessible_system": self.is_accessible_system,
            "oracle_dimension": self.oracle_dimension,
            "size_cap": self.size_cap,
            "unmixedness_definition": (
                "standard" if self.connected else "disconnected-extension"
            ),
        }


def enumerate_cutsets(
    g: Graph, size_cap: int | None = None, bound: int | None = None
) -> CutsetReport:
    """All cutsets (optionally capped by size), sorted by size then by
    ascending member lists, with the derived witnesses and verdicts.  A
    ``size_cap`` below 0 is a ``ValueError``."""
    check_size_cap(size_cap)
    found = []
    for mask, w in iter_cutsets(g, bound):
        if size_cap is None or mask.bit_count() <= size_cap:
            found.append((mask, w))
    return _report(g, found, size_cap)


def _report(
    g: Graph, found: list[tuple[VertexSet, int]], size_cap: int | None
) -> CutsetReport:
    """Sort ``(mask, components)`` pairs by size, then by ascending member
    lists, and read the witnesses and the dimension off them."""
    found.sort(key=lambda mw: (mw[0].bit_count(), members(mw[0])))
    masks = tuple(m for m, _ in found)
    w0 = found[0][1]  # empty cutset sorts first
    mask_set = set(masks)
    violations = ((m, w) for m, w in found if w != m.bit_count() + w0)
    stuck = (
        m
        for m in masks
        if m and not any((m ^ (1 << v)) in mask_set for v in iter_members(m))
    )
    return CutsetReport(
        n=g.n,
        connected=w0 <= 1,
        base_components=w0,
        cutsets=masks,
        per_cutset_components=tuple(w for _, w in found),
        unmixed_violation=next(violations, None),
        stuck_cutset=next(stuck, None),
        oracle_dimension=g.n + max(w - m.bit_count() for m, w in found),
        size_cap=size_cap,
    )


def _neighbourhood_violation(
    adj: tuple[VertexSet, ...], full: VertexSet, w0: int
) -> tuple[VertexSet, int] | None:
    """The first open neighbourhood N(x), by ascending x, that is a cutset
    breaking ``components == |T| + w0``, as ``(mask, components)``; None
    when there is none.

    x is a component of G - N(x) on its own, so a member of N(x) touches two
    components exactly when it has a neighbour outside N[x]: one test per
    member, and one flood fill per neighbourhood that passes them all.
    """
    for x, t in enumerate(adj):
        if not t:
            continue  # N(x) is the empty set, which never breaks the rule
        outside = ~(t | (1 << x))
        r = t
        while r:
            b = r & -r
            r ^= b
            if adj[b.bit_length() - 1] & outside == 0:
                break
        else:
            w = len(_components(adj, full & ~t))
            if w != t.bit_count() + w0:
                return t, w
    return None


def unmixed_report(g: Graph, bound: int | None = None) -> CutsetReport | None:
    """``enumerate_cutsets(g)`` when the graph is unmixed, else None.

    After the empty set (which checks the bound and gives components(G),
    before any search set-up), each vertex's open neighbourhood is tried as
    a cutset; one that breaks ``components == |T| + components(G)`` settles
    the graph as not unmixed.  Otherwise the enumeration stops at the first
    cutset that breaks it, so a graph that is not unmixed costs only the
    cutsets up to that one.
    """
    cutsets = iter_cutsets(g, bound)
    found = [next(cutsets)]  # the empty set, with the component count of G
    w0 = found[0][1]
    if _neighbourhood_violation(g.adj, g.full_mask, w0) is not None:
        return None
    for mask, w in cutsets:
        if w != mask.bit_count() + w0:
            return None
        found.append((mask, w))
    return _report(g, found, None)


def is_accessible(g: Graph, bound: int | None = None) -> bool:
    """Unmixed with an accessible cutset system.  Reads ``unmixed_report``,
    so a graph that is not unmixed is rejected at its first violation."""
    report = unmixed_report(g, bound)
    return report is not None and report.is_accessible_system


def dimension_oracle(g: Graph, bound: int | None = None) -> int:
    """Krull dimension of the quotient by the binomial edge ideal:
    ``n + max(components(G \\ T) - |T|)`` over all cutsets T."""
    return g.n + max(w - m.bit_count() for m, w in iter_cutsets(g, bound))


def accessibility_witness_chain(g: Graph, t: VertexSet) -> list[int] | None:
    """Removal order emptying the cutset ``t`` through successive cutsets,
    smallest removable vertex first; None when no such order exists.  A
    subset is tried at most once (one that was tried and is met again led to
    no chain), so the search makes at most 2^|t| cutset checks."""
    if not is_cutset(g, t):
        raise ValueError("t is not a cutset")
    tried: set[VertexSet] = set()

    def extend(cur: VertexSet, acc: list[int]) -> list[int] | None:
        if cur == 0:
            return acc
        for v in iter_members(cur):
            nxt = cur ^ (1 << v)
            if nxt in tried:
                continue
            tried.add(nxt)
            if is_cutset(g, nxt):
                res = extend(nxt, acc + [v])
                if res is not None:
                    return res
        return None

    return extend(t, [])

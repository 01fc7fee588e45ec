"""Exhaustive cutset enumeration and the combinatorial verdicts built on it.

A subset T of vertices is a cutset when it is empty, or when removing any
single vertex of T strictly lowers the number of components of G minus T.
Equivalently, every vertex of T must touch at least two distinct components
of G minus T, so its outside neighbourhood N(v) minus T holds two
non-adjacent vertices.  A simplicial vertex's neighbourhood is a clique, so
simplicial vertices never occur in any cutset.

``iter_cutsets`` yields the empty set first, then every other cutset
exactly once, in no promised order: callers that print the family sort it.
The enumerator is a depth-first set-extension search over the
non-simplicial vertices: each set grows by one candidate below its lowest
member.  A set is pruned with its whole subtree as soon as some member's
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
each copy's family is listed once, the first time its base vertex enters a
core set; the products are streamed, not built.  The clique prune stays
exact on the core, since a non-apex member's outside neighbourhood does not
change when pendant parts are added.  Every graph takes this one path: one
without a non-complete cone pendant has no apex, so its core is the whole
graph and each core set is yielded as it is.

Quotient-ring facts read off the cutset family: the Krull dimension of the
quotient by the binomial edge ideal is ``n + max(components - |T|)`` over
cutsets, and (for connected graphs) unmixedness says every cutset satisfies
``components == |T| + 1``.  A ``CutsetReport`` stores only the family, by
size, then by member lists, sorted on one integer per mask m:
``(|m| << n) - r``, with r the n bits of m reversed (proof in
``_report``).  ``_report`` packs each cutset into one int,
``((key << n | m) << s) | w`` with ``s = n.bit_length()``: a component
count w is at most n, so s bits hold it, and the family sorts as plain
ints, held once.  Its witnesses, verdicts and dimension are read off the
family on each access, so a report cannot contradict itself.  Two entry
points build it:

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

Every search first checks the vertex count against a bound.  Each entry
point takes ``bound=None``, meaning ``DEFAULT_BOUND`` (24), and passes it
unchanged to ``check_bound``, the one place that default is applied; no
environment variable changes it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from typing import Iterable, Iterator

from .graph import (
    Graph,
    VertexSet,
    _brief,
    _components,
    _is_clique,
    iter_members,
    simplicial_vertices,
)

DEFAULT_BOUND = 24


class EnumerationBoundError(ValueError):
    """Raised when a graph exceeds the configured enumeration bound."""


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
    """Raise ``EnumerationBoundError`` when ``n`` vertices exceed ``bound``.
    A bound of None means ``DEFAULT_BOUND``; no other code applies that
    default.  A negative bound is a plain ValueError."""
    limit = DEFAULT_BOUND if bound is None else bound
    if limit < 0:
        raise ValueError(f"the enumeration bound must be at least 0, got {_brief(str(limit))}")
    if n > limit:
        raise EnumerationBoundError(
            f"{_brief(str(n))} vertices exceeds the enumeration bound {_brief(str(limit))}"
        )


def iter_cutsets(g: Graph, bound: int | None = None) -> Iterator[tuple[VertexSet, int]]:
    """Yield ``(cutset, component_count)`` pairs: the empty set first (from
    one flood fill, before any search set-up), then every other cutset
    exactly once, in no promised order.

    The core search, with the cone pendants factored out, is expanded by
    each apex's pendant families under the rules in the module docstring.
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
    vertices ``cand``; masks keep their indices.

    The core search runs outside the cone pendants with every apex exempt,
    and each core set is expanded by its apexes' pendant cutsets; without
    pendants the core is the whole graph and its sets pass unchanged.  A
    pendant's family is listed when its apex first enters a core set, and
    the products are streamed, so a caller that stops early pays only for
    what it took.
    """
    apexes = inside = 0
    pendants: dict[int, list[VertexSet]] = {}
    for v, c in _cone_pendants(adj, full, cand):
        apexes |= 1 << v
        inside |= c
        pendants.setdefault(v, []).append(c)
    # pendant -> its family as (mask, components - 1), the empty part first
    families: dict[VertexSet, tuple[tuple[VertexSet, int], ...]] = {}
    for s, w in _search(adj, full, cand & ~inside, apexes):
        chosen = []
        t = s & apexes
        while t:
            b = t & -t
            t ^= b
            v = b.bit_length() - 1
            pieces = pendants[v]
            for c in pieces:
                family = families.get(c)
                if family is None:
                    # a vertex of c has v and its neighbours in c as
                    # neighbours, and v is adjacent to all of c: it is
                    # simplicial in G[c] iff in G.  c is a component of
                    # G - v, so its empty part leaves one component
                    sub = tuple(row & c for row in adj)
                    family = (0, 0), *((m, x - 1) for m, x in _nonempty_cutsets(sub, c, cand & c))
                    families[c] = family
                if len(pieces) == 1 and adj[v] & ~s & ~c == 0:
                    # v touches only this pendant: the empty part (listed
                    # first) would leave v inside one component
                    family = family[1:]
                chosen.append(family)
        # the first pendant varies slowest, as when the products were
        # built one pendant at a time; a set with no apex is its own one
        # product
        for combo in product(*chosen):
            m, x = s, w
            for pm, pw in combo:
                m |= pm
                x += pw
            yield m, x


def _cone_pendants(
    adj: tuple[VertexSet, ...], full: VertexSet, cand: VertexSet
) -> list[tuple[int, VertexSet]]:
    """Disjoint non-complete cone pendants of the graph induced on ``full``,
    as ``(apex, pendant)`` pairs.

    A cone pendant of v is a component C of G - v with C inside N(v); each
    candidate v keeps those of its components that are not cliques.  Only a
    non-simplicial vertex can be the apex of a non-complete one.
    Two cone pendants are disjoint, nested, or each holds the other's apex;
    larger pendants are taken first, and a pendant that meets a taken
    pendant or apex, or whose apex lies in a taken pendant, is left to the
    search (a nested one is factored again inside its host).
    """
    found = [
        (v, c)
        for v in iter_members(cand)
        for c in _components(adj, full & ~(1 << v))
        if c & ~adj[v] == 0 and not _is_clique(adj, c)
    ]
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


class CutsetReport(namedtuple("CutsetReport", "n cutsets per_cutset_components")):
    """Cutset family of one graph, sorted by size, then by ascending member
    lists, with each cutset's component count: ``n`` (int), ``cutsets``
    (tuple of VertexSet) and ``per_cutset_components`` (tuple of int).
    Nothing else is stored: each property reads the family afresh, so a
    caller reads each once.

    ``unmixed_violation`` is the first cutset, in report order, whose
    component count breaks unmixedness, as ``(mask, components)``;
    ``stuck_cutset`` is the first nonempty cutset from which no single
    removal leaves a cutset.  The verdicts are read off these two witnesses;
    the graph is accessible when both hold.
    For disconnected graphs unmixedness uses the extension
    ``components == |T| + components(G)``.
    """

    __slots__ = ()

    @property
    def base_components(self) -> int:
        return self.per_cutset_components[0]  # the empty cutset sorts first

    @property
    def connected(self) -> bool:
        return self.base_components <= 1

    @property
    def unmixed_violation(self) -> tuple[VertexSet, int] | None:
        w0, pairs = self.base_components, zip(self.cutsets, self.per_cutset_components)
        return next(((m, w) for m, w in pairs if w != m.bit_count() + w0), None)

    @property
    def stuck_cutset(self) -> VertexSet | None:
        # the family is sorted by size, so a cutset's one-smaller subsets
        # can only lie in the size class just before its own: two classes
        # are held, never the whole family
        below, here, size = set(), set(), 0
        for m in self.cutsets:
            if m.bit_count() != size:
                below, here, size = here, set(), m.bit_count()
            if m and all(m ^ (1 << v) not in below for v in iter_members(m)):
                return m
            here.add(m)
        return None

    @property
    def oracle_dimension(self) -> int:
        return _dimension(self.n, zip(self.cutsets, self.per_cutset_components))

    @property
    def is_unmixed(self) -> bool:
        return self.unmixed_violation is None

    @property
    def is_accessible_system(self) -> bool:
        return self.stuck_cutset is None


def _dimension(n: int, pairs: Iterable[tuple[VertexSet, int]]) -> int:
    """``n + max(components - |T|)`` over ``(T, components)`` pairs."""
    return n + max(w - m.bit_count() for m, w in pairs)


def enumerate_cutsets(g: Graph, bound: int | None = None) -> CutsetReport:
    """All cutsets and their component counts, in report order."""
    return _report(g, iter_cutsets(g, bound))


def _report(g: Graph, found: Iterable[tuple[VertexSet, int]]) -> CutsetReport:
    """Sort ``(mask, components)`` pairs by size, then by ascending member
    lists, and split them into the report's two stored tuples.

    The key of a mask m is ``(|m| << n) - r``, with r its n bits reversed
    (vertex v weighs 2^(n-1-v)); as ``0 <= r < 2^n``, size decides first.
    Two lists of one size first differ at the least vertex of their
    symmetric difference, and the list holding it is the smaller; that
    vertex is the highest bit where the reversals differ, so that list has
    the larger r and the smaller key.

    Each pair is packed as ``((key << n | m) << s) | w``: w is at most n,
    so ``s = n.bit_length()`` bits hold it, and no two masks share a key.
    The ints sort with no key list beside them, so the family is held once
    until the two tuples are read off it.
    """
    n = g.n
    s = n.bit_length()
    packed = [
        ((((m.bit_count() << n) - int(f"{m:0{n}b}"[::-1], 2)) << n | m) << s) | w
        for m, w in found
    ]
    packed.sort()
    full, low = g.full_mask, (1 << s) - 1
    return CutsetReport(n, tuple(p >> s & full for p in packed), tuple(p & low for p in packed))


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
    _, w0 = next(cutsets)  # the empty set, with the component count of G
    if _neighbourhood_violation(g.adj, g.full_mask, w0) is not None:
        return None
    # every cutset kept has w0 + |T| components, so its mask alone is kept
    masks = [0]
    for mask, w in cutsets:
        if w != mask.bit_count() + w0:
            return None
        masks.append(mask)
    return _report(g, ((m, m.bit_count() + w0) for m in masks))


def is_accessible(g: Graph, bound: int | None = None) -> bool:
    """Unmixed with an accessible cutset system.  Reads ``unmixed_report``,
    so a graph that is not unmixed is rejected at its first violation."""
    report = unmixed_report(g, bound)
    return report is not None and report.is_accessible_system


def dimension_oracle(g: Graph, bound: int | None = None) -> int:
    """Krull dimension of the quotient by the binomial edge ideal:
    ``n + max(components(G \\ T) - |T|)`` over all cutsets T."""
    return _dimension(g.n, iter_cutsets(g, bound))


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

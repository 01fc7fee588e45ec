"""Corona-type products, their fixed vertex layout, and the structural
decomposition of their cutsets.

A corona product keeps one copy of the base graph and hangs one fully-joined
copy of the pendant graph on each attach vertex.  The layout is fixed so
subset bookkeeping is pure index arithmetic: base vertices keep their
indices, and the copy at the r-th attach vertex (in ascending order)
occupies ``base.n + r*h .. base.n + (r+1)*h - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cutsets import is_cutset
from .graph import (
    Graph,
    VertexSet,
    checked_vset,
    complete_graph,
    components,
    is_connected,
    iter_members,
    members,
    simplicial_vertices,
)
from .io import _is_json_int, from_graph6, to_graph6

VertexTag = tuple


@dataclass(frozen=True)
class CoronaSpec:
    """Base graph, attach set (mask over base vertices) and pendant graph.

    ``relaxed=True`` skips the connectivity requirements; products over
    disconnected parts are constructible for oracle experiments but are not
    part of the analyzed families.
    """

    base: Graph
    attach_set: VertexSet
    pendant: Graph
    relaxed: bool = False

    def __post_init__(self):
        if self.base.n < 1:
            raise ValueError("base graph must have at least one vertex")
        if self.pendant.n < 1:
            raise ValueError("pendant graph must have at least one vertex")
        if self.attach_set == 0:
            raise ValueError("attach set must be nonempty")
        if self.attach_set & ~self.base.full_mask:
            raise ValueError("attach set out of range for the base graph")
        if not self.relaxed:
            if not is_connected(self.base):
                raise ValueError("base graph must be connected (relaxed=True to allow)")
            if not is_connected(self.pendant):
                raise ValueError("pendant graph must be connected (relaxed=True to allow)")

    @property
    def ell(self) -> int:
        return self.attach_set.bit_count()

    @property
    def product_vertices(self) -> int:
        return self.base.n + self.ell * self.pendant.n

    def attach_vertices(self) -> list[int]:
        return members(self.attach_set)

    def copy_start(self, v: int) -> int:
        """First product index of the pendant copy attached at ``v``."""
        if not (self.attach_set >> v) & 1:
            raise ValueError(f"vertex {v} carries no pendant copy")
        rank = (self.attach_set & ((1 << v) - 1)).bit_count()
        return self.base.n + rank * self.pendant.n


def l_corona(spec: CoronaSpec) -> tuple[Graph, tuple[VertexTag, ...]]:
    """Construct the product for ``spec``.

    Returns the graph and a per-vertex tag: ``("base", v)`` for base
    vertices, ``("pendant", v, j)`` for vertex ``j`` of the copy at ``v``.
    """
    base, pend = spec.base, spec.pendant
    h = pend.n
    edges = list(base.edges())
    tags: list[VertexTag] = [("base", v) for v in range(base.n)]
    for v in spec.attach_vertices():
        start = spec.copy_start(v)
        for a, b in pend.edges():
            edges.append((start + a, start + b))
        for j in range(h):
            edges.append((v, start + j))
            tags.append(("pendant", v, j))
    labels = None
    if base.labels is not None or pend.labels is not None:
        lab = [base.label(v) for v in range(base.n)]
        for v in spec.attach_vertices():
            for j in range(h):
                lab.append(f"{pend.label(j)}@{base.label(v)}")
        labels = lab
    return Graph(spec.product_vertices, edges, labels), tuple(tags)


def corona(g: Graph, h: Graph) -> tuple[Graph, tuple[VertexTag, ...]]:
    """Plain corona: one pendant copy at every base vertex."""
    if g.n < 1:
        raise ValueError("base graph must have at least one vertex")
    return l_corona(CoronaSpec(g, g.full_mask, h, relaxed=True))


@dataclass(frozen=True)
class CoronaDecomposition:
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

    t0: VertexSet
    tv: tuple[tuple[int, VertexSet], ...]
    nonempty_set: VertexSet
    predicted_components: int

    def tv_map(self) -> dict[int, VertexSet]:
        return dict(self.tv)

    def reassemble(self, spec: CoronaSpec) -> VertexSet:
        t = self.t0
        for v, part in self.tv:
            t |= part << spec.copy_start(v)
        return t


def decompose_cutset(spec: CoronaSpec, t: VertexSet) -> CoronaDecomposition:
    """Split any product vertex subset (cutset or not) along the layout and
    predict the component count of the product minus ``t``."""
    total_mask = (1 << spec.product_vertices) - 1
    if t & ~total_mask:
        raise ValueError("subset out of range for the product")
    base = spec.base
    h_mask = spec.pendant.full_mask
    t0 = t & base.full_mask
    tv: list[tuple[int, VertexSet]] = []
    nonempty = 0
    predicted = len(components(base, t0))
    for v in spec.attach_vertices():
        part = (t >> spec.copy_start(v)) & h_mask
        tv.append((v, part))
        if part:
            nonempty |= 1 << v
        if (t0 >> v) & 1:
            # the copy is stranded: its own surviving components all count
            predicted += len(components(spec.pendant, part))
    return CoronaDecomposition(t0, tuple(tv), nonempty, predicted)


def check_cutset_structure(
    spec: CoronaSpec, t: VertexSet, product: Graph | None = None
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
        product, _ = l_corona(spec)
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
        len(components(base, t0))
        + sum(len(components(pend, tvm[v])) for v in iter_members(dec.nonempty_set))
        + (t0 & attach).bit_count()
        - dec.nonempty_set.bit_count()
    )
    a5 = stated == len(components(product, t))
    sim = simplicial_vertices(base)
    a6 = t0 & sim & ~attach == 0
    if t0 & attach == 0:
        a7 = t == t0 and is_cutset(base, t0) and t0 & sim == 0
    else:
        a7 = True
    return [a1, a2, a3, a4, a5, a6, a7]


# ---------------------------------------------------------------------------
# diameter-reduction gadgets


def gadget_d2(h: Graph) -> Graph:
    """Cone over ``h`` plus one isolated companion vertex: a diameter-2
    wrapper.  Layout: h at 0..h.n-1, companion next, apex last."""
    if h.n < 1 or not is_connected(h):
        raise ValueError("pendant graph must be connected and nonempty")
    apex = h.n + 1
    edges = list(h.edges()) + [(v, apex) for v in range(h.n + 1)]
    return Graph(h.n + 2, edges)


def gadget_d3(h: Graph) -> Graph:
    """Triangle with pendant copies of ``h`` at two of its vertices: a
    diameter-3 wrapper.  Base triangle at 0,1,2 with copies at 0 and 1."""
    if h.n < 1 or not is_connected(h):
        raise ValueError("pendant graph must be connected and nonempty")
    return l_corona(CoronaSpec(complete_graph(3), 0b011, h))[0]


# ---------------------------------------------------------------------------
# wire format


def corona_spec_to_json(spec: CoronaSpec) -> dict:
    return {
        "base": to_graph6(spec.base),
        "L": members(spec.attach_set),
        "pendant": to_graph6(spec.pendant),
    }


def corona_spec_from_json(obj: dict) -> CoronaSpec:
    """Spec from ``{"base": graph6, "L": [vertex, ...], "pendant": graph6}``;
    a field of the wrong type, or a negative or repeated ``L`` entry, is a
    ValueError."""
    base, attach, pend = obj["base"], obj["L"], obj["pendant"]
    if not isinstance(base, str) or not isinstance(pend, str):
        raise ValueError("corona spec fields 'base' and 'pendant' must be graph6 strings")
    if not isinstance(attach, list) or not all(map(_is_json_int, attach)):
        raise ValueError("corona spec field 'L' must be a list of base vertex indices")
    mask = checked_vset(attach, "corona spec field 'L'")
    return CoronaSpec(from_graph6(base), mask, from_graph6(pend))

"""Corona-type products, their fixed vertex layout, and the
diameter-reduction gadgets built from them.

A corona product keeps one copy of the base graph and hangs one fully-joined
copy of the pendant graph on each attach vertex.  The layout is fixed so
subset bookkeeping is pure index arithmetic: base vertices keep their
indices, and the copy at the r-th attach vertex (in ascending order)
occupies ``base.n + r*h .. base.n + (r+1)*h - 1``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .graph import Graph, VertexSet, checked_vset, complete_graph, is_connected, members
from .io import _graph6_checked, _graph6_decode, _is_json_int


class _CoronaSpecFields(NamedTuple):
    base: Graph
    attach_set: VertexSet
    pendant: Graph


class CoronaSpec(_CoronaSpecFields):
    """Base graph, attach set (mask over base vertices) and pendant graph,
    checked on construction: both graphs nonempty and connected, the attach
    set nonempty and inside the base."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.base.n < 1:
            raise ValueError("base graph must have at least one vertex")
        if self.pendant.n < 1:
            raise ValueError("pendant graph must have at least one vertex")
        if self.attach_set == 0:
            raise ValueError("attach set must be nonempty")
        if self.attach_set & ~self.base.full_mask:
            raise ValueError("attach set out of range for the base graph")
        if not is_connected(self.base):
            raise ValueError("base graph must be connected")
        if not is_connected(self.pendant):
            raise ValueError("pendant graph must be connected")
        return self

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


def l_corona(spec: CoronaSpec) -> Graph:
    """Construct the product for ``spec`` in the layout above."""
    base, pend = spec.base, spec.pendant
    h = pend.n
    edges = list(base.edges())
    for v in spec.attach_vertices():
        start = spec.copy_start(v)
        for a, b in pend.edges():
            edges.append((start + a, start + b))
        for j in range(h):
            edges.append((v, start + j))
    labels = None
    if base.labels is not None or pend.labels is not None:
        lab = [base.label(v) for v in range(base.n)]
        for v in spec.attach_vertices():
            for j in range(h):
                lab.append(f"{pend.label(j)}@{base.label(v)}")
        labels = lab
    return Graph(spec.product_vertices, edges, labels)


def corona(g: Graph, h: Graph) -> Graph:
    """Plain corona: one pendant copy at every base vertex."""
    return l_corona(CoronaSpec(g, g.full_mask, h))


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
    return l_corona(CoronaSpec(complete_graph(3), 0b011, h))


# ---------------------------------------------------------------------------
# wire format


def corona_spec_from_json(
    obj: dict, check_n: Callable[[int], None] | None = None
) -> CoronaSpec:
    """Spec from ``{"base": graph6, "L": [vertex, ...], "pendant": graph6}``;
    a field of the wrong type, or a negative or repeated ``L`` entry, is a
    ValueError.  Both graph6 strings are checked, and ``check_n``, when
    given, sees the product's declared vertex count, before either graph is
    decoded."""
    base, attach, pend = obj["base"], obj["L"], obj["pendant"]
    if not isinstance(base, str) or not isinstance(pend, str):
        raise ValueError("corona spec fields 'base' and 'pendant' must be graph6 strings")
    if not isinstance(attach, list) or not all(map(_is_json_int, attach)):
        raise ValueError("corona spec field 'L' must be a list of base vertex indices")
    mask = checked_vset(attach, "corona spec field 'L'")
    n_base, base_body = _graph6_checked(base)
    n_pend, pend_body = _graph6_checked(pend)
    if check_n is not None:
        check_n(n_base + mask.bit_count() * n_pend)
    return CoronaSpec(
        _graph6_decode(n_base, base_body), mask, _graph6_decode(n_pend, pend_body)
    )

"""Corona-type products, their fixed vertex layout, and the
diameter-reduction gadgets built from them.

A corona product keeps one copy of the base graph and hangs one fully-joined
copy of the pendant graph on each attach vertex.  The layout is fixed so
subset bookkeeping is pure index arithmetic: base vertices keep their
indices, and the copy at the r-th attach vertex (in ascending order)
occupies ``base.n + r*h .. base.n + (r+1)*h - 1``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable

from .graph import Graph, checked_vset, complete_graph, is_connected, members
from .io import _graph6_checked, _graph6_decode, _is_int_list, _json_fields


def _checked_make(cls, iterable):
    """``_make`` for a namedtuple subclass whose ``__new__`` checks its
    fields: the namedtuple one skips ``__new__``, and ``_replace`` calls
    ``_make``."""
    return cls(*iterable)


class CoronaSpec(namedtuple("_CoronaSpecFields", "base attach_set pendant")):
    """Base graph ``base`` (Graph), attach set ``attach_set`` (VertexSet, a
    mask over base vertices) and pendant graph ``pendant`` (Graph), checked
    on construction: both graphs nonempty and connected, the attach set
    nonempty and inside the base."""

    __slots__ = ()
    _make = classmethod(_checked_make)

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


def l_corona(spec: CoronaSpec) -> Graph:
    """Construct the product for ``spec`` in the layout above: the one
    builder of every product and gadget."""
    base, pend = spec.base, spec.pendant
    h = pend.n
    pend_edges = list(pend.edges())
    edges = list(base.edges())
    labelled = base.labels is not None or pend.labels is not None
    labels = [base.label(v) for v in range(base.n)] if labelled else None
    for r, v in enumerate(members(spec.attach_set)):
        start = base.n + r * h
        edges += [(start + a, start + b) for a, b in pend_edges]
        edges += [(v, start + j) for j in range(h)]
        if labelled:
            labels += [f"{pend.label(j)}@{base.label(v)}" for j in range(h)]
    return Graph(spec.product_vertices, edges, labels)


# ---------------------------------------------------------------------------
# diameter-reduction gadgets


def _gadget_spec(h: Graph, d: int) -> CoronaSpec:
    """The spec of ``gadget(h, d)``: K_d, attach set {0..d-2}, pendant ``h``."""
    if d not in (2, 3):
        raise ValueError(f"a diameter wrapper has diameter 2 or 3, got {d}")
    return CoronaSpec(complete_graph(d), (1 << d - 1) - 1, h)


def gadget(h: Graph, d: int) -> Graph:
    """The diameter-``d`` wrapper of ``h``, for d in {2, 3}: K_d with a
    pendant copy of ``h`` at each of its first d-1 vertices.  d = 2: apex
    0 with the copy of ``h`` at 2..h.n+1, companion 1 (the cone over ``h``
    plus an isolated vertex).  d = 3: triangle 0,1,2 with the copy at 0 on
    3..h.n+2, the copy at 1 on h.n+3..2h.n+2, and 2 bare."""
    return l_corona(_gadget_spec(h, d))


# ---------------------------------------------------------------------------
# wire format


_GRAPH6 = (lambda value: isinstance(value, str), "a graph6 string")
_SPEC_FIELDS = {"base": _GRAPH6, "L": (_is_int_list, "a list of base vertex indices"), "pendant": _GRAPH6}


def corona_spec_from_json(
    obj: dict, check_n: Callable[[int], None] | None = None
) -> CoronaSpec:
    """Spec from ``{"base": graph6, "L": [vertex, ...], "pendant": graph6}``.
    The base's graph6 string is checked first, for the range of ``L`` (no
    entry may be negative, repeated or out of range), then the pendant's;
    ``check_n`` sees the product's vertex count before either is decoded."""
    base, attach, pend = _json_fields(obj, "corona spec", _SPEC_FIELDS)
    n_base, base_body = _graph6_checked(base)
    mask = checked_vset(attach, "corona spec field 'L'", n_base)
    n_pend, pend_body = _graph6_checked(pend)
    if check_n is not None:
        check_n(n_base + mask.bit_count() * n_pend)
    return CoronaSpec(
        _graph6_decode(n_base, base_body), mask, _graph6_decode(n_pend, pend_body)
    )

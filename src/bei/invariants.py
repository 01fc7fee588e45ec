"""Closed-form dimension / depth / regularity engine for corona products.

The closed forms see the pendant graph only through a small record of its
quotient-ring invariants (``BaseInvariants``).  A built-in constructor
covers connected block graphs, where depth and regularity have exact
combinatorial values (vertex count + 1 and internal-vertex count + 1);
their dimension and the unmixed/accessible verdicts come from the cutset
oracle, since a block graph need not be Cohen-Macaulay (a star already is
not).  Anything else is user-supplied.  All arithmetic is exact integers.

Every product with a pendant copy at every base vertex -- the full corona
over K_n, the corona of a clique-path base and its path case -- comes from
one computation on the base graph; the three families differ only in the
labels their reports carry.  The L-corona with 1 <= ell < n has its own
rules.  Each of the two builders states its own dimension formula, depth
and regularity, extremal Betti position (the corner of the Betti table in
the sense of Bayer, Charalambous and Popescu) and verdicts, one line per
rule.  A report stores dim, depth and reg only: pd follows by
Auslander-Buchsbaum (pd = 2|V| - depth) and the Cohen-Macaulay defect is
dim - depth, so both are derived on reading.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .corona import corona
from .cutsets import dimension_oracle, enumerate_cutsets, enumeration_bound
from .graph import (
    Graph,
    complete_graph,
    internal_vertex_count,
    is_block_graph,
    is_cm_closed,
    is_complete,
    path_graph,
)
from .io import _is_json_int

L_CORONA = "l_corona_complete"
FULL_CORONA = "full_corona_complete"
CM_CLOSED = "corona_cm_closed"
PATH = "corona_path"


class Verdict(NamedTuple):
    value: bool | None
    rule: str


class _BaseInvariantsFields(NamedTuple):
    h: int
    dim_q: int
    depth_q: int
    reg_q: int
    pd: int
    is_complete: bool
    is_unmixed: bool | None = None
    is_cm: bool | None = None
    is_accessible: bool | None = None
    r_extremal: int | None = None
    provenance: str = "user-supplied"


class BaseInvariants(_BaseInvariantsFields):
    """Per-graph algebraic inputs consumed by the formula engine, checked
    on construction.

    ``h`` is the vertex count; ``dim_q``/``depth_q``/``reg_q``/``pd`` are
    the quotient-ring invariants; ``r_extremal`` the column offset of the
    extremal Betti entry in homological degree ``pd`` (>= 2, only defined
    for non-complete graphs).  For the single-vertex pendant the record
    carries the internal-vertex closed form ``reg_q = 1``; no consuming
    formula reads ``reg_q`` of a complete pendant.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.h < 1:
            raise ValueError("pendant must have at least one vertex")
        if self.pd + self.depth_q != 2 * self.h:
            raise ValueError("pd + depth must equal twice the vertex count")
        if self.pd < self.h - 1:
            raise ValueError("pd is below the h-1 floor")
        if self.depth_q > self.dim_q:
            raise ValueError("depth exceeds dim")
        if self.dim_q < self.h + 1:
            raise ValueError("dim below h+1: pendant data must describe a connected graph")
        if self.is_complete and not (
            self.reg_q == 1 and self.depth_q == self.dim_q == self.h + 1
        ):
            raise ValueError("complete pendant must carry reg 1 and dim = depth = h+1")
        if self.r_extremal is not None and self.r_extremal < 2:
            raise ValueError("extremal offset must be >= 2")
        return self

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "dim": self.dim_q,
            "depth": self.depth_q,
            "reg": self.reg_q,
            "pd": self.pd,
            "is_complete": self.is_complete,
            "is_unmixed": self.is_unmixed,
            "is_cm": self.is_cm,
            "is_accessible": self.is_accessible,
            "r_extremal": self.r_extremal,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BaseInvariants":
        """The record ``to_json`` writes.  An unknown key (a misspelt field)
        is a ValueError naming it; a missing required field is a KeyError; a
        field of the wrong JSON type is a ValueError naming it."""
        known = ("h", "dim", "depth", "reg", "pd", "is_complete", "is_unmixed", "is_cm",
                 "is_accessible", "r_extremal", "provenance")
        for key in obj:
            if key not in known:
                raise ValueError(f"pendant record has an unknown field {key!r}")

        def field(key: str, ok, kind: str, *default):
            value = obj.get(key, *default) if default else obj[key]
            if not ok(value):
                raise ValueError(
                    f"pendant record field {key!r} must be {kind}, got {json.dumps(value)}"
                )
            return value

        def integer(key: str) -> int:
            return field(key, _is_json_int, "an integer")

        def verdict(key: str) -> bool | None:
            return field(key, lambda v: v is None or isinstance(v, bool), "a boolean or null", None)

        return cls(
            h=integer("h"),
            dim_q=integer("dim"),
            depth_q=integer("depth"),
            reg_q=integer("reg"),
            pd=integer("pd"),
            is_complete=field("is_complete", lambda v: isinstance(v, bool), "a boolean"),
            is_unmixed=verdict("is_unmixed"),
            is_cm=verdict("is_cm"),
            is_accessible=verdict("is_accessible"),
            r_extremal=field(
                "r_extremal", lambda v: v is None or _is_json_int(v), "an integer or null", None
            ),
            provenance=field(
                "provenance", lambda v: isinstance(v, str), "a string", "user-supplied"
            ),
        )


def base_invariants_block_graph(g: Graph, bound: int | None = None) -> BaseInvariants:
    """Invariants of a connected block graph: depth = |V|+1 and
    reg = iv+1 exactly; dimension and the verdict flags come from the cutset
    oracle.  When the graph turns out Cohen-Macaulay, the extremal Betti
    offset is the regularity (the Betti table of a CM quotient has a single
    corner at (pd, pd + reg))."""
    if not is_block_graph(g):
        raise ValueError("not a block graph: some biconnected component is not a clique")
    h = g.n
    depth = h + 1
    reg = internal_vertex_count(g) + 1
    report = enumerate_cutsets(g, bound=bound)
    dim = report.oracle_dimension
    cm = dim == depth
    comp = is_complete(g)
    return BaseInvariants(
        h=h,
        dim_q=dim,
        depth_q=depth,
        reg_q=reg,
        pd=h - 1,
        is_complete=comp,
        is_unmixed=report.is_unmixed,
        is_cm=cm,
        is_accessible=report.is_accessible,
        r_extremal=reg if (cm and not comp) else None,
        provenance="closed-form" if cm else "oracle",
    )


# ---------------------------------------------------------------------------
# reports


class _InvariantReportFields(NamedTuple):
    family: str
    base: BaseInvariants
    product_vertices: int
    depth_q: int
    reg_q: int
    dim_q: int | None
    extremal_position: tuple[int, int] | None
    verdicts: dict[str, Verdict]
    rule: str
    dim_provenance: str
    n: int | None = None
    ell: int | None = None
    b: int | None = None
    notes: tuple[str, ...] = ()


class InvariantReport(_InvariantReportFields):
    """Exact invariant values for one product, checked on construction.
    ``rule`` is the provenance of depth and regularity; pd and the
    Cohen-Macaulay defect are derived from them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.dim_q is not None and self.dim_q < self.depth_q:
            raise ValueError("negative Cohen-Macaulay defect")
        return self

    @property
    def pd(self) -> int:
        """Auslander-Buchsbaum: pd + depth = 2 |V|."""
        return 2 * self.product_vertices - self.depth_q

    @property
    def cmdef(self) -> int | None:
        return None if self.dim_q is None else self.dim_q - self.depth_q

    def to_json(self) -> dict:
        def num(value, provenance):
            return {"value": value, "provenance": provenance}

        return {
            "family": self.family,
            "n": self.n,
            "ell": self.ell,
            "b": self.b,
            "product_vertices": self.product_vertices,
            "base": self.base.to_json(),
            "dim": num(self.dim_q, self.dim_provenance),
            "depth": num(self.depth_q, self.rule),
            "reg": num(self.reg_q, self.rule),
            "pd": num(self.pd, "auslander-buchsbaum"),
            "cmdef": num(
                self.cmdef, "oracle-unavailable" if self.dim_q is None else "dim-minus-depth"
            ),
            "extremal_betti_position": (
                list(self.extremal_position) if self.extremal_position else None
            ),
            "verdicts": {
                k: {"value": v.value, "rule": v.rule} for k, v in self.verdicts.items()
            },
            "notes": list(self.notes),
        }


def _single_vertex_notes(n: int, base: BaseInvariants) -> tuple[str, ...]:
    """What a report over a complete base says when that base is one vertex."""
    if n > 1:
        return ()
    if base.is_complete:
        return ("single-vertex base with complete pendant: product is complete",)
    if base.r_extremal is not None:
        return ("extremal position not stated for a single-vertex base",)
    return ()


def _every_vertex_report(
    family: str,
    b_graph: Graph,
    base: BaseInvariants,
    rule: str,
    *,
    pendant: Graph | None = None,
    bound: int | None = None,
    notes: tuple[str, ...] = (),
    **ids: int,
) -> InvariantReport:
    """A copy of the pendant at every vertex of the clique-path base
    ``b_graph``.  The full corona over K_n, the clique-path corona and the
    path corona all come through here; they differ only in their family,
    provenance and notes.  A complete base has the dimension formula and,
    for b >= 2, the full-corona extremal statement; any other clique path
    takes its dimension from the cutset oracle and the clique-path extremal
    statement, whose column offset keeps its +1."""
    b = b_graph.n
    complete = is_complete(b_graph)
    if base.is_complete:
        depth = 1 + b * base.depth_q
        # the product is a block graph; reg = iv + 1, which is b + 1 for
        # b >= 2 but 1 for b == 1 (the product is then complete)
        reg = b + 1 if b >= 2 else 1
    else:
        depth = b * base.depth_q
        reg = b * base.reg_q
    if complete:
        # b * dim H, plus one when dim H = h + 1 (the empty set is then the
        # best cutset of the product); otherwise the best cutset holds the
        # whole base and a best cutset of every copy
        dim = b * base.dim_q + (base.dim_q == base.h + 1)
        dim_prov = "formula:l-corona-dimension"
    else:
        dim, dim_prov = _oracle_dim_for(b_graph, base, pendant, bound)
    extremal = None
    if b >= 2 and not base.is_complete and base.r_extremal is not None:
        # (unstated for a single-vertex base) p = 2b + b*pd_H; the column
        # offset gains 1 from b = 3 on over a complete base, and always over
        # any other clique path (the two statements are recorded, not
        # reconciled)
        p = 2 * b + b * base.pd
        extremal = p, p + b * base.r_extremal + (b >= 3 if complete else 1)
    keys = ("unmixed", "accessible", "cm")
    if b >= 2:
        both = complete and base.is_complete
        verdicts = {k: Verdict(both, "full-corona-needs-both-factors-complete") for k in keys}
    elif base.is_complete:  # single-vertex base: the product is a cone over the pendant
        verdicts = {k: Verdict(True, "complete-product") for k in keys}
    else:
        verdicts = {
            "unmixed": Verdict(None, "cone-not-covered"),
            "accessible": Verdict(None, "cone-not-covered"),
            "cm": Verdict(False, "positive-cm-defect"),
        }
    return InvariantReport(
        family=family,
        base=base,
        product_vertices=b * (1 + base.h),
        depth_q=depth,
        reg_q=reg,
        dim_q=dim,
        extremal_position=extremal,
        verdicts=verdicts,
        rule=rule,
        dim_provenance=dim_prov,
        notes=notes,
        **ids,
    )


def depth_reg_corona_complete(n: int, ell: int, base: BaseInvariants) -> InvariantReport:
    """Depth and regularity for a complete base on ``n`` vertices with
    ``ell`` pendant copies, with dimension, Cohen-Macaulay defect, extremal
    Betti position and verdicts attached."""
    if n < 1:
        raise ValueError("base size must be at least 1")
    if not 1 <= ell <= n:
        raise ValueError("attach count must satisfy 1 <= ell <= n")
    if ell == n:
        return _every_vertex_report(
            FULL_CORONA,
            complete_graph(n),
            base,
            "formula:full-corona",
            notes=_single_vertex_notes(n, base),
            n=n,
            ell=n,
        )
    if ell == 1:
        rule = "formula:single-attach"
        depth = n + base.depth_q
        reg = 2 if base.is_complete else 1 + base.reg_q
    else:
        rule = "formula:multi-attach"
        depth = n - ell + 1 + ell * base.depth_q
        reg = 1 + ell * base.reg_q
    extremal = None
    if not base.is_complete and base.r_extremal is not None:
        # p = n + ell - 1 + ell*pd_H; the column offset gains 1 from n = 3 on
        p = n + ell - 1 + ell * base.pd
        extremal = p, p + ell * base.r_extremal + (n >= 3)
    # the n - ell bare base vertices add one component to ell best cutsets
    # of the copies; the verdicts are the pendant's own
    return InvariantReport(
        family=L_CORONA,
        base=base,
        product_vertices=n + ell * base.h,
        depth_q=depth,
        reg_q=reg,
        dim_q=n - ell + 1 + ell * base.dim_q,
        extremal_position=extremal,
        verdicts={
            "unmixed": Verdict(base.is_unmixed, "transfer-from-pendant"),
            "accessible": Verdict(base.is_accessible, "transfer-from-pendant"),
            "cm": Verdict(base.is_cm, "transfer-from-pendant"),
        },
        rule=rule,
        dim_provenance="formula:l-corona-dimension",
        n=n,
        ell=ell,
    )


def _oracle_dim_for(
    b_graph: Graph, base: BaseInvariants, pendant: Graph | None, bound: int | None
) -> tuple[int | None, str]:
    if pendant is None:
        return None, "oracle-unavailable"
    if pendant.n != base.h:
        raise ValueError("pendant graph disagrees with the pendant invariants")
    if b_graph.n * (1 + base.h) > enumeration_bound(bound):
        return None, "oracle-unavailable"
    return dimension_oracle(corona(b_graph, pendant), bound), "oracle:cutset-enumeration"


def depth_reg_corona_cm_closed(
    b_graph: Graph,
    base: BaseInvariants,
    pendant: Graph | None = None,
    bound: int | None = None,
) -> InvariantReport:
    """Depth and regularity for the corona of a clique-path base with an
    arbitrary connected pendant.  A complete base gets the complete-base
    closed forms (dimension included); otherwise no dimension formula
    exists and the cutset oracle fills it in when the product fits the
    enumeration bound and the pendant graph is supplied."""
    if not is_cm_closed(b_graph):
        raise ValueError("base graph is not a clique path")
    b = b_graph.n
    rule, notes = "formula:cm-closed-corona", ()
    if is_complete(b_graph):
        rule = "formula:full-corona"
        notes = _single_vertex_notes(b, base) + (
            "complete clique path: complete-base closed forms apply",
        )
    return _every_vertex_report(
        CM_CLOSED, b_graph, base, rule, pendant=pendant, bound=bound, notes=notes, b=b
    )


def depth_reg_corona_path(
    n: int,
    base: BaseInvariants,
    pendant: Graph | None = None,
    bound: int | None = None,
) -> InvariantReport:
    """The clique-path corona on the path with ``n`` vertices."""
    if n < 1:
        raise ValueError("path length must be at least 1")
    return _every_vertex_report(
        PATH, path_graph(n), base, "formula:path-corona", pendant=pendant, bound=bound, n=n
    )

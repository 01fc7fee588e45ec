"""Closed-form dimension / depth / regularity engine for corona products.

The closed forms see the pendant graph only through a small record of its
quotient-ring invariants (``BaseInvariants``), which stores only
independent values: pd, Cohen-Macaulayness and completeness are derived
from dim, depth and reg, so no record can contradict them.  A built-in
constructor covers connected block graphs, where depth and regularity have
exact combinatorial values (vertex count + 1 and internal-vertex count +
1); their dimension and the unmixed/accessible verdicts come from the
cutset oracle, since a block graph need not be Cohen-Macaulay (a star
already is not).  Anything else is user-supplied.  All arithmetic is exact
integers.

Every product with a pendant copy at every base vertex -- the full corona
over K_n, the corona of a clique-path base and its path case -- comes from
one computation on the base's size; the three families differ only in the
labels their reports carry.  The L-corona with 1 <= ell < n has its own
rules, the same for every such ell.  No builder makes K_n.  A base that is
not complete -- P_n for n >= 3, or a clique path the caller gives -- goes
into a product only when the cutset oracle runs, and P_n is built only
then.  Each of the two builders states its own dimension formula, depth and regularity, extremal Betti position (the
corner of the Betti table in the sense of Bayer, Charalambous and Popescu)
and verdicts, one line per rule.  A report stores dim, depth and reg only:
pd follows by Auslander-Buchsbaum (pd = 2|V| - depth) and the
Cohen-Macaulay defect is dim - depth, so both are derived on reading.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from .corona import _checked_make, corona
from .cutsets import EnumerationBoundError, check_bound, dimension_oracle, enumerate_cutsets
from .graph import (
    Graph,
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
    is_unmixed: bool | None = None
    is_accessible: bool | None = None
    r_extremal: int | None = None
    provenance: str = "user-supplied"


class BaseInvariants(_BaseInvariantsFields):
    """Per-graph algebraic inputs consumed by the formula engine, checked
    on construction.

    Stored: ``h`` (the vertex count), ``dim_q``/``depth_q``/``reg_q`` (the
    quotient-ring invariants), the unmixed and accessible verdicts and
    ``r_extremal``, the column offset of the extremal Betti entry in
    homological degree ``pd`` (>= 2, only defined for non-complete graphs).
    Derived: ``pd`` = 2h - depth (Auslander-Buchsbaum), ``is_cm`` (depth =
    dim) and ``is_complete`` (reg = 1: a connected graph's reg is at least
    its longest induced path, Matsuda-Murai); the single-vertex pendant
    carries the internal-vertex closed form ``reg_q = 1``.  As Cohen-Macaulay
    implies accessible implies unmixed (Bolognini-Macchia-Strazzanti), and a
    Cohen-Macaulay Betti table has one corner, at (pd, pd + reg), a record
    saying otherwise is refused.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.h < 1:
            raise ValueError("pendant must have at least one vertex")
        if self.reg_q < 1:
            raise ValueError("reg below 1")
        if self.pd < self.h - 1:
            raise ValueError("pd is below the h-1 floor")
        if self.depth_q > self.dim_q:
            raise ValueError("depth exceeds dim")
        if self.dim_q < self.h + 1:
            raise ValueError("dim below h+1: pendant data must describe a connected graph")
        if self.is_complete and not self.depth_q == self.dim_q == self.h + 1:
            raise ValueError("complete pendant (reg 1) must carry dim = depth = h+1")
        if self.r_extremal is not None and self.r_extremal < 2:
            raise ValueError("extremal offset must be >= 2")
        if self.is_accessible and self.is_unmixed is False:
            raise ValueError("is_accessible is true but is_unmixed is false: accessible implies unmixed")
        if self.is_cm and False in (self.is_unmixed, self.is_accessible):
            raise ValueError(
                "is_unmixed or is_accessible is false, but depth = dim: Cohen-Macaulay implies both"
            )
        if self.is_cm and not self.is_complete and self.r_extremal not in (None, self.reg_q):
            raise ValueError(
                "r_extremal is not reg, but depth = dim: a Cohen-Macaulay Betti table has one corner"
            )
        return self

    @property
    def pd(self) -> int:
        """Auslander-Buchsbaum: pd + depth = 2h."""
        return 2 * self.h - self.depth_q

    @property
    def is_cm(self) -> bool:
        return self.depth_q == self.dim_q

    @property
    def is_complete(self) -> bool:
        return self.reg_q == 1

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
        field of the wrong JSON type, or a derived field that disagrees with
        the stored ones, is a ValueError naming it."""
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

        h, dim, depth, reg = (integer(key) for key in ("h", "dim", "depth", "reg"))
        stored = (
            verdict("is_unmixed"),
            verdict("is_accessible"),
            field("r_extremal", lambda v: v is None or _is_json_int(v), "an integer or null", None),
            field("provenance", lambda v: isinstance(v, str), "a string", "user-supplied"),
        )
        integer("pd")
        field("is_complete", lambda v: isinstance(v, bool), "a boolean")
        verdict("is_cm")
        # a derived field that disagrees is named before the checks of __new__
        for key, derived, rule in (
            ("pd", 2 * h - depth, "2h - depth"),
            ("is_complete", reg == 1, "complete exactly when reg = 1"),
            ("is_cm", depth == dim, "Cohen-Macaulay exactly when depth = dim"),
        ):
            field(key, lambda v: v in (None, derived), f"{json.dumps(derived)} ({rule})", None)
        return cls(h, dim, depth, reg, *stored)


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
    unmixed = report.is_unmixed
    cm = dim == depth
    return BaseInvariants(
        h=h,
        dim_q=dim,
        depth_q=depth,
        reg_q=reg,
        is_unmixed=unmixed,
        is_accessible=unmixed and report.is_accessible_system,
        r_extremal=reg if (cm and reg > 1) else None,  # reg 1: complete, no corner offset
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
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.dim_q is not None and self.dim_q < self.depth_q:
            raise ValueError("negative Cohen-Macaulay defect")
        cm = self.verdicts["cm"].value
        if self.dim_q is not None and cm is not None and cm != (self.dim_q == self.depth_q):
            raise ValueError("the cm verdict disagrees with the Cohen-Macaulay defect")
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
    b: int,
    base: BaseInvariants,
    rule: str,
    /,  # a cm-closed report's ``b`` goes into ``ids``
    *,
    clique_path: Callable[[], Graph] | None = None,
    pendant: Graph | None = None,
    bound: int | None = None,
    notes: tuple[str, ...] = (),
    **ids: int,
) -> InvariantReport:
    """A copy of the pendant at every vertex of a clique-path base on ``b``
    vertices: K_b when ``clique_path`` is None, else the graph it returns.
    The full corona over K_n, the clique-path corona and the path corona all
    come through here; they differ only in their family, provenance and
    notes.  A complete base has the dimension formula and, for b >= 2, the
    full-corona extremal statement; any other clique path takes its
    dimension from the cutset oracle and the clique-path extremal statement,
    whose column offset keeps its +1.  ``clique_path`` is called only when
    the oracle runs: with the pendant graph, for a product within the bound."""
    complete = clique_path is None
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
    elif pendant is None:
        dim, dim_prov = None, "oracle-unavailable"
    elif pendant.n != base.h:
        raise ValueError("pendant graph disagrees with the pendant invariants")
    else:
        try:
            check_bound(b * (1 + base.h), bound)  # before the base or product is built
        except EnumerationBoundError:
            dim, dim_prov = None, "oracle-unavailable"
        else:
            dim = dimension_oracle(corona(clique_path(), pendant), bound)
            dim_prov = "oracle:cutset-enumeration"
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
            n,
            base,
            "formula:full-corona",
            notes=_single_vertex_notes(n, base),
            n=n,
            ell=n,
        )
    extremal = None
    if not base.is_complete and base.r_extremal is not None:
        # p = n + ell - 1 + ell*pd_H; the column offset gains 1 from n = 3 on
        p = n + ell - 1 + ell * base.pd
        extremal = p, p + ell * base.r_extremal + (n >= 3)
    # one depth and one reg rule for every ell < n (reg_H = 1 covers a
    # complete pendant); only the rule label names ell = 1.  The n - ell bare
    # base vertices add one component to ell best cutsets of the copies; the
    # verdicts are the pendant's own
    return InvariantReport(
        family=L_CORONA,
        base=base,
        product_vertices=n + ell * base.h,
        depth_q=n - ell + 1 + ell * base.depth_q,
        reg_q=1 + ell * base.reg_q,
        dim_q=n - ell + 1 + ell * base.dim_q,
        extremal_position=extremal,
        verdicts={
            "unmixed": Verdict(base.is_unmixed, "transfer-from-pendant"),
            "accessible": Verdict(base.is_accessible, "transfer-from-pendant"),
            "cm": Verdict(base.is_cm, "transfer-from-pendant"),
        },
        rule="formula:single-attach" if ell == 1 else "formula:multi-attach",
        dim_provenance="formula:l-corona-dimension",
        n=n,
        ell=ell,
    )


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
    if is_complete(b_graph):
        rule, clique_path = "formula:full-corona", None
        notes = _single_vertex_notes(b, base) + (
            "complete clique path: complete-base closed forms apply",
        )
    else:
        rule, clique_path, notes = "formula:cm-closed-corona", lambda: b_graph, ()
    return _every_vertex_report(
        CM_CLOSED, b, base, rule,
        clique_path=clique_path, pendant=pendant, bound=bound, notes=notes, b=b,
    )


def depth_reg_corona_path(
    n: int,
    base: BaseInvariants,
    pendant: Graph | None = None,
    bound: int | None = None,
) -> InvariantReport:
    """The clique-path corona on the path with ``n`` vertices; P_1 and P_2
    are complete, and P_n is built only for the cutset oracle."""
    if n < 1:
        raise ValueError("path length must be at least 1")
    clique_path = None if n <= 2 else lambda: path_graph(n)
    return _every_vertex_report(
        PATH, n, base, "formula:path-corona",
        clique_path=clique_path, pendant=pendant, bound=bound, n=n,
    )

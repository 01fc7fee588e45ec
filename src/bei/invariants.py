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

Every product is a base on b vertices -- K_n or a clique path, with
independence number alpha -- carrying a pendant copy at ell of its
vertices: the L-corona over K_n (ell < n), the full corona over K_n, the
corona of a clique-path base and its path case.  One builder,
``_corona_report``, states the dimension formula, depth and regularity,
extremal Betti position (the corner of the Betti table in the sense of
Bayer, Charalambous and Popescu) and verdicts for all of them, one line per
rule, in b, ell, alpha and the pendant record; the families differ only in
the labels their reports carry.  No product is built, and no base either:
K_n and P_n are known by n alone.  A report stores dim, depth and reg only:
pd follows by Auslander-Buchsbaum (pd = 2|V| - depth) and the
Cohen-Macaulay defect is dim - depth, so both are derived on reading.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .corona import _checked_make
from .cutsets import enumerate_cutsets
from .graph import (
    Graph,
    _brief,
    independence_number,
    internal_vertex_count,
    is_block_graph,
    is_cm_closed,
)
from .io import _is_json_int, _json_fields

L_CORONA = "l_corona_complete"
FULL_CORONA = "full_corona_complete"
CM_CLOSED = "corona_cm_closed"
PATH = "corona_path"


Verdict = namedtuple("Verdict", "value rule")
Verdict.__doc__ = """One verdict: ``value`` (bool, or None when no rule decides it) and
``rule`` (str), the rule that gave it."""


class BaseInvariants(
    namedtuple(
        "_BaseInvariantsFields",
        "h dim_q depth_q reg_q is_unmixed is_accessible r_extremal provenance",
        defaults=(None, None, None, "user-supplied"),
    )
):
    """Per-graph algebraic inputs consumed by the formula engine, checked
    on construction.

    Stored: ``h`` (int, the vertex count), ``dim_q``/``depth_q``/``reg_q``
    (int each, the quotient-ring invariants), the unmixed and accessible
    verdicts ``is_unmixed`` and ``is_accessible`` (bool or None), and
    ``r_extremal`` (int or None), the column offset of the extremal Betti
    entry in homological degree ``pd`` (>= 2, only defined for non-complete
    graphs), and ``provenance`` (str, default ``"user-supplied"``).
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
        """The record ``to_json`` writes; a derived field that disagrees with
        the stored ones is a ValueError naming it, as a bad field is."""
        h, dim, depth, reg, *stored, pd, complete, cm = _json_fields(obj, "pendant record", _RECORD_FIELDS)
        # a derived field that disagrees is named before the checks of __new__
        for key, value, derived, rule in (
            ("pd", pd, 2 * h - depth, "2h - depth"),
            ("is_complete", complete, reg == 1, "complete exactly when reg = 1"),
            ("is_cm", cm, depth == dim, "Cohen-Macaulay exactly when depth = dim"),
        ):
            if value not in (None, derived):
                must = f"{_brief(json.dumps(derived))} ({rule})"
                got = _brief(json.dumps(value))
                raise ValueError(f"pendant record field {key!r} must be {must}, got {got}")
        return cls(h, dim, depth, reg, *stored)


_VERDICT = (lambda v: v is None or isinstance(v, bool), "a boolean or null", None)
# the stored fields in the order of BaseInvariants, then the derived ones
_RECORD_FIELDS = {
    **dict.fromkeys(("h", "dim", "depth", "reg"), (_is_json_int, "an integer")),
    **dict.fromkeys(("is_unmixed", "is_accessible"), _VERDICT),
    "r_extremal": (lambda v: v is None or _is_json_int(v), "an integer or null", None),
    "provenance": (lambda v: isinstance(v, str), "a string", "user-supplied"),
    "pd": (_is_json_int, "an integer"),
    "is_complete": (lambda v: isinstance(v, bool), "a boolean"),
    "is_cm": _VERDICT,
}


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


class InvariantReport(
    namedtuple(
        "_InvariantReportFields",
        "family base product_vertices depth_q reg_q dim_q extremal_position verdicts rule n ell b notes",
        defaults=(None, None, None, ()),
    )
):
    """Exact invariant values for one product, checked on construction.
    ``rule`` is the provenance of depth and regularity, and every dimension
    comes from the one L-corona formula; pd and the Cohen-Macaulay defect
    are derived from them.

    Fields: ``family`` (str), ``base`` (BaseInvariants),
    ``product_vertices``, ``depth_q``, ``reg_q`` and ``dim_q`` (int each),
    ``extremal_position`` (an ``(i, j)`` pair of int, or None),
    ``verdicts`` (dict of str to Verdict), ``rule`` (str), ``n``, ``ell``
    and ``b`` (int or None, the family's sizes) and ``notes`` (tuple of
    str)."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.dim_q < self.depth_q:
            raise ValueError("negative Cohen-Macaulay defect")
        cm = self.verdicts["cm"].value
        if cm is not None and cm != (self.dim_q == self.depth_q):
            raise ValueError("the cm verdict disagrees with the Cohen-Macaulay defect")
        return self

    @property
    def pd(self) -> int:
        """Auslander-Buchsbaum: pd + depth = 2 |V|."""
        return 2 * self.product_vertices - self.depth_q

    @property
    def cmdef(self) -> int:
        return self.dim_q - self.depth_q

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
            "dim": num(self.dim_q, "formula:l-corona-dimension"),
            "depth": num(self.depth_q, self.rule),
            "reg": num(self.reg_q, self.rule),
            "pd": num(self.pd, "auslander-buchsbaum"),
            "cmdef": num(self.cmdef, "dim-minus-depth"),
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


def _corona_report(
    family: str,
    rule: str,
    b: int,
    ell: int,
    alpha: int,
    base: BaseInvariants,
    notes: tuple[str, ...],
    /,  # a cm-closed report's ``b`` goes into ``ids``
    **ids: int,
) -> InvariantReport:
    """A copy of the pendant H at ``ell`` vertices of a base on ``b``
    vertices -- K_n or a clique path -- whose independence number is
    ``alpha``.  Every family comes through here; they differ only in their
    family, rule, notes and ids.  With bare = ell < b (some base vertex
    carries no copy, which only a complete base allows here):

    - depth = b - ell + ell*depth H + [bare or H complete];
    - reg = ell*reg H + [bare or (H complete and b >= 2)];
    - dim = b - ell + ell*dim H + [bare or dim H = h + 1]*alpha;
    - the extremal Betti position sits in row pd (= 2|V| - depth) and
      column pd + ell*r_H + ([b >= 3] if alpha = 1 else 1); it is unstated
      for b < 2, for a complete H, and when r_H is unknown.

    A bare report's verdicts are the pendant's own.  Otherwise, for b >= 2,
    the product is Cohen-Macaulay, unmixed and accessible only when base and
    pendant are both complete; over a single vertex it is a cone over H."""
    bare = ell < b
    # a complete H makes the product a block graph, with reg = iv + 1: b + 1
    # for b >= 2, and 1 for b = 1 (the product is then complete)
    depth = b - ell + ell * base.depth_q + (bare or base.is_complete)
    reg = ell * base.reg_q + (bare or (base.is_complete and b >= 2))
    # dim = the most of |V| - |S| + c(G - S) over vertex sets S (Herzog,
    # Hibi, Hreinsdottir, Kahle and Rauh).  Every copy vertex is adjacent to
    # its base vertex, so a best S meets only the copies of the base
    # vertices it holds, each in a best set of H.  Each such base vertex
    # then gains dim H - h - 1 >= 0 over keeping it with its copy, and the
    # base vertices left make at most alpha components.  With a gain and a
    # copy at every base vertex, S holds the whole base: b * dim H.  Without
    # one (dim H = h + 1), the base part of S is free and leaves alpha
    # components.  Bare vertices (over K_n only) stay out of S and make one
    dim = b - ell + ell * base.dim_q + (bare or base.dim_q == base.h + 1) * alpha
    product_vertices = b + ell * base.h
    extremal = None
    if b >= 2 and not base.is_complete and base.r_extremal is not None:
        # the column offset gains 1 from b = 3 on over a complete base, and
        # always over any other clique path (the statements are recorded,
        # not reconciled)
        p = 2 * product_vertices - depth
        extremal = p, p + ell * base.r_extremal + (b >= 3 if alpha == 1 else 1)
    keys = ("unmixed", "accessible", "cm")
    if bare:
        # the bare base vertices add one component to ell best cutsets of
        # the copies, so the verdicts are the pendant's own
        verdicts = {
            "unmixed": Verdict(base.is_unmixed, "transfer-from-pendant"),
            "accessible": Verdict(base.is_accessible, "transfer-from-pendant"),
            "cm": Verdict(base.is_cm, "transfer-from-pendant"),
        }
    elif b >= 2:
        both = alpha == 1 and base.is_complete
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
        product_vertices=product_vertices,
        depth_q=depth,
        reg_q=reg,
        dim_q=dim,
        extremal_position=extremal,
        verdicts=verdicts,
        rule=rule,
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
        family, rule, notes = FULL_CORONA, "formula:full-corona", _single_vertex_notes(n, base)
    else:  # one rule for every ell < n; only its label names ell = 1
        family, notes = L_CORONA, ()
        rule = "formula:single-attach" if ell == 1 else "formula:multi-attach"
    return _corona_report(family, rule, n, ell, 1, base, notes, n=n, ell=ell)


def depth_reg_corona_cm_closed(b_graph: Graph, base: BaseInvariants) -> InvariantReport:
    """Depth and regularity for the corona of a clique-path base with an
    arbitrary connected pendant, and the dimension from the base's
    independence number.  A complete base gets the complete-base closed
    forms."""
    if not is_cm_closed(b_graph):
        raise ValueError("base graph is not a clique path")
    b = b_graph.n
    alpha = independence_number(b_graph)
    if alpha == 1:
        rule = "formula:full-corona"
        notes = _single_vertex_notes(b, base) + (
            "complete clique path: complete-base closed forms apply",
        )
    else:
        rule, notes = "formula:cm-closed-corona", ()
    return _corona_report(CM_CLOSED, rule, b, b, alpha, base, notes, b=b)


def depth_reg_corona_path(n: int, base: BaseInvariants) -> InvariantReport:
    """The clique-path corona on the path with ``n`` vertices, which is
    never built: P_1 and P_2 are complete, and alpha(P_n) = ceil(n / 2)."""
    if n < 1:
        raise ValueError("path length must be at least 1")
    return _corona_report(PATH, "formula:path-corona", n, n, (n + 1) // 2, base, (), n=n)

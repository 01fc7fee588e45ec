"""Verification-script emission for computer-algebra systems.

Each script declares the polynomial ring in ``x1..xn, y1..yn``, the binomial
generators ``xi*yj - xj*yi`` (1-based, i < j, ascending edge order) of the
edge ideal, and dimension / depth / regularity / Betti-table queries.
``emit_cas_script`` returns the script as text, byte-stable: identical
inputs yield identical output bytes.
"""

from __future__ import annotations

from typing import Mapping

from .graph import Graph
from .io import to_graph6

DIALECTS = ("m2", "singular")

_EXPECTED_KEY_ORDER = (
    "dim",
    "depth",
    "reg",
    "pd",
    "cmdef",
    "unmixed",
    "accessible",
    "cm",
    "family",
)


def _fmt_expected(expected: Mapping[str, object]) -> list[str]:
    lines = []
    keys = [k for k in _EXPECTED_KEY_ORDER if k in expected]
    keys += sorted(k for k in expected if k not in _EXPECTED_KEY_ORDER)
    for k in keys:
        v = expected[k]
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"expected {k} = {v}")
    return lines


def _generators(g: Graph) -> list[str]:
    return [f"x{u + 1}*y{v + 1}-x{v + 1}*y{u + 1}" for u, v in g.edges()]


def emit_cas_script(
    g: Graph,
    dialect: str = "m2",
    expected: Mapping[str, object] | None = None,
    name: str | None = None,
    graph6: str | None = None,
) -> str:
    """The text of a standalone verification script for the binomial edge
    ideal of ``g`` in the chosen dialect (``m2`` or ``singular``).  A caller
    that holds the graph6 of ``g`` passes it as ``graph6`` to skip encoding
    it again."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r} (choose from {DIALECTS})")
    header = [
        f"binomial edge ideal of {name or 'a graph'} on {g.n} vertices, {g.m} edges",
        f"graph6: {graph6 or to_graph6(g)}",
    ]
    if expected:
        header += _fmt_expected(expected)
    gens = _generators(g)
    xs = ",".join(f"x{i + 1}" for i in range(g.n))
    ys = ",".join(f"y{i + 1}" for i in range(g.n))
    if dialect == "m2":
        return _emit_m2(header, xs, ys, gens)
    return _emit_singular(header, xs, ys, gens, 2 * g.n)


def _emit_m2(header: list[str], xs: str, ys: str, gens: list[str]) -> str:
    lines = [f"-- {h}" for h in header]
    lines.append(f"R = QQ[{xs},{ys}];")
    if gens:
        lines.append("J = ideal(")
        for i, gen in enumerate(gens):
            sep = "," if i + 1 < len(gens) else ");"
            lines.append(f"    {gen}{sep}")
    else:
        lines.append("J = ideal(0_R);")
    lines += [
        "Q = R^1/J;",
        '<< "dim = " << dim Q << endl;',
        '<< "pd = " << pdim Q << endl;',
        '<< "depth = " << (numgens R - pdim Q) << endl;',
        '<< "reg = " << regularity Q << endl;',
        '<< "betti table:" << endl;',
        "<< betti res Q << endl;",
    ]
    return "\n".join(lines) + "\n"


def _emit_singular(
    header: list[str], xs: str, ys: str, gens: list[str], nvars: int
) -> str:
    lines = [f"// {h}" for h in header]
    lines.append(f"ring R = 0, ({xs},{ys}), dp;")
    if gens:
        lines.append("ideal J =")
        for i, gen in enumerate(gens):
            sep = "," if i + 1 < len(gens) else ";"
            lines.append(f"    {gen}{sep}")
    else:
        lines.append("ideal J = 0;")
    lines += [
        "ideal Jstd = std(J);",
        '"dim =", dim(Jstd);',
        "def FR = mres(J, 0);",
        "intmat B = betti(FR);",
        '"pd =", ncols(B) - 1;',
        f'"depth =", {nvars} - (ncols(B) - 1);',
        '"reg =", nrows(B) - 1;',
        '"betti table:";',
        'print(B, "betti");',
        "exit;",
    ]
    return "\n".join(lines) + "\n"

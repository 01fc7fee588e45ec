"""Verification-script emission for computer-algebra systems.

Each script declares the polynomial ring in ``x1..xn, y1..yn``, the binomial
generators ``xi*yj - xj*yi`` (1-based, i < j, ascending edge order) of the
edge ideal, and dimension / depth / regularity / Betti-table queries.
``emit_cas_script`` returns the script as text, byte-stable: identical
inputs yield identical output bytes.

One body renders every dialect from its row of ``_DIALECTS``, and no other
module names a dialect: the CLI offers the keys, ``DIALECTS``, the first
is the default, and a scan names its script files by the row's
``suffix``.  A new dialect is one more row that fills every field of
``_Dialect``: the comment mark, the ring line, the ideal's opening and
closing, the zero ideal, the query lines and the file suffix.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping

from .graph import Graph
from .io import to_graph6


_Dialect = namedtuple("_Dialect", "comment ring ideal_open ideal_close zero_ideal queries suffix")
_Dialect.__doc__ = """One dialect's script text, all str but ``queries``: ``comment`` opens
each header line; ``ring`` declares R in ``{variables}``; ``ideal_open``
is the line before the generators and ``ideal_close`` ends the last one
(the others end in ","); ``zero_ideal`` is J of a graph with no edge;
``queries`` is a tuple of str lines, where ``{nvars}`` is the variable
count; ``suffix`` is a script file's."""


_DIALECTS = {
    "m2": _Dialect(
        "-- ", "R = QQ[{variables}];", "J = ideal(", ");", "J = ideal(0_R);",
        (
            "Q = R^1/J;",
            '<< "dim = " << dim Q << endl;',
            '<< "pd = " << pdim Q << endl;',
            '<< "depth = " << (numgens R - pdim Q) << endl;',
            '<< "reg = " << regularity Q << endl;',
            '<< "betti table:" << endl;',
            "<< betti res Q << endl;",
        ),
        "m2",
    ),
    "singular": _Dialect(
        "// ", "ring R = 0, ({variables}), dp;", "ideal J =", ";", "ideal J = 0;",
        (
            "ideal Jstd = std(J);",
            '"dim =", dim(Jstd);',
            "def FR = mres(J, 0);",
            "intmat B = betti(FR);",
            '"pd =", ncols(B) - 1;',
            '"depth =", {nvars} - (ncols(B) - 1);',
            '"reg =", nrows(B) - 1;',
            '"betti table:";',
            'print(B, "betti");',
            "exit;",
        ),
        "sing",
    ),
}
DIALECTS = tuple(_DIALECTS)

_EXPECTED_KEY_ORDER = ("dim", "depth", "reg", "pd", "cmdef", "unmixed", "accessible", "cm", "family")


def _dialect(name: str | None) -> _Dialect:
    """The row of dialect ``name``, ``DIALECTS[0]`` if None; an unknown name
    is a ValueError."""
    name = DIALECTS[0] if name is None else name
    if name not in _DIALECTS:
        raise ValueError(f"unknown dialect {name!r} (choose from {DIALECTS})")
    return _DIALECTS[name]


def _shown(value: object) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def emit_cas_script(
    g: Graph,
    dialect: str | None = None,
    expected: Mapping[str, object] | None = None,
    name: str | None = None,
    graph6: str | None = None,
) -> str:
    """The text of a standalone verification script for the binomial edge
    ideal of ``g`` in ``dialect``, one of ``DIALECTS`` (the first if None).
    ``expected`` values become comment lines in ``_EXPECTED_KEY_ORDER``,
    and any other key is a ValueError that names it.  A caller that holds
    the graph6 of ``g`` passes it as ``graph6`` to skip encoding it again."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    row = _dialect(dialect)
    expected = expected or {}
    for key in expected:
        if key not in _EXPECTED_KEY_ORDER:
            raise ValueError(f"expected values have an unknown key {key!r}")
    header = [
        f"binomial edge ideal of {name or 'a graph'} on {g.n} vertices, {g.m} edges",
        f"graph6: {graph6 or to_graph6(g)}",
        *(f"expected {k} = {_shown(expected[k])}" for k in _EXPECTED_KEY_ORDER if k in expected),
    ]
    gens = [f"    x{u + 1}*y{v + 1}-x{v + 1}*y{u + 1}," for u, v in g.edges()]
    if gens:
        gens[-1] = gens[-1][:-1] + row.ideal_close
    variables = ",".join(f"{c}{i}" for c in "xy" for i in range(1, g.n + 1))
    lines = [
        *(row.comment + line for line in header),
        row.ring.format(variables=variables),
        *([row.ideal_open, *gens] if gens else [row.zero_ideal]),
        *(query.format(nvars=2 * g.n) for query in row.queries),
    ]
    return "\n".join(lines) + "\n"

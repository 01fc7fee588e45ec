"""The two diameter-reduction wrappers and corpus scanning, filtered by
diameter, for small accessible graphs.

The wrappers embed an arbitrary connected graph into a graph of diameter
exactly 2 (cone over the graph plus an isolated companion) or exactly 3
(triangle with two pendant copies) while transporting accessibility; the
scanner classifies graph6 corpora by diameter and the combinatorial
verdicts, optionally emitting a verification script per accessible graph.
Cohen-Macaulayness is never claimed by the scanner: records carry only
what the cutset combinatorics decides, the scripts cover the rest.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Iterator, NamedTuple

from .cas import emit_cas_script
from .corona import gadget_d2, gadget_d3
from .cutsets import enumeration_bound, is_accessible, unmixed_report
from .graph import Graph, diameter, distances_from
from .io import from_graph6, to_graph6


class ReductionCheck(NamedTuple):
    diameter_ok: bool
    accessible_transfer_ok: bool
    distance_cases_ok: bool | None = None


def _require_accessible(h: Graph, bound: int | None) -> None:
    if not is_accessible(h, bound):
        raise ValueError("pendant graph must be accessible")


def verify_reduction_d2(h: Graph, bound: int | None = None) -> ReductionCheck:
    """For accessible ``h``: the diameter-2 wrapper has diameter exactly 2
    and is accessible again."""
    _require_accessible(h, bound)
    g = gadget_d2(h)
    return ReductionCheck(
        diameter_ok=diameter(g) == 2,
        accessible_transfer_ok=is_accessible(g, bound),
    )


def _expected_d3_distance(h: Graph, u: int, v: int) -> int:
    """Piecewise distance in the diameter-3 wrapper (copies at 0 and 1,
    bare triangle vertex 2, copy of h at 0 first).  The case split refines
    the four-way one: a carrier vertex and the opposite copy sit at
    distance 2, not 1."""
    hn = h.n

    def copy_of(x: int) -> int | None:
        if x < 3:
            return None
        return 0 if x < 3 + hn else 1

    cu, cv = copy_of(u), copy_of(v)
    if cu is not None and cv is not None:
        if cu != cv:
            return 3
        iu = u - 3 - cu * hn
        iv = v - 3 - cv * hn
        return 1 if h.has_edge(iu, iv) else 2
    if cu is None and cv is None:
        return 1  # base triangle
    base, cx = (u, cv) if cu is None else (v, cu)
    if base == 2:
        return 2
    return 1 if base == cx else 2


def _d3_distances_match(h: Graph, g: Graph) -> bool:
    for u in range(g.n):
        du = distances_from(g, u)
        for v in range(u + 1, g.n):
            if du[v] != _expected_d3_distance(h, u, v):
                return False
    return True


def verify_reduction_d3(h: Graph, bound: int | None = None) -> ReductionCheck:
    """For accessible ``h``: the diameter-3 wrapper has diameter exactly 3,
    is accessible again, and its pairwise distances match the piecewise
    formula."""
    _require_accessible(h, bound)
    g = gadget_d3(h)
    return ReductionCheck(
        diameter_ok=diameter(g) == 3,
        accessible_transfer_ok=is_accessible(g, bound),
        distance_cases_ok=_d3_distances_match(h, g),
    )


# ---------------------------------------------------------------------------
# corpus scanning


class ScanRecord(NamedTuple):
    graph6: str
    n: int
    diameter: int | None
    unmixed: bool
    accessible: bool
    cas_script_path: str | None = None

    def to_json(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "diameter": self.diameter,
            "unmixed": self.unmixed,
            "accessible": self.accessible,
            "cas_script_path": self.cas_script_path,
        }


def _analyze_graph6(payload: tuple[str, int | None]) -> tuple[str, int, int | None, bool, bool, int | None]:
    """Worker: canonical graph6, n, diameter (None when disconnected),
    unmixed, accessible, oracle dimension (None when not unmixed)."""
    g6, bound = payload
    g = from_graph6(g6)
    d = diameter(g)
    report = unmixed_report(g, bound=bound)
    return (
        to_graph6(g),
        g.n,
        None if d == math.inf else int(d),
        report is not None,
        report is not None and report.is_accessible,
        None if report is None else report.oracle_dimension,
    )


def bms_scan(
    lines: Iterable[str],
    diameters: set[int] | None = None,
    max_n: int | None = None,
    bound: int | None = None,
    script_dir: str | None = None,
    dialect: str = "m2",
    jobs: int = 1,
    on_error: Callable[[int, str], None] | None = None,
) -> Iterator[ScanRecord]:
    """Scan graph6 lines into ScanRecords, preserving input order.

    Malformed or over-bound lines are reported through ``on_error`` with
    their 1-based line number and skipped; the scan continues.  Graphs above
    ``max_n`` are filtered silently.  When ``script_dir`` is set, each
    accessible graph gets a verification script named after its line number.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    limit = enumeration_bound(bound)

    def report_error(lineno: int, message: str) -> None:
        if on_error is not None:
            on_error(lineno, message)

    todo: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = from_graph6(text)
        except ValueError as exc:
            report_error(lineno, str(exc))
            continue
        if max_n is not None and g.n > max_n:
            continue
        if g.n > limit:
            report_error(lineno, f"{g.n} vertices exceeds the enumeration bound {limit}")
            continue
        todo.append((lineno, to_graph6(g)))

    payloads = [(g6, limit) for _, g6 in todo]
    if jobs > 1 and len(payloads) > 1:
        # imported here, so that the calls that start no pool skip its import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_analyze_graph6, payloads, chunksize=8))
    else:
        results = [_analyze_graph6(p) for p in payloads]

    for (lineno, _), (g6, n, diam, unmixed, accessible, dim) in zip(todo, results):
        if diameters is not None and (diam is None or diam not in diameters):
            continue
        script_path = None
        if accessible and script_dir is not None:
            ext = "m2" if dialect == "m2" else "sing"
            script_path = os.path.join(script_dir, f"{lineno:06d}.{ext}")
            expected = {"dim": dim, "unmixed": unmixed, "accessible": accessible}
            script = emit_cas_script(
                from_graph6(g6), dialect=dialect, expected=expected, name=f"scan line {lineno}"
            )
            os.makedirs(script_dir, exist_ok=True)
            with open(script_path, "w", encoding="ascii") as fh:
                fh.write(script.text)
        yield ScanRecord(g6, n, diam, unmixed, accessible, script_path)

"""The two diameter-reduction wrappers and corpus scanning, filtered by
diameter, for small accessible graphs.

The wrappers embed an arbitrary connected graph into a graph of diameter
exactly 2 (cone over the graph plus an isolated companion) or exactly 3
(triangle with two pendant copies) while transporting accessibility; the
scanner classifies graph6 corpora by diameter and the combinatorial
verdicts, optionally emitting a verification script per accessible graph.
Cohen-Macaulayness is never claimed by the scanner: records carry only
what the cutset combinatorics decides, the scripts cover the rest.

A scan works in-process first, even when it may use a process pool: the
pool costs about 0.1 s to import and start, and most graphs that are not
unmixed are settled before the cutset search, so a corpus of random graphs
on up to 16 vertices was analysed faster in-process at every size measured.
The pool pays on graphs that take about 0.1 s each, such as long paths,
whose cutset search cannot stop early.  The cost of a graph cannot be read
off beforehand (2^(candidates) overstates it by far, because the verdicts
stop at the first unmixedness violation), so the scan
measures the time it has spent and hands the rest of the corpus to the pool
only once that time passes a measured threshold.  Time spent does not tell
the work left, so the threshold bounds what a pool started too late can
lose rather than promising a gain.
"""

from __future__ import annotations

import functools
import math
import os
import time
from typing import Callable, Iterable, Iterator, NamedTuple

from .cas import emit_cas_script
from .corona import gadget_d2, gadget_d3
from .cutsets import check_bound, enumeration_bound, is_accessible, unmixed_report
from .graph import Graph, diameter, distances_from
from .io import canonical_graph6, from_graph6


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


# In-process analysis time after which a scan with jobs > 1 hands the rest
# of its corpus to a process pool.  Median wall seconds of five
# `scan --jobs 2` runs (`scan --jobs 1` for in-process) on a 2-core Xeon:
#
#     corpus                               in-process   pool after the   this
#                                                       first graph      threshold
#     random-scan seed 1 x4  (800 graphs)     0.23          0.31            0.22
#                        x8  (1600)           0.33          0.46            0.35
#                        x16 (3200)           0.54          0.63            0.52
#                        x32 (6400)           1.00          1.36            1.16
#     60 relabelled paths, 17-22 vertices     6.87          4.03            4.65
#
# The random-scan graphs (12-16 vertices, density 0.25) take about 0.15 ms
# each, and there the pool never won: started after 0.5 s it costs about a
# sixth of the run.  On the paths, about 0.1 s each, it saves about 40%, and
# waiting for 0.5 s of in-process work gives up a fifth of that.
_POOL_AFTER_S = 0.5


def _analyze(g: Graph, bound: int) -> tuple[bool, bool, int | None]:
    """Unmixed, accessible, and the oracle dimension (None when not
    unmixed)."""
    report = unmixed_report(g, bound=bound)
    return (
        report is not None,
        report is not None and report.is_accessible,
        None if report is None else report.oracle_dimension,
    )


class _AboveMaxN(Exception):
    """A graph6 line above a scan's ``max_n``: skipped without a record or
    an error, before its body is decoded."""


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


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
    ``max_n``, and graphs whose diameter (None when disconnected) is not in
    ``diameters``, are filtered silently before their verdicts are computed.
    When ``script_dir`` is set, each accessible graph gets a verification
    script named after its line number.  Both name the graph by the
    validated line's canonical text, ``to_graph6`` of its graph.

    Each line is parsed once and its graph analysed in-process.  ``jobs`` is
    an upper bound on the worker processes: only once the in-process
    analysis has taken ``_POOL_AFTER_S`` seconds, and only if at least two
    workers would run (no more than ``jobs``, the usable CPUs or the graphs
    left), does the rest of the corpus go to a pool.  A pooled graph goes to
    its worker as the parsed ``Graph``, which pickles through its adjacency
    rows, so no line is parsed twice.  Records and scripts are the same at
    every ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    limit = enumeration_bound(bound)

    def check_n(n: int) -> None:
        if max_n is not None and n > max_n:
            raise _AboveMaxN
        check_bound(n, limit)

    def parsed() -> Iterator[tuple[int, Graph, str, int | None]]:
        for lineno, raw in enumerate(lines, 1):
            text = raw.strip()
            if not text:
                continue
            try:
                g = from_graph6(text, check_n)
            except _AboveMaxN:
                continue
            except ValueError as exc:
                if on_error is not None:
                    on_error(lineno, str(exc))
                continue
            d = diameter(g)
            diam = None if d == math.inf else int(d)
            if diameters is None or diam in diameters:
                yield lineno, g, canonical_graph6(text, g.n), diam

    def record(lineno: int, g6: str, g: Graph, diam: int | None, result: tuple) -> ScanRecord:
        unmixed, accessible, dim = result
        script_path = None
        if accessible and script_dir is not None:
            ext = "m2" if dialect == "m2" else "sing"
            script_path = os.path.join(script_dir, f"{lineno:06d}.{ext}")
            expected = {"dim": dim, "unmixed": unmixed, "accessible": accessible}
            script = emit_cas_script(
                g, dialect=dialect, expected=expected, name=f"scan line {lineno}", graph6=g6
            )
            os.makedirs(script_dir, exist_ok=True)
            with open(script_path, "w", encoding="ascii") as fh:
                fh.write(script)
        return ScanRecord(g6, g.n, diam, unmixed, accessible, script_path)

    workers = min(jobs, _usable_cpus())
    graphs = parsed()
    spent = 0.0
    for lineno, g, g6, diam in graphs:
        if workers > 1 and spent > _POOL_AFTER_S:
            rest = [(lineno, g, g6, diam), *graphs]
            if len(rest) > 1:  # a single graph left is not worth a worker
                # imported here, so that the scans that start no pool skip its import
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=min(workers, len(rest))) as pool:
                    analyze = functools.partial(_analyze, bound=limit)
                    results = pool.map(analyze, [h for _, h, _, _ in rest], chunksize=8)
                    for (lineno, h, g6, diam), result in zip(rest, results):
                        yield record(lineno, g6, h, diam, result)
                return
        started = time.perf_counter()
        result = _analyze(g, limit)
        spent += time.perf_counter() - started
        yield record(lineno, g6, g, diam, result)

"""The diameter-reduction wrappers and corpus scanning, filtered by
diameter, for small accessible graphs.

The wrappers form one family: for d in {2, 3}, K_d with a pendant copy of
a connected graph H at each of its first d-1 vertices, the L-corona that
``corona.gadget(h, d)`` builds.  It has diameter exactly d (for d = 2 it
is the cone over H plus an isolated companion) and transports
accessibility; ``verify_reduction_d2`` and ``verify_reduction_d3`` check
both claims, and every distance, through one body.
The scanner classifies graph6 corpora by diameter and the combinatorial
verdicts, optionally writing verification scripts for accessible graphs on
at least one vertex.
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
lose rather than promising a gain.  The pool takes the rest in batches, so
a pooled scan holds one batch of the corpus at a time, not all of it.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import namedtuple
from itertools import islice
from typing import Callable, Iterable, Iterator

from .cas import _dialect, emit_cas_script
from .corona import _gadget_spec, l_corona
from .cutsets import check_bound, is_accessible, unmixed_report
from .graph import Graph, diameter, distances_from
from .io import canonical_graph6, from_graph6


ReductionCheck = namedtuple(
    "ReductionCheck", "gadget_vertices diameter_ok accessible_transfer_ok distance_cases_ok"
)
ReductionCheck.__doc__ = """The checks of one diameter wrapper: ``gadget_vertices`` (int), and
``diameter_ok``, ``accessible_transfer_ok`` and ``distance_cases_ok``
(bool each)."""


def _verify(h: Graph, d: int, bound: int | None) -> ReductionCheck:
    """For accessible ``h``: the diameter-``d`` wrapper has diameter ``d``,
    is accessible, and keeps the L-corona-over-K_d distances (1 inside K_d;
    1 from a base vertex to its own copy, 2 to another; 1 or 2 inside a
    copy, as ``h`` has the edge; 3 between copies), all read off one BFS
    table.  An empty or disconnected pendant, or a wrapper above ``bound``,
    is refused before any cutset search."""
    spec = _gadget_spec(h, d)
    check_bound(spec.product_vertices, bound)
    if not is_accessible(h, bound):
        raise ValueError("pendant graph must be accessible")
    g = l_corona(spec)
    table = [distances_from(g, u) for u in range(g.n)]

    def expected(u: int, v: int) -> int:  # u < v; copy r hangs at vertex r
        if v < d:
            return 1
        cv, iv = divmod(v - d, h.n)
        if u < d:
            return 1 if u == cv else 2
        cu, iu = divmod(u - d, h.n)
        if cu != cv:
            return 3
        return 1 if h.has_edge(iu, iv) else 2

    return ReductionCheck(
        gadget_vertices=g.n,
        diameter_ok=max(map(max, table)) == d,
        accessible_transfer_ok=is_accessible(g, bound),
        distance_cases_ok=all(
            table[u][v] == expected(u, v) for u in range(g.n) for v in range(u + 1, g.n)
        ),
    )


def verify_reduction_d2(h: Graph, bound: int | None = None) -> ReductionCheck:
    """``_verify`` of the diameter-2 wrapper."""
    return _verify(h, 2, bound)


def verify_reduction_d3(h: Graph, bound: int | None = None) -> ReductionCheck:
    """``_verify`` of the diameter-3 wrapper."""
    return _verify(h, 3, bound)


# ---------------------------------------------------------------------------
# corpus scanning


ScanRecord = namedtuple(
    "ScanRecord", "graph6 n diameter unmixed accessible cas_script_path", defaults=(None,)
)
ScanRecord.__doc__ = """One scanned graph: ``graph6`` (str), ``n`` (int), ``diameter`` (int, or
None when disconnected), ``unmixed`` and ``accessible`` (bool) and
``cas_script_path`` (str, or None when no script was written)."""


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
_POOL_BATCH = 256  # graphs a pooled scan parses ahead of their records


def _analyze(g: Graph, bound: int | None) -> tuple[bool, bool, int | None]:
    """Unmixed, accessible, and the oracle dimension (None when not
    unmixed)."""
    report = unmixed_report(g, bound=bound)
    if report is None:
        return False, False, None
    return True, report.is_accessible_system, report.oracle_dimension


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
    dialect: str | None = None,
    jobs: int = 1,
    on_error: Callable[[int, str], None] | None = None,
) -> Iterator[ScanRecord]:
    """Scan graph6 lines into ScanRecords, preserving input order.

    Malformed or over-bound lines are reported through ``on_error`` with
    their 1-based line number and skipped; the scan continues.  Graphs above
    ``max_n``, and graphs whose diameter (None when disconnected) is not in
    ``diameters``, are filtered silently before their verdicts are computed.
    When ``script_dir`` is set, it gets ``dialect`` scripts (the default if
    None) for accessible graphs on at least one vertex, named by line number
    and the dialect's suffix (the empty graph's record has no
    ``cas_script_path``).  Both name the graph by the validated line's
    canonical text, ``to_graph6`` of its graph.

    Each line is parsed once and its graph analysed in-process.  ``jobs`` is
    an upper bound on the worker processes: only once the in-process
    analysis has taken ``_POOL_AFTER_S`` seconds, and only if at least two
    workers would run (no more than ``jobs``, the usable CPUs or the graphs
    left in the first batch), does the rest of the corpus go to a pool, in
    batches of ``_POOL_BATCH`` graphs, each drawn from ``lines`` after the
    previous batch's records are yielded.  A pooled graph goes to its worker
    as the parsed ``Graph``, which pickles through its adjacency rows, so no
    line is parsed twice.  Records and scripts are the same at every ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    check_bound(0, bound)  # a negative bound is refused once, before any line
    suffix = _dialect(dialect).suffix  # and so is an unknown dialect

    def check_n(n: int) -> None:
        if max_n is not None and n > max_n:
            raise _AboveMaxN
        check_bound(n, bound)

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
        if accessible and script_dir is not None and g.n:
            script_path = os.path.join(script_dir, f"{lineno:06d}.{suffix}")
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
            batch = [(lineno, g, g6, diam), *islice(graphs, _POOL_BATCH - 1)]
            if len(batch) > 1:  # a single graph left is not worth a worker
                # imported here, so that the scans that start no pool skip its import
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=min(workers, len(batch))) as pool:
                    analyze = functools.partial(_analyze, bound=bound)
                    while batch:
                        results = pool.map(analyze, [h for _, h, _, _ in batch], chunksize=8)
                        for (lineno, h, g6, diam), result in zip(batch, results):
                            yield record(lineno, g6, h, diam, result)
                        batch = list(islice(graphs, _POOL_BATCH))
                return
        started = time.perf_counter()
        result = _analyze(g, bound)
        spent += time.perf_counter() - started
        yield record(lineno, g6, g, diam, result)

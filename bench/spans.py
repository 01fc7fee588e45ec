"""In-memory span recorder for the traced run.

Spans are taken around the public functions of each ``bei`` layer by
rebinding the function's name in every ``bei.*`` module namespace that
holds it, so the copies that ``from .x import y`` made are wrapped too.
Nothing in the library is edited.  A generator function gets one span per
resumption, so its spans cover exhausting the generator while leaving out
the time its consumer spends between items.  Hot helpers (``_components``,
``members``, ``iter_members``) are not wrapped: wrapping them would swamp
the timings.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name); the layer is the span name's first part
TARGETS = (
    ("bei.io", "from_graph6", "io.from_graph6"),
    ("bei.io", "to_graph6", "io.to_graph6"),
    ("bei.graph", "diameter", "graph.diameter"),
    ("bei.graph", "distances_from", "graph.distances_from"),
    ("bei.cutsets", "iter_cutsets", "cutsets.iter_cutsets"),
    ("bei.cutsets", "enumerate_cutsets", "cutsets.enumerate_cutsets"),
    ("bei.cutsets", "dimension_oracle", "invariants.dimension_oracle"),
    ("bei.corona", "l_corona", "corona.l_corona"),
    ("bei.invariants", "base_invariants_block_graph", "invariants.base_invariants_block_graph"),
    ("bei.invariants", "depth_reg_corona_complete", "invariants.depth_reg_corona_complete"),
    ("bei.invariants", "depth_reg_corona_cm_closed", "invariants.depth_reg_corona_cm_closed"),
    ("bei.invariants", "depth_reg_corona_path", "invariants.depth_reg_corona_path"),
    ("bei.bms", "bms_scan", "bms.bms_scan"),
    ("bei.bms", "verify_reduction_d2", "bms.verify_reduction_d2"),
    ("bei.bms", "verify_reduction_d3", "bms.verify_reduction_d3"),
    ("bei.cas", "emit_cas_script", "cas.emit_cas_script"),
    ("bei.cli", "main", "cli.main"),
)

# span names whose first positional argument is kept for work counts
KEEP_FIRST_ARG = frozenset({"cutsets.iter_cutsets"})


class Recorder:
    """Spans as ``[name, start_ns, end_ns, parent_index]`` lists, plus call
    and yield counts.  ``install`` puts the wrappers in and ``uninstall``
    takes them out again."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()
        self.first_args: dict[str, list] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        spans, stack, clock, calls = self.spans, self.stack, self.clock, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _wrap_generator(self, name: str, fn):
        keep = name in KEEP_FIRST_ARG

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if keep:
                self.first_args[name].append(args[0])
            return self._drive(name, fn(*args, **kwargs))

        return wrapper

    def _drive(self, name: str, gen):
        spans, stack, clock, yields = self.spans, self.stack, self.clock, self.yields
        try:
            while True:
                idx = len(spans)
                spans.append([name, clock(), 0, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
                yields[name] += 1
                yield item
        finally:
            gen.close()

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bei" or n.startswith("bei.")]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        while self._undo:
            mod, key, original = self._undo.pop()
            setattr(mod, key, original)


def self_times(spans) -> dict[str, int]:
    """Total self time per span name: each span's duration minus the part of
    its interval that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        totals[name] += end - start - covered
    return dict(totals)

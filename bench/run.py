"""Benchmark of the ``bei`` command-line tool.

One run measures one workload for ``--seconds`` seconds and prints, as the
last line of standard output, ``{"correct", "attempted", "failed",
"metrics"}``.  The lines before it hold the run's details and provenance,
and a table of the metrics.

With ``--trace 0`` a single client calls ``python -m bei.cli`` as a closed
loop: each call starts after the previous one exits.  With ``--trace 1``
the benchmark imports ``bei``, wraps each layer's public functions in spans
and calls ``bei.cli.main(argv)`` in-process with ``--jobs 1``, alternating
untraced and traced passes.  Every call's output is checked, after the
timed passes, by ``checker``, which does not use ``bei``.

All times are scaled to a reference speed: see ``ReferenceClock``.

Usage, from the root of a checkout:
    python3 bench/run.py --workload atlas-scan --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Recorder, self_times
from workloads import DATA, PLANS, output_files

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

IMPORT_SAMPLES_PER_ROUND = 4
IMPORT_SAMPLES_TRACED = 15
START_SAMPLES = 9
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
REF_LOOP = 100_000  # iterations of the reference loop
# the reference speed that all times are scaled to: the loop's time and a
# bare interpreter's start-up time on the reference machine
REF_LOOP_S = 0.008
REF_START_S = 0.050

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "graphs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "import_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "io.from_graph6.calls": "count",
    "io.from_graph6.self_ms": "ms",
    "io.to_graph6.calls": "count",
    "io.parses_per_graph": "1/graph",
    "graph.diameter.calls": "count",
    "graph.distances_from.calls": "count",
    "cutsets.iter_cutsets.calls": "count",
    "cutsets.iter_cutsets.self_ms": "ms",
    "cutsets.enumerate_cutsets.self_ms": "ms",
    "cutsets.enumerations_per_graph": "1/graph",
    "cutsets.naive_subsets": "count",
    "cutsets.found": "count",
    "cutsets.found_per_naive_subset": "ratio",
    "cutsets.ns_per_naive_subset": "ns",
    "corona.l_corona.calls": "count",
    "invariants.dimension_oracle.calls": "count",
    "bms.bms_scan.calls": "count",
    "bms.verify_reduction.calls": "count",
    "cas.emit_cas_script.calls": "count",
    "cas.bytes": "bytes",
    "cli.main.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "import.bei.graph_ms": "ms",
    "import.bei.bms_ms": "ms",
    "import.bei.cli_ms": "ms",
    "proc.python_start_ms": "ms",
    "trace.overhead_frac": "frac",
}


def reference_seconds() -> tuple[float, float]:
    """The median time of three runs of a fixed pure-Python loop, and the
    time of one start of a bare interpreter."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], cwd=ROOT, check=True)
    return statistics.median(times), time.perf_counter() - t0


@dataclass
class Timing:
    raw: float = 0.0  # seconds as measured
    scale: float = 1.0  # the reference speed over the speed measured around the block

    @property
    def seconds(self) -> float:
        return self.raw * self.scale


class ReferenceClock:
    """Times blocks of work and scales them to the reference speed.

    On a shared host the CPU's speed drifts by tens of percent within a
    minute, and the drift moves every timing alike.  The reference loop and
    a bare interpreter's start are timed before and after each block.  The
    block's time is multiplied by the geometric mean of REF_LOOP_S over the
    loop's mean time and REF_START_S over the start's mean time.  Raw times
    go into the detail line."""

    def __init__(self):
        self.last = reference_seconds()
        self.references = [self.last]

    @contextlib.contextmanager
    def block(self):
        timing = Timing()
        before = self.last
        t0 = time.perf_counter()
        yield timing
        timing.raw = time.perf_counter() - t0
        self.last = reference_seconds()
        self.references.append(self.last)
        loop = (before[0] + self.last[0]) / 2
        start = (before[1] + self.last[1]) / 2
        timing.scale = math.sqrt(REF_LOOP_S / loop * REF_START_S / start)


@dataclass
class CallResult:
    key: str
    wall: float  # raw seconds
    cpu: float  # raw seconds
    maxrss_kb: int
    rc: int
    stdout: bytes
    outputs: str = ""  # digest of the files the call wrote
    scale: float = 1.0  # the Timing scale of the call


@dataclass
class PassResult:
    calls: list[CallResult]
    directory: Path

    @property
    def raw(self) -> float:
        return sum(r.wall for r in self.calls)

    @property
    def seconds(self) -> float:
        return sum(r.wall * r.scale for r in self.calls)

    @property
    def scale(self) -> float:
        return self.seconds / self.raw


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# Reads one JSON request per line, runs it to completion and answers with
# wall seconds, CPU seconds of the process and the children it waited for,
# max RSS in KiB and the exit code.
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code]), flush=True)
"""


class Cli:
    """Runs ``python -m bei.cli`` calls through a launcher process.

    A child's max RSS counts the memory of the process that forked it, so a
    call started straight from the benchmark, with networkx and the inputs
    loaded, would report the benchmark's size.  The launcher is a bare
    interpreter, smaller than any CLI call."""

    def __init__(self):
        self.env = cli_env()
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True,
        )

    def run(self, argv: list[str], cwd: Path) -> CallResult:
        out_path = cwd / ".stdout"
        request = {
            "argv": [sys.executable, "-m", "bei.cli", *argv],
            "cwd": str(cwd),
            "stdout": str(out_path),
            "stderr": str(cwd / ".stderr"),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        wall, cpu, maxrss_kb, rc = json.loads(self.launcher.stdout.readline())
        return CallResult(argv[0], wall, cpu, maxrss_kb, rc, out_path.read_bytes())

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()


def outputs_digest(directory: Path, outputs: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for p in output_files(directory, outputs):
        h.update(str(p.relative_to(directory)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    return {"value": ordered[n - TAIL_BEYOND - 1], "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


def jobs_variant(argv: list[str], jobs: int) -> list[str]:
    out = list(argv)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = str(jobs)
    return out


# ---------------------------------------------------------------------------
# measurements shared by both modes


def import_sample(env: dict[str, str]) -> dict[str, float]:
    """Cumulative import time, in raw ms, of each ``bei`` module from one
    ``python -X importtime -c "import bei.cli"``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import bei.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    times = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("bei"):
            times[parts[2].strip()] = int(parts[1]) / 1000.0
    return times


def import_samples(clock: ReferenceClock, env: dict[str, str], count: int) -> list[dict[str, float]]:
    """``count`` import samples, each scaled to the reference speed."""
    samples = []
    for _ in range(count):
        with clock.block() as timing:
            sample = import_sample(env)
        samples.append({k: v * timing.scale for k, v in sample.items()})
    return samples


def median_by_key(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def python_start_ms(clock: ReferenceClock, env: dict[str, str]) -> float:
    """Median start-up time of a bare interpreter, in ms."""
    times = []
    for _ in range(START_SAMPLES):
        with clock.block() as timing:
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        times.append(timing.seconds * 1000.0)
    return statistics.median(times)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int, start_ms: float, clock: ReferenceClock) -> dict:
    src = hashlib.sha256()
    for p in sorted((SRC / "bei").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "proc.python_start_ms": start_ms,
        "reference": {
            "loop_iterations": REF_LOOP,
            "loop_s": REF_LOOP_S,
            "start_s": REF_START_S,
            "loop_median_s": statistics.median(r[0] for r in clock.references),
            "start_median_s": statistics.median(r[1] for r in clock.references),
            "samples": len(clock.references),
        },
    }


@dataclass
class SetUp:
    generate: Timing  # the benchmark's own input generation
    warmup: Timing  # the warm-up call of ``bei``

    @property
    def raw(self) -> float:
        return self.generate.raw + self.warmup.raw

    @property
    def seconds(self) -> float:
        return self.generate.seconds + self.warmup.seconds


def set_up(name: str, seed: int, inputs: Path, cli: Cli, clock: ReferenceClock):
    """Build the inputs in a fresh directory and make the warm-up call, each
    timed as a block of its own.  Returns the plan and the SetUp."""
    inputs.mkdir(parents=True)
    with clock.block() as generate:
        plan = PLANS[name](inputs, seed)
    with clock.block() as warmup:
        warm = cli.run(plan.warmup, inputs)
    if warm.rc != 0:
        raise RuntimeError(f"warm-up call failed: bei {' '.join(plan.warmup)}")
    return plan, SetUp(generate, warmup)


def check_passes(plan, passes: list[PassResult]) -> tuple[int, int, list[str]]:
    """Check the first pass's outputs in full and every later pass against
    the first, byte for byte.  Returns attempted, failed and the problems."""
    by_key = {c.key: c for c in plan.calls}
    first = {r.key: r for r in passes[0].calls}
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        for r in p.calls:
            attempted += 1
            if r.rc != 0:
                bad = [f"exit code {r.rc}"]
            elif p is passes[0]:
                try:
                    bad = by_key[r.key].check(r.stdout, p.directory)
                except Exception as exc:  # output the checker cannot read
                    bad = [f"check raised {type(exc).__name__}: {exc}"]
            elif (r.stdout, r.outputs) != (first[r.key].stdout, first[r.key].outputs):
                bad = ["output differs from the first pass"]
            else:
                bad = []
            if bad:
                failed += 1
                problems += [f"{r.key}: {b}" for b in bad[:3]]
    return attempted, failed, problems


def measure(plan, seconds, work, clock, call, min_passes=1, around=None, between=None) -> list[PassResult]:
    """Timed passes until ``seconds`` have gone by.  A pass runs the plan's
    calls in their listed order; its time is the sum of its calls' times,
    each scaled on its own.  ``call(call, dir)`` runs one call and returns
    its CallResult; ``around(index)``, when given, returns a context manager
    entered around the pass; ``between(index)``, when given, runs after each
    pass."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        directory = work / f"pass{len(passes)}"
        directory.mkdir()
        results = []
        with around(len(passes)) if around else contextlib.nullcontext():
            for c in plan.calls:
                with clock.block() as timing:
                    r = call(c, directory)
                r.key, r.scale = c.key, timing.scale
                results.append(r)
        for c, r in zip(plan.calls, results):
            r.outputs = outputs_digest(directory, c.outputs)
        passes.append(PassResult(results, directory))
        if between:
            between(len(passes) - 1)
    return passes


# ---------------------------------------------------------------------------
# untraced run: CLI processes


def run_untraced(name: str, seed: int, seconds: float, work: Path, clock: ReferenceClock, cli: Cli) -> dict:
    plan, first = set_up(name, seed, work / "inputs", cli, clock)
    setups = [first]
    imports: list[dict[str, float]] = []

    # set-up and import samples are taken between the passes, so that every
    # metric's samples spread over the same stretch of time
    def between(index: int) -> None:
        setups.append(set_up(name, seed, work / f"inputs-again{index}", cli, clock)[1])
        imports.extend(import_samples(clock, cli.env, IMPORT_SAMPLES_PER_ROUND))

    passes = measure(plan, seconds, work, clock, lambda c, d: cli.run(c.argv, d), between=between)
    attempted, failed, problems = check_passes(plan, passes)
    wall_s = statistics.median(p.seconds for p in passes)
    detail: dict = {}
    for c in plan.calls:
        if jobs_variant(c.argv, 1) != c.argv:
            # a parallel scan must give the serial scan's bytes
            serial = work / "serial"
            serial.mkdir()
            with clock.block() as timing:
                result = cli.run(jobs_variant(c.argv, 1), serial)
            attempted += 1
            if result.rc != 0 or result.stdout != passes[0].calls[0].stdout:
                failed += 1
                problems.append(f"{c.key}: --jobs 1 output differs from the parallel output")
            detail["serial_wall_s"] = result.wall * timing.scale
            detail["bms.parallel_speedup"] = detail["serial_wall_s"] / wall_s

    latencies = [r.wall * r.scale * 1000.0 for p in passes for r in p.calls]
    per_call: dict[str, list[float]] = {}
    for p in passes:
        for r in p.calls:
            per_call.setdefault(r.key, []).append(r.wall * r.scale * 1000.0)
    call_ms = {k: statistics.median(v) for k, v in per_call.items()}
    imports_ms = median_by_key(imports)
    metrics = {
        "setup_s": statistics.median(t.seconds for t in setups),
        "wall_s": wall_s,
        "cpu_s": statistics.median(sum(r.cpu * r.scale for r in p.calls) for p in passes),
        "graphs_per_s": plan.graphs / wall_s,
        # a median over the calls' own medians: a pass's median call falls
        # between a cheap and a costly product on corona-cutsets, and jumps
        "latency_p50_ms": statistics.median(call_ms.values()),
        "import_ms": imports_ms["bei.cli"],
        "peak_rss_mb": statistics.median(max(r.maxrss_kb for r in p.calls) / 1024.0 for p in passes),
    }
    detail.update(
        {
            "passes": len(passes),
            "calls": len(latencies),
            "graphs_per_pass": plan.graphs,
            "calls_per_pass": len(plan.calls),
            "latency_tail_ms": tail(latencies),
            "latency_ms_by_call": call_ms,
            "error_rate": failed / attempted,
            "import_ms_by_module": imports_ms,
            "import_samples": len(imports),
            "setup_s_samples": [t.seconds for t in setups],
            "setup_generate_s": statistics.median(t.generate.seconds for t in setups),
            "setup_warmup_s": statistics.median(t.warmup.seconds for t in setups),
            "wall_s_samples": [p.seconds for p in passes],
            "raw": {
                "setup_s": statistics.median(t.raw for t in setups),
                "wall_s": statistics.median(p.raw for p in passes),
            },
            "problems": problems[:20],
        }
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "units": END_TO_END_UNITS, "detail": detail}


# ---------------------------------------------------------------------------
# traced run: in-process calls with spans


def run_traced(name: str, seed: int, seconds: float, work: Path, clock: ReferenceClock, cli: Cli) -> dict:
    plan, setup = set_up(name, seed, work / "inputs", cli, clock)
    sys.path.insert(0, str(SRC))
    import bei.cli

    if Path(bei.__file__).resolve().parent != SRC / "bei":
        raise RuntimeError(f"imported bei from {bei.__file__}, not from {SRC}")
    scan_argv = next((c.argv for c in plan.calls if "--jobs" in c.argv), None)
    for c in plan.calls:
        c.argv = jobs_variant(c.argv, 1)

    def call(c, directory: Path) -> CallResult:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(directory)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = bei.cli.main(c.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:  # a crash counts as a failed call, like a traceback from the CLI
            rc = 1
        finally:
            wall = time.perf_counter() - t0
            os.chdir(cwd)
        return CallResult(c.key, wall, 0.0, 0, rc, out.getvalue().encode())

    warm = work / "warm"
    warm.mkdir()
    for c in plan.calls:
        call(c, warm)

    # odd passes are traced, each with a recorder of its own; a pass's spans
    # stay in memory until it ends, and are then reduced to its figures
    summaries: dict[int, dict] = {}
    last_spans: list = []

    @contextlib.contextmanager
    def around(index: int):
        nonlocal last_spans
        if index % 2 == 0:
            yield
            return
        rec = Recorder()
        rec.install()
        try:
            yield
        finally:
            rec.uninstall()
        summaries[index] = summarize(rec)
        last_spans = rec.spans

    passes = measure(plan, seconds, work, clock, call, min_passes=2, around=around)
    per_pass = [figures(summary, passes[i], plan) for i, summary in summaries.items()]

    attempted, failed, problems = check_passes(plan, passes)
    if name == "corona-cutsets":
        expected = json.loads((DATA / "corona_products.json").read_text())
        want = sum(v["cutsets"] for v in expected.values())
        for fig in per_pass:
            attempted += 1
            if fig["cutsets.found"] != want:
                failed += 1
                problems.append(f"cutsets.found {fig['cutsets.found']} != {want}")

    imports = median_by_key(import_samples(clock, cli.env, IMPORT_SAMPLES_TRACED))
    untraced_wall = statistics.median(p.seconds for i, p in enumerate(passes) if i not in summaries)
    traced_wall = statistics.median(p.seconds for i, p in enumerate(passes) if i in summaries)
    keys = sorted({k for f in per_pass for k in f})
    fig = {k: statistics.median(f.get(k, 0) for f in per_pass) for k in keys}
    metrics = layer_metrics(fig, plan.graphs, imports)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    for key, value in metrics.items():
        if PER_LAYER_UNITS[key] in ("count", "bytes") and value == int(value):
            metrics[key] = int(value)
    self_ms = {k: v for k, v in fig.items() if k.endswith(".self_ms")}
    self_ms["invariants.depth_reg.self_ms"] = sum(v for k, v in self_ms.items() if k.startswith("invariants.depth_reg_"))
    self_ms["bms.verify_reduction.self_ms"] = sum(v for k, v in self_ms.items() if k.startswith("bms.verify_reduction_"))
    detail: dict = {}
    if scan_argv is not None:
        detail["bms.parallel_speedup"] = parallel_speedup(scan_argv, cli, work, clock)
    detail.update(
        {
            "passes": len(passes),
            "traced_passes": len(per_pass),
            "graphs_per_pass": plan.graphs,
            "calls_per_pass": len(plan.calls),
            "setup_s": setup.seconds,
            "setup_generate_s": setup.generate.seconds,
            "setup_warmup_s": setup.warmup.seconds,
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "self_ms": self_ms,
            "calls": {k: v for k, v in fig.items() if k.endswith(".calls")},
            "computed": ["cutsets.naive_subsets", "cutsets.found_per_naive_subset", "cutsets.ns_per_naive_subset"],
            "error_rate": failed / attempted,
            "import_ms_by_module": imports,
            "problems": problems[:20],
        }
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": PER_LAYER_UNITS,
        "detail": detail,
        "spans": last_spans,
    }


def summarize(recorder: Recorder) -> dict:
    """One traced pass's spans reduced to self time (raw ms) and calls per
    span name, and the enumerator's work counts."""
    from bei.graph import simplicial_vertices

    summary: dict[str, float] = {}
    for name, ns in self_times(recorder.spans).items():
        summary[f"{name}.self_ms"] = ns / 1e6
    for name, count in recorder.calls.items():
        summary[f"{name}.calls"] = count
    summary["cutsets.found"] = recorder.yields["cutsets.iter_cutsets"]
    summary["cutsets.naive_subsets"] = sum(
        1 << (g.full_mask & ~simplicial_vertices(g)).bit_count()
        for g in recorder.first_args["cutsets.iter_cutsets"]
    )
    return summary


def figures(summary: dict, done: PassResult, plan) -> dict:
    """A traced pass's figures: its summary with self times scaled like the
    pass, and the bytes its calls wrote."""
    fig = {k: v * done.scale if k.endswith(".self_ms") else v for k, v in summary.items()}
    fig["cli.output_bytes"] = sum(len(r.stdout) for r in done.calls)
    fig["cas.bytes"] = sum(
        p.stat().st_size for c in plan.calls for p in output_files(done.directory, c.outputs)
    )
    return fig


def layer_metrics(fig: dict[str, float], graphs: int, imports: dict[str, float]) -> dict[str, float]:
    def get(key: str) -> float:
        return fig.get(key, 0)

    naive = get("cutsets.naive_subsets")
    return {
        "io.from_graph6.calls": get("io.from_graph6.calls"),
        "io.from_graph6.self_ms": get("io.from_graph6.self_ms"),
        "io.to_graph6.calls": get("io.to_graph6.calls"),
        "io.parses_per_graph": get("io.from_graph6.calls") / graphs,
        "graph.diameter.calls": get("graph.diameter.calls"),
        "graph.distances_from.calls": get("graph.distances_from.calls"),
        "cutsets.iter_cutsets.calls": get("cutsets.iter_cutsets.calls"),
        "cutsets.iter_cutsets.self_ms": get("cutsets.iter_cutsets.self_ms"),
        "cutsets.enumerate_cutsets.self_ms": get("cutsets.enumerate_cutsets.self_ms"),
        "cutsets.enumerations_per_graph": get("cutsets.iter_cutsets.calls") / graphs,
        "cutsets.naive_subsets": naive,
        "cutsets.found": get("cutsets.found"),
        "cutsets.found_per_naive_subset": get("cutsets.found") / naive,
        "cutsets.ns_per_naive_subset": get("cutsets.iter_cutsets.self_ms") * 1e6 / naive,
        "corona.l_corona.calls": get("corona.l_corona.calls"),
        "invariants.dimension_oracle.calls": get("invariants.dimension_oracle.calls"),
        "bms.bms_scan.calls": get("bms.bms_scan.calls"),
        "bms.verify_reduction.calls": get("bms.verify_reduction_d2.calls") + get("bms.verify_reduction_d3.calls"),
        "cas.emit_cas_script.calls": get("cas.emit_cas_script.calls"),
        "cas.bytes": get("cas.bytes"),
        "cli.main.self_ms": get("cli.main.self_ms"),
        "cli.output_bytes": get("cli.output_bytes"),
        "import.bei.graph_ms": imports["bei.graph"],
        "import.bei.bms_ms": imports["bei.bms"],
        "import.bei.cli_ms": imports["bei.cli"],
    }


def parallel_speedup(argv: list[str], cli: Cli, work: Path, clock: ReferenceClock) -> float:
    """CLI time of a scan at --jobs 1 over that at --jobs 2, on the same
    corpus, as a median over up to three alternating pairs."""
    directory = work / "speedup"
    directory.mkdir()
    serial, parallel = [], []
    t_end = time.perf_counter() + 5.0
    while len(serial) < 3 and (not serial or time.perf_counter() < t_end):
        for jobs, times in ((1, serial), (2, parallel)):
            with clock.block() as timing:
                result = cli.run(jobs_variant(argv, jobs), directory)
            times.append(result.wall * timing.scale)
    return statistics.median(serial) / statistics.median(parallel)


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*PLANS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bei" / "cli.py").is_file():
        sys.stderr.write(f"bench: no bei sources under {SRC}; run from the root of a checkout\n")
        return 2

    clock = ReferenceClock()
    cli = Cli()
    try:
        start_ms = python_start_ms(clock, cli.env)
        names = list(PLANS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            work = WORK / f"{name}-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                runner = run_traced if args.trace else run_untraced
                results[name] = runner(name, args.seed, args.seconds, work, clock, cli)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if args.trace:
                results[name]["metrics"]["proc.python_start_ms"] = start_ms
    finally:
        cli.close()

    prov = provenance(args.seed, start_ms, clock)
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        record = {"workload": name, "trace": args.trace, "seconds": args.seconds, "provenance": prov, **result}
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record) + "\n")
        result.pop("spans", None)
        print(json.dumps({"workload": name, "provenance": prov, "detail": result["detail"], "results_file": str(path.relative_to(ROOT))}))
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            print(f"{name:16s} {metric:36s} {value:14.6g} {result['units'][metric]}")
        detail = result["detail"]
        if detail.get("latency_tail_ms"):
            t = detail["latency_tail_ms"]
            print(f"{name:16s} {'latency_tail_ms':36s} {t['value']:14.6g} ms (p{t['percentile']:.1f} of {t['samples']} calls)")
        elif not args.trace:
            print(f"{name:16s} {'latency_tail_ms':36s} {'-':>14s} ms (only {detail['calls']} calls)")
        print(f"{name:16s} {'error_rate':36s} {detail['error_rate']:14.6g} failed/attempted")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": result["units"][metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

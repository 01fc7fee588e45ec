"""The four workloads: their inputs, their CLI calls and the check on each
call's output.

Each ``plan_*`` function writes the workload's inputs into a directory and
returns a ``Plan``.  Calls run with a per-pass directory as their working
directory, so every output path a call writes is relative and two passes
produce the same bytes.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import networkx as nx

import checker

DATA = Path(__file__).resolve().parent / "data"

# random-scan corpus: connected uniform graphs with n vertices and the edge
# count G(n, 0.25) has on average, 40 for each n.  Enumeration cost grows as
# 2^(non-simplicial vertices), so within each n the number of simplicial
# vertices follows a fixed quota (roughly their share in G(n, 0.25)); the
# seed changes the graphs but not the work profile.
RANDOM_SIZES = (12, 13, 14, 15, 16)
RANDOM_P = 0.25
RANDOM_SIMPLICIAL_QUOTA = ((0,) * 3 + (1,) * 5 + (2,) * 5 + (3,) * 4 + (4,) * 2 + (5,)) * 2
RANDOM_BRUTE_MAX_N = 12

# corona-cutsets products: (base, pendant); the first three are work-bound
# (many subsets, few cutsets), the last three output-dense
CORONA_PRODUCTS = (
    ("K4", "C4"),
    ("K3", "C5"),
    ("K2", "C8"),
    ("C12", "K1"),
    ("P12", "K1"),
    ("C8", "K2"),
)

# an unmixed graph that is not accessible: `check --accessible` then also
# searches a stuck cutset
STUCK_GRAPH6 = "FFwc?"


@dataclass
class Call:
    key: str
    argv: list[str]
    # check(stdout, pass_dir) -> problems, empty when the output is correct
    check: Callable[[bytes, Path], list[str]]
    # files or directories, relative to the pass directory, the call writes
    outputs: tuple[str, ...] = ()


@dataclass
class Plan:
    calls: list[Call]
    warmup: list[str]
    graphs: int  # graphs handled by one pass


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines))
    return path


def output_files(directory: Path, outputs: tuple[str, ...]) -> list[Path]:
    """The files under ``outputs``, paths relative to ``directory``."""
    files = []
    for rel in outputs:
        root = directory / rel
        files += [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    return files


def atlas_lines() -> list[str]:
    """The connected graphs on 1 to 7 vertices, in atlas order."""
    return [
        checker.to_g6(g)
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() >= 1 and nx.is_connected(g)
    ]


def simplicial_count(g: nx.Graph) -> int:
    return sum(
        1 for v in g if all(g.has_edge(a, b) for a, b in itertools.combinations(g[v], 2))
    )


def random_lines(seed: int, per_size: int = len(RANDOM_SIMPLICIAL_QUOTA)) -> list[str]:
    """``per_size`` graphs for each n in RANDOM_SIZES, in seeded order; the
    i-th graph of each size has ``RANDOM_SIMPLICIAL_QUOTA[i]`` simplicial
    vertices."""
    rng = random.Random(seed)
    slots = [(n, q) for n in RANDOM_SIZES for q in RANDOM_SIMPLICIAL_QUOTA[:per_size]]
    rng.shuffle(slots)
    lines = []
    for n, simplicial in slots:
        m = round(RANDOM_P * n * (n - 1) / 2)
        while True:
            g = nx.gnm_random_graph(n, m, seed=rng.getrandbits(32))
            if nx.is_connected(g) and simplicial_count(g) == simplicial:
                break
        lines.append(checker.to_g6(g))
    return lines


def _scan_plan(inputs: Path, lines: list[str], jobs: int, brute_max_n: int, scripts: bool) -> Plan:
    corpus = _write_lines(inputs / "corpus.g6", lines)
    warm = _write_lines(inputs / "warm.g6", lines[:16])
    argv = ["scan", "--jobs", str(jobs), "--input", str(corpus)]
    outputs: tuple[str, ...] = ()
    if scripts:
        argv += ["--scripts-dir", "scripts"]
        outputs = ("scripts",)

    def check(stdout: bytes, pass_dir: Path) -> list[str]:
        written = {str(p.relative_to(pass_dir)): p.read_text() for p in output_files(pass_dir, outputs)} if scripts else None
        return checker.check_scan(lines, stdout, brute_max_n, written)

    return Plan(
        calls=[Call("scan", argv, check, outputs)],
        warmup=["scan", "--jobs", str(jobs), "--input", str(warm)],
        graphs=len(lines),
    )


def plan_atlas_scan(inputs: Path, seed: int) -> Plan:
    return _scan_plan(inputs, atlas_lines(), jobs=1, brute_max_n=7, scripts=True)


def plan_random_scan(inputs: Path, seed: int) -> Plan:
    return _scan_plan(inputs, random_lines(seed), jobs=2, brute_max_n=RANDOM_BRUTE_MAX_N, scripts=False)


def product_key(base: str, pendant: str) -> str:
    return f"{base}o{pendant}"


def plan_corona_cutsets(inputs: Path, seed: int) -> Plan:
    expected = json.loads((DATA / "corona_products.json").read_text())
    calls = []
    for base, pendant in CORONA_PRODUCTS:
        key = product_key(base, pendant)
        g = checker.corona_product(checker.named_graph(base), checker.named_graph(pendant))
        path = _write_lines(inputs / f"{key}.g6", [checker.to_g6(g)])

        def check(stdout: bytes, pass_dir: Path, g=g, want=expected[key]) -> list[str]:
            return checker.check_cutsets(g, stdout, want)

        calls.append(Call(key, ["cutsets", "--out", "json", "--input", str(path)], check))
    smallest = inputs / f"{product_key(*CORONA_PRODUCTS[-1])}.g6"
    return Plan(
        calls=calls,
        warmup=["cutsets", "--out", "json", "--input", str(smallest)],
        graphs=len(calls),
    )


def plan_small_calls(inputs: Path, seed: int) -> Plan:
    stuck = _write_lines(inputs / "stuck.g6", [STUCK_GRAPH6])
    named = checker.named_graph
    prod = checker.corona_product

    def invariants(product: nx.Graph, script: str | None = None):
        def check(stdout: bytes, pass_dir: Path) -> list[str]:
            text = (pass_dir / script).read_text() if script else None
            return checker.check_invariants(product, stdout, text)

        return check

    def gadget(kind: str, h: str):
        return lambda stdout, pass_dir: checker.check_gadget(named(h), kind, stdout)

    calls = [
        Call(
            "invariants-full-corona",
            ["invariants", "--family", "full-corona", "--n", "3", "--pendant-block-graph", "P3"],
            invariants(prod(named("K3"), named("P3"))),
        ),
        Call(
            "invariants-l-corona",
            ["invariants", "--family", "l-corona", "--n", "4", "--ell", "2",
             "--pendant-block-graph", "P3", "--emit-cas", "l-corona.m2"],
            invariants(prod(named("K4"), named("P3"), attach=(0, 1)), "l-corona.m2"),
            ("l-corona.m2",),
        ),
        Call(
            "invariants-cm-closed",
            ["invariants", "--family", "cm-closed", "--b-graph", "P3",
             "--pendant-block-graph", "P3", "--pendant-graph", "P3"],
            invariants(prod(named("P3"), named("P3"))),
        ),
        Call(
            "invariants-path",
            ["invariants", "--family", "path", "--n", "3", "--pendant-block-graph", "K3",
             "--pendant-graph", "K3", "--emit-cas", "path.m2"],
            invariants(prod(named("P3"), named("K3")), "path.m2"),
            ("path.m2",),
        ),
        Call("gadget-d2", ["gadget", "--kind", "d2", "--verify", "--input", "P4"], gadget("d2", "P4")),
        Call("gadget-d3", ["gadget", "--kind", "d3", "--verify", "--input", "P4"], gadget("d3", "P4")),
        Call(
            "check-accessible",
            ["check", "--accessible", "--input", str(stuck)],
            lambda stdout, pass_dir: checker.check_accessible(checker.graph_from_g6(STUCK_GRAPH6), stdout),
        ),
        Call(
            "construct-corona",
            ["construct", "--corona", "K3", "P3"],
            lambda stdout, pass_dir: checker.check_construct(prod(named("K3"), named("P3")), stdout),
        ),
    ]
    return Plan(calls=calls, warmup=calls[-1].argv, graphs=len(calls))


PLANS = {
    "atlas-scan": plan_atlas_scan,
    "corona-cutsets": plan_corona_cutsets,
    "random-scan": plan_random_scan,
    "small-calls": plan_small_calls,
}

"""Tests of the benchmark itself.  Run from the root of a checkout with
``python -m pytest -q bench/selftest.py``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import networkx as nx
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_on_synthetic_tree():
    # root [0, 100] with children a [10, 40] and b [30, 60] overlapping, and
    # c [90, 120] reaching past the root's end; a has one child [15, 25]
    tree = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 30, 60, 0],
        ["c", 90, 120, 0],
        ["leaf", 15, 25, 1],
    ]
    assert spans.self_times(tree) == {"root": 100 - 50 - 10, "a": 30 - 10, "b": 30, "c": 30, "leaf": 10}


def test_generator_spans_cover_exhaustion_but_not_the_consumer():
    ticks = iter(range(0, 10_000, 10))
    rec = spans.Recorder(clock=lambda: next(ticks))

    def produce():
        yield 1
        yield 2

    def consume():
        return [x for x in wrapped()]

    wrapped = rec.wrap("gen", produce)
    outer = rec.wrap("outer", consume)
    assert outer() == [1, 2]
    assert rec.calls == {"outer": 1, "gen": 1}
    assert rec.yields == {"gen": 2}
    names = [s[0] for s in rec.spans]
    assert names == ["outer", "gen", "gen", "gen"]  # one span per resumption
    assert all(s[3] == 0 for s in rec.spans[1:])
    times = spans.self_times(rec.spans)
    assert times["gen"] == 30
    assert times["outer"] == rec.spans[0][2] - rec.spans[0][1] - 30


def test_rebinding_reaches_imported_copies_and_is_undone():
    import bei
    import bei.bms
    import bei.cli
    import bei.io

    original = bei.io.from_graph6
    rec = spans.Recorder()
    rec.install()
    try:
        assert bei.io.from_graph6 is not original
        assert bei.bms.from_graph6 is bei.io.from_graph6
        assert bei.cli.from_graph6 is bei.io.from_graph6
        assert bei.from_graph6 is bei.io.from_graph6
        list(bei.bms.bms_scan(["Bw"]))
    finally:
        rec.uninstall()
    assert bei.io.from_graph6 is original and bei.bms.from_graph6 is original
    assert rec.calls["bms.bms_scan"] == 1
    assert rec.calls["io.from_graph6"] == 2  # parsed by the scan and by its worker
    assert rec.calls["cutsets.iter_cutsets"] == 1


def test_pruned_search_matches_the_plain_loop():
    for g in nx.graph_atlas_g()[1:209]:  # every graph on 1 to 6 vertices
        adj = checker.adjacency(g)
        assert checker.cutset_family(adj) == checker.plain_cutset_family(adj)


def test_checker_agrees_with_bei_on_the_atlas():
    from bei import diameter, enumerate_cutsets, from_graph6

    lines = workloads.atlas_lines()
    assert len(lines) == 996
    for line in lines:
        g = checker.graph_from_g6(line)
        ours = checker.verdicts(checker.adjacency(g))
        bg = from_graph6(line)
        report = enumerate_cutsets(bg)
        assert set(report.cutsets) == set(ours["family"]), line
        assert report.is_unmixed == ours["unmixed"], line
        assert report.is_accessible_system == ours["accessible_system"], line
        assert diameter(bg) == nx.diameter(g), line


def test_checker_dimension_matches_bei_on_small_graphs():
    from bei import dimension_oracle, from_graph6

    for line in workloads.atlas_lines()[::7]:
        g = checker.graph_from_g6(line)
        assert checker.dimension(checker.adjacency(g)) == dimension_oracle(from_graph6(line)), line


def test_accessible_check_requires_the_stuck_witness(tmp_path, capsys):
    from bei.cli import main

    g6 = tmp_path / "stuck.g6"
    g6.write_text(workloads.STUCK_GRAPH6 + "\n")
    assert main(["check", "--accessible", "--input", str(g6)]) == 0
    stdout = capsys.readouterr().out
    g = checker.graph_from_g6(workloads.STUCK_GRAPH6)
    assert checker.check_accessible(g, stdout.encode()) == []
    out = json.loads(stdout)
    assert out["reason"] == "no-removable-vertex"
    for bad in (
        {"check": "accessible", "value": False},
        {"check": "accessible", "value": False, "reason": "not-unmixed"},
        {**out, "witness": []},
    ):
        assert checker.check_accessible(g, json.dumps(bad).encode()), bad


def test_seeded_corpus_is_repeatable_and_seed_dependent():
    assert workloads.random_lines(1, 4) == workloads.random_lines(1, 4)
    assert workloads.random_lines(1, 4) != workloads.random_lines(2, 4)
    graphs = [checker.graph_from_g6(x) for x in workloads.random_lines(3, 4)]
    assert sorted(g.number_of_nodes() for g in graphs) == sorted(list(workloads.RANDOM_SIZES) * 4)
    assert all(nx.is_connected(g) for g in graphs)
    quota = sorted(list(workloads.RANDOM_SIMPLICIAL_QUOTA[:4]) * len(workloads.RANDOM_SIZES))
    assert sorted(workloads.simplicial_count(g) for g in graphs) == quota


def test_stored_corona_families_match_the_checker():
    stored = json.loads((workloads.DATA / "corona_products.json").read_text())
    assert sorted(stored) == sorted(workloads.product_key(b, p) for b, p in workloads.CORONA_PRODUCTS)
    for base, pendant in workloads.CORONA_PRODUCTS[3:]:  # the quick ones
        g = checker.corona_product(checker.named_graph(base), checker.named_graph(pendant))
        family = checker.cutset_family(checker.adjacency(g))
        want = stored[workloads.product_key(base, pendant)]
        assert len(family) == want["cutsets"]
        assert checker.family_digest(checker.members(t) for t in family) == want["digest"]


@pytest.mark.parametrize("table", [run.END_TO_END_UNITS, run.PER_LAYER_UNITS])
def test_metric_names_and_units_are_well_formed(table):
    for name, unit in table.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_declares_exactly_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PLANS)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    t = run.tail([float(x) for x in range(40)])
    assert t == {"value": 29.0, "percentile": 75.0, "samples": 40}


def test_cli_max_rss_is_not_the_benchmarks(tmp_path):
    ballast = bytearray(150 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    cli = run.Cli()
    try:
        result = cli.run(["--version"], tmp_path)
    finally:
        cli.close()
    assert result.rc == 0 and result.stdout.startswith(b"bei ")
    assert result.maxrss_kb < 100 * 1024

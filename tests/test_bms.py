"""Diameter wrappers, their verification records, and corpus scanning."""

import concurrent.futures
import json

import pytest

import bei
from bei import bms
from bei.bms import _expected_d3_distance

from conftest import connected_atlas


def test_verify_reduction_d2():
    for h in (bei.complete_graph(1), bei.complete_graph(2), bei.path_graph(4)):
        check = bei.verify_reduction_d2(h)
        assert check.diameter_ok and check.accessible_transfer_ok
        assert check.distance_cases_ok is None


def test_verify_reduction_d3():
    for h in (bei.complete_graph(2), bei.path_graph(3), bei.path_graph(4)):
        check = bei.verify_reduction_d3(h)
        assert check.diameter_ok
        assert check.accessible_transfer_ok
        assert check.distance_cases_ok


def test_verify_rejects_inaccessible_pendants():
    star = bei.Graph(4, [(0, 1), (0, 2), (0, 3)])  # not unmixed
    with pytest.raises(ValueError):
        bei.verify_reduction_d2(star)
    with pytest.raises(ValueError):
        bei.verify_reduction_d3(bei.cycle_graph(4))  # fails the system


def test_d3_distance_formula_matches_bfs_exhaustively():
    for h in connected_atlas(4):
        g = bei.gadget_d3(h)
        for u in range(g.n):
            du = bei.distances_from(g, u)
            for v in range(u + 1, g.n):
                assert du[v] == _expected_d3_distance(h, u, v)


def test_d3_distance_cases_spotchecks():
    h = bei.path_graph(3)
    hn = h.n
    # vertices in different pendant copies sit at distance 3
    assert _expected_d3_distance(h, 3, 3 + hn) == 3
    # same copy, non-adjacent: 2; same copy, adjacent: 1
    assert _expected_d3_distance(h, 3, 5) == 2
    assert _expected_d3_distance(h, 3, 4) == 1
    # the bare triangle vertex sits at distance 2 from every copy vertex
    assert _expected_d3_distance(h, 2, 4) == 2
    # a carrier and the opposite copy: 2
    assert _expected_d3_distance(h, 0, 3 + hn) == 2
    assert _expected_d3_distance(h, 0, 3) == 1


def scan_lines(graphs):
    return [bei.to_graph6(g) for g in graphs]


def test_scan_four_vertex_corpus():
    corpus = [g for g in connected_atlas(4) if g.n == 4]
    assert len(corpus) == 6
    records = list(bei.bms_scan(scan_lines(corpus), diameters={1, 2, 3}))
    assert len(records) == 6
    by_g6 = {r.graph6: r for r in records}
    k4 = by_g6[bei.to_graph6(bei.complete_graph(4))]
    assert k4.unmixed and k4.accessible and k4.diameter == 1
    for r in records:
        if r.accessible:
            assert r.unmixed


def test_scan_counterexample_record(square_leaves_product):
    records = list(bei.bms_scan([bei.to_graph6(square_leaves_product)]))
    assert len(records) == 1
    assert records[0].unmixed is False and records[0].accessible is False


def test_scan_empty_and_malformed():
    assert list(bei.bms_scan([])) == []
    errors = []
    records = list(
        bei.bms_scan(
            ["A_", "!!bad!!", "", "C~"],
            on_error=lambda lineno, msg: errors.append(lineno),
        )
    )
    assert [r.n for r in records] == [2, 4]
    assert errors == [2]


@pytest.mark.parametrize("line", [">>graph6<<C~", "~??C~"], ids=["header", "long-form"])
def test_scan_records_the_canonical_graph6(tmp_path, line):
    canonical = bei.to_graph6(bei.from_graph6(line))
    assert canonical == "C~" != line
    runs = []
    for text in (line, canonical):
        out = tmp_path / text.replace(">", "h")
        records = [r._replace(cas_script_path=None) for r in bei.bms_scan([text], script_dir=str(out))]
        runs.append((records, (out / "000001.m2").read_text()))
    assert runs[0] == runs[1]
    assert runs[0][0][0].graph6 == canonical and f"graph6: {canonical}" in runs[0][1]


def test_scan_respects_filters():
    corpus = scan_lines(connected_atlas(4))
    only3 = list(bei.bms_scan(corpus, diameters={3}))
    assert all(r.diameter == 3 for r in only3)
    small = list(bei.bms_scan(corpus, max_n=3))
    assert all(r.n <= 3 for r in small)


def test_scan_filters_by_diameter_before_the_verdicts(monkeypatch):
    # the diameter-3 graphs of the atlas, where the paper's note reduces the
    # Bolognini-Macchia-Strazzanti question; no other graph gets a verdict
    corpus = scan_lines(connected_atlas(7))
    every = list(bei.bms_scan(corpus))
    calls = []

    def counted(g, bound=None):
        calls.append(g)
        return bei.unmixed_report(g, bound=bound)

    monkeypatch.setattr(bms, "unmixed_report", counted)
    only3 = list(bei.bms_scan(corpus, diameters={3}))
    assert len(corpus) == 996 and len(calls) == len(only3) == 436
    assert only3 == [r for r in every if r.diameter == 3]


def test_scan_bound_errors_reported():
    lines = [bei.to_graph6(bei.Graph(30))]
    errors = []

    def on_error(lineno, msg):
        errors.append((lineno, msg))

    assert list(bei.bms_scan(lines, bound=24, on_error=on_error)) == []
    assert errors == [(1, "30 vertices exceeds the enumeration bound 24")]
    # the silent max_n filter comes before the bound
    errors.clear()
    assert list(bei.bms_scan(lines, max_n=29, bound=24, on_error=on_error)) == []
    assert errors == []


def test_scan_deterministic_and_order_preserving():
    corpus = scan_lines(connected_atlas(5))
    a = [json.dumps(r.to_json()) for r in bei.bms_scan(corpus)]
    b = [json.dumps(r.to_json()) for r in bei.bms_scan(corpus)]
    assert a == b
    assert [json.loads(line)["graph6"] for line in a] == corpus


def test_scan_parallel_matches_serial(monkeypatch):
    # with no in-process allowance the first graph runs in-process and a real
    # pool takes the rest; a malformed and an over-bound line sit on each side
    monkeypatch.setattr(bms, "_POOL_AFTER_S", 0)
    monkeypatch.setattr(bms, "_usable_cpus", lambda: 2)
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    graphs = scan_lines(connected_atlas(5))
    big = bei.to_graph6(bei.Graph(30))
    corpus = ["!!bad!!", big, graphs[0], "!!bad!!", big, *graphs[1:]]
    runs = []
    for jobs in (1, 2):
        errors = []
        records = [
            r.to_json()
            for r in bei.bms_scan(corpus, jobs=jobs, on_error=lambda *e: errors.append(e))
        ]
        runs.append((records, errors))
    assert started == [2]
    assert runs[0] == runs[1]
    records, errors = runs[0]
    assert [r["graph6"] for r in records] == graphs
    assert [lineno for lineno, _ in errors] == [1, 2, 4, 5]
    assert "bound" in errors[1][1] and "bound" in errors[3][1]


class FakePool:
    """Stands in for the process pool: records its size, starts nothing."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads, chunksize=1):
        return map(fn, payloads)


def test_pooled_graphs_are_parsed_once(monkeypatch, tmp_path):
    monkeypatch.setattr(bms, "_POOL_AFTER_S", 0)
    monkeypatch.setattr(bms, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    parsed = []

    def counted(text, check_n=None):
        parsed.append(text)
        return bei.from_graph6(text, check_n)

    monkeypatch.setattr(bms, "from_graph6", counted)
    corpus = scan_lines(connected_atlas(5))
    runs = []
    for jobs in (1, 2):
        parsed.clear()
        out = tmp_path / str(jobs)
        scan = bms.bms_scan(corpus, jobs=jobs, script_dir=str(out))
        records = [r._replace(cas_script_path=None) for r in scan]
        assert parsed == corpus
        scripts = {p.name: p.read_text() for p in out.iterdir()}
        runs.append((records, scripts))
    assert runs[0] == runs[1] and runs[0][1]


@pytest.mark.parametrize(
    "jobs, cpus, ngraphs, expected",
    [
        (100000, 2, 10, [2]),  # capped by the usable CPUs
        (2, 8, 10, [2]),  # by jobs
        (100000, 64, 4, [3]),  # by the graphs left after the first
        (1, 8, 10, []),  # a serial scan starts no pool
        (4, 1, 10, []),  # nor does a scan with one usable CPU
        (4, 8, 2, []),  # nor one graph left after the first
        (4, 8, 1, []),  # nor a corpus done in-process
    ],
)
def test_scan_caps_the_pool_workers(monkeypatch, jobs, cpus, ngraphs, expected):
    monkeypatch.setattr(bms, "_POOL_AFTER_S", 0)
    monkeypatch.setattr(bms, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(FakePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    corpus = scan_lines(connected_atlas(5))[:ngraphs]
    records = list(bei.bms_scan(corpus, jobs=jobs))
    assert [r.graph6 for r in records] == corpus
    assert FakePool.sizes == expected


def test_scan_emits_scripts_for_accessible_graphs(tmp_path, monkeypatch):
    corpus = scan_lines([bei.complete_graph(3), bei.cycle_graph(4)])
    # a script reuses the graph6 that the scan encoded for its record
    monkeypatch.setattr(bei.cas, "to_graph6", None)
    records = list(bei.bms_scan(corpus, script_dir=str(tmp_path)))
    assert records[0].accessible and records[0].cas_script_path is not None
    text = (tmp_path / "000001.m2").read_text()
    assert "x1*y2-x2*y1" in text and "expected accessible = true" in text
    assert records[1].cas_script_path is None  # C4 is not accessible

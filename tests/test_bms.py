"""Diameter wrappers, their verification records, and corpus scanning."""

import concurrent.futures
import functools
import itertools
import json

import pytest

import bei
from bei import bms

from conftest import connected_atlas, to_nx


VERIFY = {2: bei.verify_reduction_d2, 3: bei.verify_reduction_d3}


@functools.cache
def accessible_atlas():
    return [h for h in connected_atlas(7) if bei.is_accessible(h)]


def test_verify_reduction_d2():
    for h in (bei.complete_graph(1), bei.complete_graph(2), bei.path_graph(4)):
        assert bei.verify_reduction_d2(h) == (h.n + 2, True, True, True)


def test_verify_reduction_d3():
    for h in (bei.complete_graph(2), bei.path_graph(3), bei.path_graph(4)):
        assert bei.verify_reduction_d3(h) == (3 + 2 * h.n, True, True, True)


def test_the_d2_gadget_of_every_accessible_atlas_graph_is_a_cone_over_h_plus_k1():
    nx = pytest.importorskip("networkx")
    assert len(accessible_atlas()) == 82
    for h in accessible_atlas():
        assert bei.verify_reduction_d2(h) == (h.n + 2, True, True, True)
        cone = nx.disjoint_union(to_nx(h), nx.empty_graph(1))
        cone.add_edges_from((h.n + 1, v) for v in range(h.n + 1))
        assert nx.is_isomorphic(to_nx(bei.gadget(h, 2)), cone), bei.to_graph6(h)


def test_the_d3_gadget_of_every_accessible_atlas_graph_passes_its_check():
    assert len(accessible_atlas()) == 82
    for h in accessible_atlas():
        assert bei.verify_reduction_d3(h) == (3 + 2 * h.n, True, True, True)


def test_verify_rejects_inaccessible_pendants():
    star = bei.Graph(4, [(0, 1), (0, 2), (0, 3)])  # not unmixed
    with pytest.raises(ValueError, match="pendant graph must be accessible"):
        bei.verify_reduction_d2(star)
    with pytest.raises(ValueError, match="pendant graph must be accessible"):
        bei.verify_reduction_d3(bei.cycle_graph(4))  # fails the system


@pytest.mark.parametrize("d", [2, 3])
def test_verify_refuses_a_disconnected_pendant_before_any_cutset_search(monkeypatch, d):
    def searched(*args):
        raise AssertionError("a cutset search ran")

    monkeypatch.setattr(bms, "is_accessible", searched)
    two_c10 = bei.Graph(20, [*bei.cycle_graph(10).edges(), *((u + 10, v + 10) for u, v in bei.cycle_graph(10).edges())])
    with pytest.raises(ValueError, match="pendant graph must be connected"):
        VERIFY[d](two_c10)
    with pytest.raises(ValueError, match="at least one vertex"):
        VERIFY[d](bei.Graph(0))


def test_verify_refuses_an_over_bound_wrapper_before_any_cutset_search(monkeypatch):
    def searched(*args):
        raise AssertionError("a cutset search ran")

    monkeypatch.setattr(bms, "is_accessible", searched)
    # P23 is within the default bound of 24, its d2 wrapper is not
    with pytest.raises(bei.EnumerationBoundError, match="25 vertices exceeds the enumeration bound 24"):
        bei.verify_reduction_d2(bei.path_graph(23))
    with pytest.raises(bei.EnumerationBoundError, match="11 vertices exceeds the enumeration bound 10"):
        bei.verify_reduction_d3(bei.path_graph(4), bound=10)


def expected_distance(h, d, u, v):
    """Distance between vertices ``u != v`` of ``gadget(h, d)``, read off
    the vertex each one hangs from: K_d's vertex itself, or the base vertex
    carrying its copy of ``h``."""
    def hangs_from(x):
        return x if x < d else (x - d) // h.n

    if u < d and v < d:
        return 1  # inside K_d
    if u < d or v < d:
        base, other = (u, v) if u < d else (v, u)
        return 1 if hangs_from(other) == base else 2
    if hangs_from(u) != hangs_from(v):
        return 3  # two copies, through their carriers
    return 1 if h.has_edge((u - d) % h.n, (v - d) % h.n) else 2


@pytest.mark.parametrize("d", [2, 3])
def test_wrapper_distances_match_bfs_exhaustively(d):
    for h in connected_atlas(4):
        g = bei.gadget(h, d)
        for u in range(g.n):
            du = bei.distances_from(g, u)
            for v in range(g.n):
                if v != u:
                    assert du[v] == expected_distance(h, d, u, v), (bei.to_graph6(h), u, v)


@pytest.mark.parametrize("d", [2, 3])
def test_the_distance_check_sees_a_wrong_wrapper(monkeypatch, d):
    # an edge from K_d's last vertex, which carries no copy, into the first
    # copy keeps the diameter at d but breaks the distance rule
    real = bms.l_corona

    def miswired(spec):
        g = real(spec)
        return bei.Graph(g.n, [*g.edges(), (d - 1, d)])

    monkeypatch.setattr(bms, "l_corona", miswired)
    check = VERIFY[d](bei.path_graph(3))
    assert check.diameter_ok and not check.distance_cases_ok


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


def test_scan_refuses_a_negative_bound_before_reading_a_line():
    lines = iter(["Bw", "Cr", "C~"])
    errors = []
    scan = bei.bms_scan(lines, bound=-1, on_error=lambda *error: errors.append(error))
    with pytest.raises(ValueError, match="must be at least 0, got -1"):
        next(scan)
    assert errors == []
    assert next(lines) == "Bw"


def test_scan_refuses_an_unknown_dialect_before_reading_a_line():
    lines = iter(["Bw", "Cr", "C~"])
    scan = bei.bms_scan(lines, dialect="maple")
    with pytest.raises(ValueError, match="unknown dialect 'maple'"):
        next(scan)
    assert next(lines) == "Bw"


def test_scan_deterministic_and_order_preserving():
    corpus = scan_lines(connected_atlas(5))
    a = [json.dumps(r._asdict()) for r in bei.bms_scan(corpus)]
    b = [json.dumps(r._asdict()) for r in bei.bms_scan(corpus)]
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
            r._asdict()
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


def test_a_pooled_scan_reads_its_input_a_batch_at_a_time(monkeypatch):
    # with no in-process allowance the pool takes over at the second graph;
    # its first records come before more than one batch of lines is drawn
    monkeypatch.setattr(bms, "_POOL_AFTER_S", 0)
    monkeypatch.setattr(bms, "_POOL_BATCH", 16)
    monkeypatch.setattr(bms, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    drawn = 0

    def corpus():
        nonlocal drawn
        for _ in range(2_000):
            drawn += 1
            yield "Bw"

    records = bms.bms_scan(corpus(), jobs=2)
    assert [r.graph6 for r in itertools.islice(records, 2)] == ["Bw", "Bw"]
    assert drawn <= 1 + 16
    assert sum(1 for _ in records) == 1_998 and drawn == 2_000


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


@pytest.mark.parametrize("dialect, suffix", [("m2", "m2"), ("singular", "sing")])
def test_scan_writes_no_script_for_the_empty_graph_and_scans_on(tmp_path, dialect, suffix):
    # the empty graph is accessible, but has no ring to declare
    records = list(bei.bms_scan(["Bw", "?", "Bw"], script_dir=str(tmp_path), dialect=dialect))
    assert [(r.graph6, r.accessible) for r in records] == [("Bw", True), ("?", True), ("Bw", True)]
    names = [f"000001.{suffix}", f"000003.{suffix}"]
    assert [r.cas_script_path for r in records] == [str(tmp_path / names[0]), None, str(tmp_path / names[1])]
    assert sorted(p.name for p in tmp_path.iterdir()) == names

"""Output checks that share no code with ``bei``.

Graphs are read with networkx and held as lists of neighbour bitmasks.
Cutsets follow the definition: T is a cutset when it is empty or when every
vertex of T touches at least two components of G - T.  The family is found
by exhaustive search over all vertex subsets; the only pruning is the
necessary condition that every member keeps two neighbours outside T.
The dimension oracle maximises ``n - |S| + c(G - S)`` over all subsets S,
without restricting S to cutsets.
"""

from __future__ import annotations

import hashlib
import json

import networkx as nx


def graph_from_g6(line: str) -> nx.Graph:
    return nx.from_graph6_bytes(line.strip().encode("ascii"))


def to_g6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def adjacency(g: nx.Graph) -> list[int]:
    """Neighbour bitmasks; vertices are numbered in the graph's node order."""
    index = {v: i for i, v in enumerate(g.nodes)}
    adj = [0] * len(index)
    for u, v in g.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return adj


def component_masks(adj: list[int], alive: int) -> list[int]:
    comps = []
    while alive:
        seed = alive & -alive
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                bit = rest & -rest
                rest ^= bit
                nxt |= adj[bit.bit_length() - 1]
            frontier = nxt & alive & ~comp
            comp |= frontier
        comps.append(comp)
        alive &= ~comp
    return comps


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def is_cutset(adj: list[int], t: int) -> tuple[bool, int]:
    """(definition holds, number of components of G - t)."""
    full = (1 << len(adj)) - 1
    comps = component_masks(adj, full & ~t)
    for v in _bits(t):
        if sum(1 for c in comps if adj[v] & c) < 2:
            return False, len(comps)
    return True, len(comps)


def cutset_family(adj: list[int]) -> dict[int, int]:
    """Every cutset mapped to the component count of G - T."""
    n = len(adj)
    full = (1 << n) - 1
    family: dict[int, int] = {}

    def search(i: int, t: int) -> None:
        if i == n:
            ok, w = is_cutset(adj, t)
            if ok:
                family[t] = w
            return
        search(i + 1, t)
        t2 = t | (1 << i)
        # members must keep >= 2 neighbours outside T, whatever comes later
        if all((adj[v] & full & ~t2).bit_count() >= 2 for v in _bits(t2 & adj[i] | 1 << i)):
            search(i + 1, t2)

    search(0, 0)
    return family


def plain_cutset_family(adj: list[int]) -> dict[int, int]:
    """The same family by a loop over all 2^n subsets, for small graphs."""
    family = {}
    for t in range(1 << len(adj)):
        ok, w = is_cutset(adj, t)
        if ok:
            family[t] = w
    return family


def family_verdicts(family: dict[int, int]) -> tuple[bool, bool]:
    """(unmixed, accessible set system) of a cutset family: every cutset has
    |T| + c(G) components, and every nonempty cutset loses a vertex to
    another cutset."""
    w0 = family[0]
    unmixed = all(w == t.bit_count() + w0 for t, w in family.items())
    system = all(any((t & ~(1 << v)) in family for v in _bits(t)) for t in family if t)
    return unmixed, system


def verdicts(adj: list[int]) -> dict:
    family = cutset_family(adj)
    unmixed, system = family_verdicts(family)
    return {
        "family": family,
        "unmixed": unmixed,
        "accessible_system": system,
        "accessible": unmixed and system,
    }


def dimension(adj: list[int]) -> int:
    n = len(adj)
    full = (1 << n) - 1
    return max(
        n - s.bit_count() + len(component_masks(adj, full & ~s)) for s in range(1 << n)
    )


def family_digest(sets) -> str:
    """sha256 of the family as a sorted list of sorted vertex lists."""
    canon = sorted(sorted(s) for s in sets)
    return hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest()


def members(mask: int) -> list[int]:
    return list(_bits(mask))


# ---------------------------------------------------------------------------
# products built with networkx, in the vertex layout the benchmark writes


def named_graph(name: str) -> nx.Graph:
    kind, size = name[0], int(name[1:])
    return {"K": nx.complete_graph, "P": nx.path_graph, "C": nx.cycle_graph}[kind](size)


def corona_product(base: nx.Graph, pendant: nx.Graph, attach=None) -> nx.Graph:
    """Base vertices first, then one copy of the pendant per attach vertex
    (all base vertices by default), each copy joined to its vertex."""
    b = base.number_of_nodes()
    h = pendant.number_of_nodes()
    attach = list(range(b)) if attach is None else list(attach)
    g = nx.Graph()
    g.add_nodes_from(range(b + h * len(attach)))
    g.add_edges_from(base.edges)
    for k, v in enumerate(attach):
        start = b + k * h
        g.add_edges_from((start + x, start + y) for x, y in pendant.edges)
        g.add_edges_from((v, start + j) for j in range(h))
    return g


# ---------------------------------------------------------------------------
# per-workload checks; each returns a list of problems, empty when correct


def check_scan(lines: list[str], stdout: bytes, brute_max_n: int, scripts=None) -> list[str]:
    """``bei scan`` records against the corpus lines: graph6, n and diameter
    for every record; the verdicts by exhaustive search up to ``brute_max_n``
    vertices.  ``scripts`` maps a script path to its text, when the scan was
    asked to write them."""
    records = [json.loads(r) for r in stdout.decode().splitlines()]
    if len(records) != len(lines):
        return [f"{len(records)} records for {len(lines)} graphs"]
    problems = []
    for line, rec in zip(lines, records):
        g = graph_from_g6(line)
        n = g.number_of_nodes()
        if rec["graph6"] != line or rec["n"] != n or rec["diameter"] != nx.diameter(g):
            problems.append(f"{line}: graph6, n or diameter wrong")
            continue
        if n <= brute_max_n:
            v = verdicts(adjacency(g))
            if (rec["unmixed"], rec["accessible"]) != (v["unmixed"], v["accessible"]):
                problems.append(f"{line}: verdicts wrong")
                continue
        if scripts is not None:
            path = rec["cas_script_path"]
            if rec["accessible"] != (path is not None):
                problems.append(f"{line}: script presence wrong")
            elif path is not None and f"graph6: {line}\n" not in scripts.get(path, ""):
                problems.append(f"{line}: script {path} missing or for another graph")
    return problems


def check_cutsets(g: nx.Graph, stdout: bytes, expected: dict) -> list[str]:
    """``bei cutsets --out json``: each listed set is a cutset with the listed
    component count, the family matches the stored count and digest, and the
    verdicts follow from the family."""
    out = json.loads(stdout)
    adj = adjacency(g)
    sets = out["cutsets"]
    problems = []
    if len(sets) != expected["cutsets"] or family_digest(sets) != expected["digest"]:
        problems.append("family differs from the stored count or digest")
    family = {}
    for s, w in zip(sets, out["per_cutset_components"]):
        t = sum(1 << v for v in s)
        ok, comps = is_cutset(adj, t)
        if not ok or comps != w:
            problems.append(f"{s} is not a cutset with {w} components")
        family[t] = comps
    if problems:
        return problems
    dim = len(adj) + max(w - t.bit_count() for t, w in family.items())
    if (out["is_unmixed"], out["is_accessible_system"], out["oracle_dimension"]) != (*family_verdicts(family), dim):
        problems.append("verdicts do not follow from the family")
    return problems


def check_invariants(product: nx.Graph, stdout: bytes, script: str | None) -> list[str]:
    """``bei invariants``: dimension against the oracle on the product and
    ``pd == 2 nv - depth``.  Depth and regularity values are not asserted."""
    out = json.loads(stdout)
    nv = product.number_of_nodes()
    problems = []
    if out["product_vertices"] != nv:
        problems.append(f"product_vertices {out['product_vertices']} != {nv}")
    if out["dim"]["value"] != dimension(adjacency(product)):
        problems.append("dim differs from the oracle")
    if out["pd"]["value"] != 2 * nv - out["depth"]["value"]:
        problems.append("pd != 2 nv - depth")
    if script is not None:
        g6 = next((ln.split("graph6: ", 1)[1] for ln in script.splitlines() if "graph6: " in ln), None)
        if g6 is None or not nx.is_isomorphic(graph_from_g6(g6), product):
            problems.append("CAS script is not for the product")
    return problems


def check_gadget(h: nx.Graph, kind: str, stdout: bytes) -> list[str]:
    out = json.loads(stdout)
    flags = [out["diameter_ok"], out["accessible_transfer_ok"]]
    if kind == "d3":
        flags.append(out.get("distance_cases_ok"))
    size = h.number_of_nodes() + 2 if kind == "d2" else 3 + 2 * h.number_of_nodes()
    problems = [] if all(f is True for f in flags) else ["a gadget flag is not true"]
    if out["gadget_vertices"] != size:
        problems.append(f"gadget has {out['gadget_vertices']} vertices, expected {size}")
    return problems


def check_accessible(g: nx.Graph, stdout: bytes) -> list[str]:
    """``bei check --accessible``: the verdict and the reason that follows
    from the checker's own verdicts.  A graph that is unmixed but not an
    accessible set system must come with a cutset that has no removable
    vertex."""
    out = json.loads(stdout)
    v = verdicts(adjacency(g))
    if out["value"] != v["accessible"]:
        return ["accessible verdict wrong"]
    if not v["unmixed"]:
        reason = "not-unmixed"
    elif not v["accessible_system"]:
        reason = "no-removable-vertex"
    else:
        reason = None
    if out.get("reason") != reason:
        return [f"reason {out.get('reason')!r}, expected {reason!r}"]
    if reason == "no-removable-vertex":
        if out.get("witness") is None:
            return ["no stuck cutset given"]
        t = sum(1 << int(x) for x in out["witness"])
        stuck = t in v["family"] and not any((t & ~(1 << x)) in v["family"] for x in _bits(t))
        if not t or not stuck:
            return ["witness is not a cutset without a removable vertex"]
    return []


def check_construct(expected: nx.Graph, stdout: bytes) -> list[str]:
    got = graph_from_g6(stdout.decode())
    return [] if nx.is_isomorphic(got, expected) else ["constructed graph is not the corona"]

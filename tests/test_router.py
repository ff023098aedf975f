"""The star router's flow routine against networkx, its oracle.

`carpet.node_disjoint_paths` is a port of networkx's node-split Edmonds-Karp
that runs on increasing adjacency lists of integer node ids and must return
exactly networkx's paths, in order.  The networkx corridor graph the router
used to build lives here, and so does the networkx router itself
(`_networkx_embed_star`), to route whole scaffolds through networkx for
comparison.
"""

import gc
import hashlib
import weakref

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbound import carpet
from coxbound.carpet import (CarpetApprox, CarpetStar, RoutingError, _cell_center,
                             _entry_cell, build_carpet_approx, build_k5_scaffold,
                             corridors, node_disjoint_paths, scaffold_svg,
                             scaffold_to_json, verify_k5_graph)
from test_carpet import _cell_kept, _expanded


def _corridor_graph(level: int) -> nx.Graph:
    """Kept cells (i, j) in row-major order, joined to the kept cells beside them."""
    n = 3 ** level
    g = nx.Graph()
    for i in range(n):
        for j in range(n):
            if not _cell_kept(i, j, level):
                continue
            g.add_node((i, j))
            if i > 0 and _cell_kept(i - 1, j, level):
                g.add_edge((i - 1, j), (i, j))
            if j > 0 and _cell_kept(i, j - 1, level):
                g.add_edge((i, j - 1), (i, j))
    return g


def _networkx_paths(g, s, t):
    try:
        return list(nx.node_disjoint_paths(g, s, t))
    except nx.NetworkXNoPath:
        return []


def _networkx_embed_star(c, marks, graph):
    """The router as it ran on networkx: the same candidates, checks and legs,
    on a networkx corridor graph of its own in place of `graph`."""
    marks = tuple(marks)
    level, n = c.level, 3 ** c.level
    entries = [_entry_cell(m.point, c) for m in marks]
    graph = _corridor_graph(level)
    candidates = sorted((x for x in graph.nodes if x not in entries),
                        key=lambda x: (abs(2 * x[0] + 1 - n) + abs(2 * x[1] + 1 - n), x))
    for cell in entries:
        graph.add_edge(cell, "sink")
    for center in candidates:
        if graph.degree(center) < 4:
            continue
        paths = _networkx_paths(graph, center, "sink")
        if len(paths) < 4:
            continue
        by_entry = {p[-2]: p for p in paths[:4]}
        if set(by_entry) != set(entries):
            continue
        legs = tuple(tuple(_cell_center(x, level) for x in by_entry[cell][:-1]) + (m.point,)
                     for m, cell in zip(marks, entries))
        return CarpetStar(_cell_center(center, level), legs, marks)
    raise RoutingError(f"no 4 disjoint corridors found at level {level}")


def _kept_ids(level: int) -> list[int]:
    """The grid ids i * 3^level + j of the kept cells (i, j), increasing."""
    n = 3 ** level
    return [i * n + j for i in range(n) for j in range(n) if _cell_kept(i, j, level)]


def _assert_corridor_paths_match_networkx(level, center, entry_ids):
    """The router's paths from the cell `center` to a sink joined to the cells
    `entry_ids` of the level's corridor graph, cells by grid id, are
    networkx's."""
    n = 3 ** level
    adjacency, _ = corridors(build_carpet_approx(level))
    graph = _corridor_graph(level)
    graph.add_node("sink")
    for k in entry_ids:
        graph.add_edge(divmod(k, n), "sink")
    sink = n * n
    joined = adjacency + [sorted(entry_ids)]
    for k in entry_ids:
        joined[k] = [*joined[k], sink]
    got = node_disjoint_paths(joined, center, sink)
    try:
        expected = list(nx.node_disjoint_paths(graph, divmod(center, n), "sink"))
    except nx.NetworkXNoPath:
        assert not entry_ids and got == []
        return
    assert got == [[i * n + j for i, j in p[:-1]] + [sink] for p in expected]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_router_paths_match_networkx_on_the_corridor_graph(data):
    level = data.draw(st.integers(1, 3), label="level")
    picks = data.draw(st.lists(st.sampled_from(_kept_ids(level)), min_size=1, max_size=5,
                               unique=True), label="center and entries")
    # entries in drawn order; none: no path
    _assert_corridor_paths_match_networkx(level, picks[0], picks[1:])


def test_router_paths_match_networkx_where_reverse_arc_order_matters():
    """A search that meets a node of an earlier path takes its reverse arcs
    in networkx's order, and here that order picks the path: random draws
    seldom reach such a case (about 1 in 1,000 at level 2)."""
    _assert_corridor_paths_match_networkx(2, 55, [79, 75])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_router_paths_match_networkx_on_any_graph(data):
    """Any simple graph, disconnected ones too, its edges inserted in sorted
    order: so every adjacency list is increasing, as the router needs."""
    size = data.draw(st.integers(2, 9), label="nodes")
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges = data.draw(st.permutations(pairs), label="edges")
    edges = sorted(edges[:data.draw(st.integers(0, len(edges)), label="edge count")])
    g = nx.Graph()
    g.add_nodes_from(range(size))
    g.add_edges_from(edges)
    s, t = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True),
                     label="s, t")
    adj = [list(g.adj[k]) for k in range(size)]
    assert node_disjoint_paths(adj, s, t) == _networkx_paths(g, s, t)


def test_router_paths_match_networkx_where_flow_is_cancelled():
    """The second augmenting path runs backwards over a flow arc of the
    first (B_2 -> A_1 of the split graph), so the flow on it is cancelled:
    random graphs seldom do this."""
    g = nx.Graph()
    g.add_nodes_from(range(6))
    g.add_edges_from([(0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 5)])
    adj = [list(g.adj[k]) for k in range(6)]
    assert node_disjoint_paths(adj, 0, 3) == _networkx_paths(g, 0, 3) == \
        [[0, 2, 5, 3], [0, 4, 1, 3]]


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_corridor_adjacency_is_increasing(level):
    """The router's precondition, on grid ids: every neighbour is a kept
    cell and a removed cell has none; every list is strictly increasing, and
    stays so with the sink, 3^(2 level), the largest id, joined.  The
    candidate centers are the kept cells."""
    adjacency, by_center = corridors(build_carpet_approx(level))
    n, sink = 3 ** level, 9 ** level
    assert len(adjacency) == sink
    for r, nbrs in enumerate(adjacency):
        assert all(_cell_kept(*divmod(s, n), level) for s in nbrs)
        if not _cell_kept(*divmod(r, n), level):
            assert nbrs == []
        joined = [*nbrs, sink]
        assert all(a < b for a, b in zip(joined, joined[1:]))
    assert sorted(by_center) == _kept_ids(level)


def _routed_through_networkx(level, seed=None):
    original = carpet.embed_star_in_carpet
    carpet.embed_star_in_carpet = _networkx_embed_star
    try:
        return build_k5_scaffold(level, seed)
    finally:
        carpet.embed_star_in_carpet = original


@pytest.mark.parametrize("level, seed", [(2, seed) for seed in range(12)] +
                         [(3, seed) for seed in (0, 4, 7)] + [(4, None)])
def test_scaffold_matches_networkx_routing(level, seed):
    """The library's legs, expanded back to every cell centre, are the legs
    the networkx router writes through every centre of its paths."""
    assert scaffold_to_json(_expanded(build_k5_scaffold(level, seed))) == \
        scaffold_to_json(_routed_through_networkx(level, seed))


# SHA-256 of scaffold_to_json(build_k5_scaffold(5)) with every leg written
# through each cell centre of its path, computed with the networkx router
# before the integer one replaced it; the test hashes the library's scaffold
# with its legs expanded back to every centre
LEVEL_5_SCAFFOLD = "6eb802c959acaaceb385f0d517db6f6c9871e05084db3f1d665cb91eee29ded0"
# and of the same scaffold with its legs by their corners, computed once the
# expanded legs matched LEVEL_5_SCAFFOLD
LEVEL_5_CORNER_SCAFFOLD = "561d2c22936f0be0529d6e3ac6e7296cf5ce97cbdff64e66c4893422bf8e7ed0"


def test_level_5_scaffold():
    s = build_k5_scaffold(5)
    assert hashlib.sha256(scaffold_to_json(s).encode()).hexdigest() == LEVEL_5_CORNER_SCAFFOLD
    assert hashlib.sha256(scaffold_to_json(_expanded(s)).encode()).hexdigest() == \
        LEVEL_5_SCAFFOLD
    assert verify_k5_graph(s)


# SHA-256 of scaffold_to_json(build_k5_scaffold(6)) with every leg written
# through each cell centre of its path, computed with the router over the
# materialised residual network, before it read the arcs off the corridor
# adjacency; the test hashes the expanded scaffold, as above
LEVEL_6_SCAFFOLD = "9b0b58089d9820502a9d4de04452e276d295ec46bea2ef0a766bbdf40244b492"
# and of the same scaffold with its legs by their corners, computed once the
# expanded legs matched LEVEL_6_SCAFFOLD
LEVEL_6_CORNER_SCAFFOLD = "591a9c9e43a3b0083aae5baba15f322a8aa98051cd51a1887095d5970881cb77"


def test_level_6_scaffold():
    s = build_k5_scaffold(6)
    assert hashlib.sha256(scaffold_to_json(s).encode()).hexdigest() == LEVEL_6_CORNER_SCAFFOLD
    assert hashlib.sha256(scaffold_to_json(_expanded(s)).encode()).hexdigest() == \
        LEVEL_6_SCAFFOLD
    assert verify_k5_graph(s)


def test_k5_scaffold_keeps_no_routing_state(monkeypatch):
    """The corridor graph is the routing call's state: a scaffold build
    makes one, routes all its distinct stars on it, and once the build
    returns nothing reachable from the scaffold holds it.  A scaffold's
    build, check and emission read cells by grid position: none of them
    computes the carpet's `kept` cells, and its build, check and JSON do not
    compute `removed` either (only the SVG drawing reads that)."""
    class Adjacency(list):
        """A list that a weak reference can name."""

    built = []

    def recording(c):
        adjacency, by_center = corridors(c)
        adjacency = Adjacency(adjacency)
        built.append(weakref.ref(adjacency))
        return adjacency, by_center

    def refuse(*args):
        raise AssertionError("computed a table of cells")

    monkeypatch.setattr(carpet, "corridors", recording)
    monkeypatch.setattr(CarpetApprox, "kept", property(refuse))
    with monkeypatch.context() as m:
        m.setattr(carpet, "_removed_cells", refuse)
        s = build_k5_scaffold(2, seed=3)
        assert len({id(star) for star in s.stars}) >= 2
        assert len(built) == 1 and built[0]() is None
        assert verify_k5_graph(s)
        scaffold_to_json(s)
    scaffold_svg(s)
    assert len(built) == 1


def test_k5_request_leaves_no_reference_cycles():
    """A scaffold's build, check and emission free their objects by reference
    counting: the cyclic collector finds next to nothing afterwards (the
    json module's encoder closures are what it does find)."""
    s = build_k5_scaffold(2, seed=3)
    verify_k5_graph(s)
    scaffold_to_json(s)
    scaffold_svg(s)
    gc.collect()
    gc.disable()
    try:
        s = build_k5_scaffold(2, seed=3)
        assert verify_k5_graph(s)
        scaffold_to_json(s)
        scaffold_svg(s)
        del s
        assert gc.collect() < 100
    finally:
        gc.enable()


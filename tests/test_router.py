"""The star router's flow routine against networkx, its oracle.

`carpet.node_disjoint_paths` is a port of networkx's node-split Edmonds-Karp
to integer arrays and must return exactly networkx's paths, in order.  The
networkx corridor graph the router used to build lives here, and so does the
networkx router itself (`_networkx_embed_star`), to route whole scaffolds
through networkx for comparison.
"""

import gc
import hashlib

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbound import carpet
from coxbound.carpet import (CarpetStar, RoutingError, _cell_center, _entry_cell,
                             _join_sink, build_carpet_approx, build_k5_scaffold,
                             node_disjoint_paths, residual_network, scaffold_svg,
                             scaffold_to_json, verify_k5_graph)
from test_carpet import _cell_kept


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


def _networkx_embed_star(c, marks):
    """The router as it ran on networkx: the same candidates, checks and legs."""
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


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_router_paths_match_networkx_on_the_corridor_graph(data):
    level = data.draw(st.integers(1, 3), label="level")
    c = build_carpet_approx(level)
    _, network, _ = c.corridors
    cells = [(i, j) for i, j, _ in c.kept]
    picks = data.draw(st.lists(st.sampled_from(range(len(cells))), min_size=1, max_size=5,
                               unique=True), label="center and entries")
    center, entry_ids = picks[0], picks[1:]      # entries in drawn order; none: no path
    graph = _corridor_graph(level)
    graph.add_node("sink")
    for k in entry_ids:
        graph.add_edge(cells[k], "sink")
    sink = len(cells)
    got = node_disjoint_paths(_join_sink(network, entry_ids), center, sink)
    try:
        expected = list(nx.node_disjoint_paths(graph, cells[center], "sink"))
    except nx.NetworkXNoPath:
        assert not entry_ids and got == []
        return
    ids = {cell: k for k, cell in enumerate(cells)} | {"sink": sink}
    assert got == [[ids[x] for x in p] for p in expected]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_router_paths_match_networkx_on_any_graph(data):
    """Any simple graph, edges inserted in any order, disconnected ones too."""
    size = data.draw(st.integers(2, 9), label="nodes")
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges = data.draw(st.permutations(pairs), label="edge order")
    edges = edges[:data.draw(st.integers(0, len(edges)), label="edge count")]
    g = nx.Graph()
    g.add_nodes_from(range(size))
    for u, v in edges:
        if data.draw(st.booleans()):
            u, v = v, u
        g.add_edge(u, v)
    s, t = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True),
                     label="s, t")
    adj = [list(g.adj[k]) for k in range(size)]
    assert node_disjoint_paths(residual_network(adj), s, t) == _networkx_paths(g, s, t)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_join_sink_is_the_residual_network_with_the_sink(data):
    """Joining the sink to a built network lists the same arcs, in the same
    order and direction, as building the network with the sink in it."""
    level = data.draw(st.integers(1, 3), label="level")
    c = build_carpet_approx(level)
    _, network, _ = c.corridors
    cells = c.kept
    entry_ids = data.draw(st.lists(st.sampled_from(range(len(cells))), max_size=4,
                                   unique=True), label="entries")
    adj = [[v >> 1 for v, _ in arcs[1:]] for arcs in network[1::2]]
    assert residual_network(adj) == network
    sink = len(cells)
    adj = [nbrs + [sink] if k in entry_ids else nbrs for k, nbrs in enumerate(adj)]
    joined = _join_sink(network, entry_ids)
    full = residual_network(adj + [entry_ids])
    assert [[(v, e & 1) for v, e in arcs] for arcs in joined] == \
        [[(v, e & 1) for v, e in arcs] for arcs in full]
    assert sorted(e for arcs in joined for _, e in arcs) == list(range(sum(map(len, full))))


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
    assert scaffold_to_json(build_k5_scaffold(level, seed)) == \
        scaffold_to_json(_routed_through_networkx(level, seed))


# SHA-256 of scaffold_to_json(build_k5_scaffold(5)), computed with the networkx
# router before the integer one replaced it
LEVEL_5_SCAFFOLD = "6eb802c959acaaceb385f0d517db6f6c9871e05084db3f1d665cb91eee29ded0"


def test_level_5_scaffold():
    s = build_k5_scaffold(5)
    assert hashlib.sha256(scaffold_to_json(s).encode()).hexdigest() == LEVEL_5_SCAFFOLD
    assert verify_k5_graph(s)


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


"""Differential tests of the subset-search kernel on generic small graphs.

The scan and the removal check take plain (neighbour, removal key) rows, so
they are compared here against networkx on graphs far from star graphs:
trees, cycles, complete graphs and random graphs, glued into graphs with
bridges, cut vertices or several components.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcut.oracle import _WorkerState, _check_removal, _keyed_rows, _scan

nx = pytest.importorskip("networkx")


@st.composite
def block_graphs(draw):
    """Adjacency lists of up to 12 vertices, built from up to 3 blocks.

    Each block is a tree, a cycle, a complete graph or a random graph on up
    to 4 vertices.  Every block after the first is left apart (another
    component), joined to an earlier vertex by one edge (a bridge) or glued
    onto an earlier vertex (a cut vertex).
    """
    adj: list[set] = []

    def new_vertex():
        adj.append(set())
        return len(adj) - 1

    def add_edge(u, v):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        join = draw(st.sampled_from(["apart", "bridge", "glue"])) if adj else "apart"
        anchor = draw(st.integers(0, len(adj) - 1)) if adj else None
        if join == "glue":
            vs = [anchor] + [new_vertex() for _ in range(size - 1)]
        else:
            vs = [new_vertex() for _ in range(size)]
            if join == "bridge":
                add_edge(anchor, vs[0])
        shape = draw(st.sampled_from(["tree", "cycle", "complete", "random"]))
        pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
        if shape == "tree":
            for i in range(1, size):
                add_edge(vs[draw(st.integers(0, i - 1))], vs[i])
        elif shape == "cycle":
            for i in range(size):
                add_edge(vs[i], vs[(i + 1) % size])
        elif shape == "complete":
            for a, b in pairs:
                add_edge(a, b)
        else:
            for a, b in pairs:
                if draw(st.booleans()):
                    add_edge(a, b)
    return [sorted(row) for row in adj]


@st.composite
def removal_cases(draw):
    adj = draw(block_graphs())
    mode = draw(st.sampled_from(["vertex", "edge"]))
    rows, ground, edges = _keyed_rows(adj, mode)
    removal = draw(st.lists(st.integers(0, ground - 1), unique=True)) if ground else []
    k = draw(st.integers(0, 3))
    return adj, mode, rows, ground, edges, removal, k


def _state(mode, rows, ground):
    return _WorkerState({"mode": mode, "rows": rows, "ground": ground,
                         "deadline": None, "track_disconnectors": False})


def _verdict(ws, removal, k):
    """(disconnected, valid) from the removal check's surviving degree."""
    disconnected, mind = _check_removal(ws, removal)
    return disconnected, disconnected and mind >= k


def _reduced(adj, mode, edges, removal):
    h = nx.Graph()
    h.add_nodes_from(range(len(adj)))
    h.add_edges_from((u, w) for u, row in enumerate(adj) for w in row)
    if mode == "vertex":
        h.remove_nodes_from(removal)
    else:
        h.remove_edges_from(edges[e] for e in removal)
    return h


@settings(max_examples=400, deadline=None)
@given(removal_cases())
def test_scan_matches_networkx(case):
    adj, mode, rows, ground, edges, removal, k = case
    h = _reduced(adj, mode, edges, removal)
    if mode == "vertex":
        critical = sorted(nx.articulation_points(h))
    else:
        eid = {e: i for i, e in enumerate(edges)}
        critical = sorted(eid[tuple(sorted(e))] for e in nx.bridges(h))
    ws = _state(mode, rows, ground)
    ncomp, got = _scan(ws, removal)
    assert (ncomp, sorted(got)) == (nx.number_connected_components(h), critical)


@settings(max_examples=400, deadline=None)
@given(removal_cases())
def test_removal_check_matches_components_and_min_degree(case):
    adj, mode, rows, ground, edges, removal, k = case
    h = _reduced(adj, mode, edges, removal)
    survivors = h.number_of_nodes()
    if survivors == 0:
        expected = (False, False)  # removing every vertex is no cut
    else:
        # in vertex mode fewer than two survivors count as disconnected
        disconnected = (nx.number_connected_components(h) >= 2
                        or (mode == "vertex" and survivors < 2))
        min_degree = min(d for _, d in h.degree())
        expected = (disconnected, disconnected and min_degree >= k)
        assert _check_removal(_state(mode, rows, ground), removal)[1] == min_degree
    ws = _state(mode, rows, ground)
    assert _verdict(ws, removal, k) == expected


def test_scan_and_check_reuse_one_state():
    # stamps from earlier calls must not leak into later ones
    adj = [[1, 2], [0, 2], [0, 1, 3], [2]]  # a triangle with a pendant edge
    rows, ground, edges = _keyed_rows(adj, "edge")
    ws = _state("edge", rows, ground)
    bridge = edges.index((2, 3))
    assert _scan(ws, []) == (1, [bridge])
    assert _scan(ws, [bridge]) == (2, [])
    assert _verdict(ws, [bridge], 0) == (True, True)
    assert _verdict(ws, [bridge], 1) == (True, False)
    assert _scan(ws, []) == (1, [bridge])

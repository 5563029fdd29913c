"""Differential tests of the public k-cut verdicts on small star graphs.

is_k_vertex_cut and is_k_edge_cut are compared against networkx on the
reduced graph, and against the subset-search removal check, the other
implementation of the same rule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcut import InputError, StarGraph, is_k_edge_cut, is_k_vertex_cut
from starcut.oracle import _WorkerState, _check_removal, _keyed_rows

nx = pytest.importorskip("networkx")

GRAPHS = {n: StarGraph(n) for n in (1, 2, 3, 4)}


def _public(g, mode, removal, edges, k):
    if mode == "vertex":
        return is_k_vertex_cut(g, removal, k)
    return is_k_edge_cut(g, [edges[e] for e in removal], k)


def _kernel(g, mode, removal, k):
    rows, ground, _ = _keyed_rows(g.adjacency_lists(), mode)
    ws = _WorkerState(rows, ground, mode)
    disconnected, mind = _check_removal(ws, removal)
    return disconnected, disconnected and mind >= k


def _networkx_verdict(g, mode, removal, edges, k):
    h = nx.Graph()
    h.add_nodes_from(range(g.num_vertices))
    h.add_edges_from(g.edges())
    if mode == "vertex":
        h.remove_nodes_from(removal)
    else:
        h.remove_edges_from(edges[e] for e in removal)
    comps = sorted(nx.connected_components(h), key=min)
    # fewer than two survivors count as disconnected in vertex mode only
    disconnected = len(comps) >= 2 or (mode == "vertex" and h.number_of_nodes() < 2)
    mind = min(d for _, d in h.degree())
    valid = disconnected and mind >= k
    reason = "ok" if valid else "degree-below-k" if disconnected else "not-disconnected"
    return [len(c) for c in comps], mind, valid, reason


def _assert_agrees(g, mode, removal, k):
    edges = _keyed_rows(g.adjacency_lists(), mode)[2]
    if mode == "vertex" and len(removal) == g.num_vertices:
        with pytest.raises(InputError):
            _public(g, mode, removal, edges, k)
        assert _kernel(g, mode, removal, k) == (False, False)
        return None
    verdict = _public(g, mode, removal, edges, k)
    sizes, mind, valid, reason = _networkx_verdict(g, mode, removal, edges, k)
    assert verdict.mode == mode and verdict.k == k and verdict.n == g.n
    assert verdict.component_sizes == sizes
    assert verdict.min_surviving_degree == mind
    assert (verdict.valid, verdict.reason) == (valid, reason)
    assert verdict.removed == len(removal)
    disconnected = verdict.reason != "not-disconnected"
    assert _kernel(g, mode, removal, k) == (disconnected, verdict.valid)
    return verdict


@st.composite
def removal_cases(draw):
    """A removal on S3 or S4, often built around one vertex's incident set.

    Uniform random sets rarely disconnect, so half the cases start from the
    neighbours (or incident edges) of a vertex and then add and drop a few.
    """
    g = GRAPHS[draw(st.sampled_from([3, 4]))]
    mode = draw(st.sampled_from(["vertex", "edge"]))
    _, ground, edges = _keyed_rows(g.adjacency_lists(), mode)
    removal = set(draw(st.lists(st.integers(0, ground - 1), max_size=ground)))
    if draw(st.booleans()):
        v = draw(st.integers(0, g.num_vertices - 1))
        if mode == "vertex":
            removal |= set(g.neighbors(v))
        else:
            removal |= {i for i, e in enumerate(edges) if v in e}
        drop = draw(st.lists(st.integers(0, ground - 1), max_size=2))
        removal -= set(drop)
    return g, mode, sorted(removal), draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(removal_cases())
def test_public_verdicts_match_networkx_and_kernel(case):
    _assert_agrees(*case)


@pytest.mark.parametrize("n, mode, removal, k, sizes, reason", [
    (1, "vertex", [], 0, [1], "ok"),
    (1, "edge", [], 0, [1], "not-disconnected"),
    (2, "vertex", [], 0, [2], "not-disconnected"),
    (2, "vertex", [0], 0, [1], "ok"),
    (2, "vertex", [0], 1, [1], "degree-below-k"),
    (2, "edge", [], 0, [2], "not-disconnected"),
    (2, "edge", [0], 0, [1, 1], "ok"),
    (2, "edge", [0], 1, [1, 1], "degree-below-k"),
])
def test_survivor_rule_is_vertex_mode_only(n, mode, removal, k, sizes, reason):
    # a lone survivor is a disconnected remainder when vertices were
    # removed, but S1 with no edge removed is simply connected
    verdict = _assert_agrees(GRAPHS[n], mode, removal, k)
    assert (verdict.component_sizes, verdict.reason) == (sizes, reason)


def test_removing_every_vertex_is_rejected():
    _assert_agrees(GRAPHS[2], "vertex", [0, 1], 0)
